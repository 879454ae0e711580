"""Error taxonomy shared by every finsite module, and its value type.

All failures carry enough context to reconstruct the offending input;
validation errors hold a structured list of violations rather than a single
message so callers (and the CLI) can report every problem at once.

`Record` is the one way to write an immutable value in finsite: sieves,
cover rules, modules, matrices and every report. A subclass declares its
fields as class annotations, in order, each with an optional default as
its class attribute; the base reads them once, when the class is made,
and supplies construction, equality, hash, repr, copying and pickling, and
refuses assignment. Unlike a frozen dataclass it generates no code, so it
adds nothing to the start-up every CLI call pays. Its constructor binds
keyword arguments and defaults at run time; records built in hot loops
are built positionally, which skips that step. `Sieve`, built and hashed
tens of thousands of times per topology search, spells out its own
two-field constructor, equality and hash; `typen.DSpec` and
`typen.SpecValidation`, built once per spec a census emits and validates,
spell out positional constructors and keep the rest from `Record`.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Any, Iterator


class Record:
    """Immutable value whose fields are its class annotations.

    Subclass fields follow inherited ones. Equality holds between instances
    of the same class with equal fields, the hash is that of the field
    tuple, repr is `Name(field=value, ...)`, and copies and pickles rebuild
    through the constructor. Assignment and deletion raise AttributeError.
    A subclass may define its own `__init__` (to validate, or for speed),
    `__eq__`, `__hash__` or `__repr__`; one that defines `__eq__` alone must
    also set `__hash__`, as Python then drops the inherited one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = list(cls._fields)
        defaults = dict(cls._defaults)
        slots = cls.__dict__.get("__slots__", ())
        for name in cls.__dict__.get("__annotations__", {}):
            if name not in fields:
                fields.append(name)
            if name in cls.__dict__ and name not in slots:
                defaults[name] = cls.__dict__[name]
        cls._fields = tuple(fields)
        cls._defaults = defaults
        if len(fields) == 1:
            one = attrgetter(fields[0])
            cls._field_values = staticmethod(lambda obj: (one(obj),))
        elif fields:
            cls._field_values = attrgetter(*fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)}"
                            f" arguments, got {len(args)}")
        setattr_ = object.__setattr__
        for name, value in zip(fields, args):
            setattr_(self, name, value)
        if kwargs or len(args) < len(fields):
            defaults = self._defaults
            for name in fields[len(args):]:
                if name in kwargs:
                    setattr_(self, name, kwargs.pop(name))
                elif name in defaults:
                    setattr_(self, name, defaults[name])
                else:
                    raise TypeError(f"{type(self).__name__}() missing"
                                    f" argument {name!r}")
            if kwargs:  # unknown, or already given by position
                raise TypeError(f"{type(self).__name__}() got unexpected"
                                f" arguments {sorted(kwargs)}")

    def __eq__(self, other: object) -> bool:
        if other is self:  # field tuples compare items by identity first
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._field_values(self)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FinsiteError(Exception):
    """Base class for all finsite-specific failures."""


class Violation(Record):
    """A single validation failure: a kind tag plus witness data."""

    kind: str
    witness: tuple[Any, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.kind]
        if self.witness:
            parts.append(repr(self.witness))
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)


class ValidationFailed(FinsiteError):
    """Raised when a document fails structural validation.

    `violations` lists every problem found, each naming the offending ids.
    """

    def __init__(self, subject: str, violations: list[Violation]):
        self.subject = subject
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:8])
        extra = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"{subject}: {lines}{extra}")


# Violation kind tags used by validate_category.
MISSING_IDENTITY = "MissingIdentity"
NON_ASSOCIATIVE = "NonAssociative"
DANGLING_ENDPOINT = "DanglingEndpoint"
DUPLICATE_ID = "DuplicateId"
MISSING_COMPOSITE = "MissingComposite"
BAD_COMPOSITE = "BadComposite"

# Violation kind tags used by validate_module and module-map validation.
SHAPE_VIOLATION = "ShapeMismatch"
NON_IDENTITY_AT_OBJECT = "NonIdentityAtObject"
FUNCTORIALITY_VIOLATION = "FunctorialityViolation"
NATURALITY_VIOLATION = "NaturalityViolation"

# Violation kind tag for input that does not parse.
MALFORMED_INPUT = "MalformedInput"


class Malformed(ValidationFailed):
    """Input that does not parse as the document or argument it should be."""


@contextmanager
def parsing(subject: str) -> Iterator[None]:
    """Report a failure to parse input as Malformed.

    Wraps only the steps that read a document or an argument (JSON, dict
    keys, int(), name splitting, the document readers and the builders
    that check their parameters), so the builtins they raise there mean
    malformed input. A builtin raised anywhere else is a bug, and
    propagates.
    """
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise Malformed(subject, [Violation(MALFORMED_INPUT, (), detail)]) from exc


class SizeBudgetExceeded(FinsiteError):
    """A construction or search would exceed the configured size budget."""


class CyclicQuiver(FinsiteError):
    """The free category on a quiver with a directed cycle is infinite."""


class NotAPoset(FinsiteError):
    """The given relation fails antisymmetry after transitive closure."""


class NotAGroupTable(FinsiteError):
    """The multiplication table is not a group."""


class UnknownObject(FinsiteError):
    """An object id does not belong to the category."""


class WrongDomain(FinsiteError):
    """A morphism does not have the domain an operation requires."""


class InvalidSieve(FinsiteError):
    """A member set is not closed under postcomposition or has a bad base."""


class OreConditionFails(FinsiteError):
    """The atomic topology needs the cospan completion property."""


class NotDirectedEI(FinsiteError):
    """The operation is defined only for directed EI categories."""


class NotFullSubcategory(FinsiteError):
    """The given category is not a full subcategory of the ambient one."""


class NotRigid(FinsiteError):
    """The operation requires a rigid topology."""


class StabilityFails(FinsiteError):
    """The cover rule is not stable under pullback, so torsion is undefined."""

    def __init__(self, witness: tuple[Any, ...], detail: str = ""):
        self.witness = witness
        super().__init__(f"stability fails at {witness!r} {detail}".rstrip())


class PreconditionFailed(FinsiteError):
    """An operation's documented precondition does not hold."""


class ShapeMismatch(FinsiteError):
    """Matrix or module dimensions do not line up."""


class FieldMismatch(FinsiteError):
    """Two modules live over different ground fields."""


class InfiniteFieldUnsupported(FinsiteError):
    """Vector enumeration requires a finite ground field."""
