"""Error taxonomy shared by every finsite module.

All failures carry enough context to reconstruct the offending input;
validation errors hold a structured list of violations rather than a single
message so callers (and the CLI) can report every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class FinsiteError(Exception):
    """Base class for all finsite-specific failures."""


@dataclass(frozen=True)
class Violation:
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

# Violation kind tag for command line input that does not parse.
MALFORMED_INPUT = "MalformedInput"


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


class NotAnIdeal(FinsiteError):
    """The object set is not closed under morphisms out of it."""


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
