"""Sieves on an object: left ideals of morphisms with that domain.

A sieve on x is a set of morphisms, every one with domain x, closed under
postcomposition (f in S implies g.f in S for every g composable with f).
The empty set is a sieve; the maximal sieve on x is every morphism out of x.

Inside the library a sieve on x is an int mask: bit i stands for the i-th
morphism of cat.morphisms_from(x), which lists them in name order, so the
set bits of a mask, read upward, are the sorted members of its Sieve. The
mask index (_Index) holds, for each morphism f: x -> y, its bit at x
(bit[x][f], the int 1 << i), its principal mask (the sieve f generates),
and pre[f]: for each g out of y, in that order, the bit of g.f at x. So
f*(S) has bit i exactly when pre[f][i] meets S; union is |, intersection
&, and S lies inside T when S & ~T is 0. Each category has one index,
built when the category is first used for sieves (_mask_index) and kept
on its instance, outside the record's fields, by fincat._kept, the helper
modrep keeps its representables with; only the index's constructor reads
composition. The tuple Sieve appears only at the boundaries: arguments
and results, covers, witnesses and documents. It becomes a mask through
_Index.mask alone.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable

from .errors import (
    InvalidSieve,
    Record,
    SizeBudgetExceeded,
    UnknownObject,
    WrongDomain,
)
from .fincat import FiniteCategory, _kept

DEFAULT_MAX_SIEVES = 4096


class Sieve(Record):
    """A sieve on `base`: its members, sorted and duplicate-free. Built and
    hashed tens of thousands of times per search, so it spells out the
    record's constructor, equality and hash."""

    base: str
    members: tuple[str, ...]

    def __init__(self, base: str, members: tuple[str, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", members)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.base, self.members))

    @property
    def member_set(self) -> frozenset[str]:
        return frozenset(self.members)

    def __contains__(self, m: str) -> bool:
        return m in self.member_set

    def __len__(self) -> int:
        return len(self.members)


def sieve_sort_key(s: Sieve):
    return (len(s.members), s.members)


class _Index:
    """The mask index of a category: bit, pre and principal for every
    morphism. It keeps the category's mappings, not the category, so the
    index kept on the category makes no reference cycle."""

    __slots__ = ("dom", "cod", "out_of", "bit", "pre", "principal")

    def __init__(self, cat: FiniteCategory) -> None:
        self.dom, self.cod, self.out_of = cat.dom, cat.cod, cat.out_of
        out_of, cod, compose = cat.out_of, cat.cod, cat.compose_table
        self.bit = bit = {x: {f: 1 << i for i, f in enumerate(out_of[x])}
                          for x in cat.objects}
        self.pre = pre = {}
        self.principal = principal = {}
        for x in cat.objects:
            at = bit[x]
            for f in out_of[x]:
                row = pre[f] = [at[compose[g, f]] for g in out_of[cod[f]]]
                principal[f] = reduce(or_, row, 0)

    def mask(self, x: str, s: Sieve) -> int:
        """The mask of the members of s: the one conversion of a Sieve to a
        mask, closure unchecked. Raises WrongDomain for a sieve on another
        object than x or a member out of another object, and InvalidSieve
        for an unknown member or members not sorted and distinct."""
        if s.base != x:
            raise WrongDomain(f"sieve on {s.base} used as a sieve on {x}")
        at = self.bit[x]
        m = 0
        for f in s.members:
            b = at.get(f)
            if b is None:
                if f not in self.dom:
                    raise InvalidSieve(f"unknown morphism {f!r}")
                raise WrongDomain(f"{f} has domain {self.dom[f]}, not {x}")
            if m >= b:
                raise InvalidSieve(
                    f"members on {x} not sorted and distinct: {s.members}")
            m |= b
        return m

    def closed_mask(self, x: str, s: Sieve) -> int:
        """mask(x, s), and InvalidSieve when some member's principal sieve
        is not inside it: s is not postcomposition closed."""
        m = self.mask(x, s)
        for f in s.members:
            missing = self.principal[f] & ~m
            if missing:
                g = next(g for g, b in zip(self.out_of[self.cod[f]],
                                           self.pre[f]) if b & missing)
                raise InvalidSieve(
                    f"not postcomposition closed: {g}.{f} missing on {x}")
        return m

    def sieve(self, x: str, m: int) -> Sieve:
        return Sieve(x, tuple([f for i, f in enumerate(self.out_of[x])
                               if m >> i & 1]))

    def pull(self, f: str, m: int) -> int:
        """f*(S) for the mask m of S, a mask at cod f."""
        out = 0
        for i, b in enumerate(self.pre[f]):
            if m & b:
                out |= 1 << i
        return out

    def masks(self, x: str) -> list[int]:
        """The mask of every sieve on x, in the canonical order of
        sieve_sort_key (size, then members).

        Each f out of x in turn adds principal(f) | s for every s found so
        far, starting from the empty sieve. A sieve is the union of the
        principal sieves of its members, so it is found at its last member.
        The budget, DEFAULT_MAX_SIEVES read at each call, counts every
        sieve.
        """
        found = {0: None}  # insertion-ordered, so the scan is deterministic
        for f in self.out_of[x]:
            p = self.principal[f]
            for s in list(found):
                u = s | p
                if u not in found:
                    if len(found) >= DEFAULT_MAX_SIEVES:
                        raise SizeBudgetExceeded(
                            f"more than {DEFAULT_MAX_SIEVES} sieves on {x}")
                    found[u] = None
        # bits are in name order: comparing set bits upward compares members
        return sorted(found, key=lambda m: (m.bit_count(), [
            i for i in range(m.bit_length()) if m >> i & 1]))


def _mask_index(cat: FiniteCategory) -> _Index:
    """The mask index of cat, built when cat is first used for sieves and
    kept on the instance (fincat._kept)."""
    return _kept(cat, "_mask_index", _Index)


def make_sieve(cat: FiniteCategory, base: str, members: Iterable[str]) -> Sieve:
    if base not in cat.identity:
        raise UnknownObject(base)
    s = Sieve(base, tuple(sorted(set(members))))
    _mask_index(cat).closed_mask(base, s)
    return s


def maximal_sieve(cat: FiniteCategory, x: str) -> Sieve:
    return Sieve(x, cat.morphisms_from(x))


def is_maximal(cat: FiniteCategory, s: Sieve) -> bool:
    full = (1 << len(cat.morphisms_from(s.base))) - 1
    return _mask_index(cat).mask(s.base, s) == full


def generated_sieve(cat: FiniteCategory, x: str,
                    generators: Iterable[str]) -> Sieve:
    """Smallest sieve on x containing the generators: the union of their
    principal sieves."""
    if x not in cat.identity:
        raise UnknownObject(x)
    index = _mask_index(cat)
    gens = Sieve(x, tuple(sorted(set(generators))))
    index.mask(x, gens)  # refuses a generator out of place
    principal = index.principal
    return index.sieve(x, reduce(or_, [principal[f] for f in gens.members], 0))


def minimal_generators(cat: FiniteCategory, s: Sieve) -> tuple[str, ...]:
    """A deterministic generating set: scan members in canonical order,
    keeping each one not already generated by the kept ones."""
    if s.base not in cat.identity:
        raise UnknownObject(s.base)
    index = _mask_index(cat)
    index.mask(s.base, s)  # refuses a member out of place
    at, principal = index.bit[s.base], index.principal
    kept: list[str] = []
    covered = 0
    for f in s.members:
        if not covered & at[f]:
            kept.append(f)
            covered |= principal[f]
    return tuple(kept)


def all_sieves(cat: FiniteCategory, x: str) -> list[Sieve]:
    """Every sieve on x, canonically ordered (size, then member tuple)."""
    if x not in cat.identity:
        raise UnknownObject(x)
    index = _mask_index(cat)
    return [index.sieve(x, m) for m in index.masks(x)]


def pullback_sieve(cat: FiniteCategory, s: Sieve, f: str) -> Sieve:
    """f*(S) = {g with domain cod(f) : g.f in S}; a sieve on cod(f).

    Stability in cover rules is expressed with this operation; it is
    functorial: pulling back along f then g equals pulling back along g.f.
    """
    if cat.dom.get(f) != s.base:
        raise WrongDomain(f"{f!r} is not a morphism out of {s.base}")
    index = _mask_index(cat)
    m = index.mask(s.base, s)
    y = cat.cod[f]
    return Sieve(y, tuple([g for g, b in zip(cat.out_of[y], index.pre[f])
                           if m & b]))


def sieve_to_doc(s: Sieve) -> dict:
    return {"base": s.base, "members": list(s.members)}

