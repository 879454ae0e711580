"""Sieves on an object: left ideals of morphisms with that domain.

A sieve on x is a set of morphisms, every one with domain x, closed under
postcomposition (f in S implies g.f in S for every g composable with f).
The empty set is a sieve; the maximal sieve on x is every morphism out of x.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    InvalidSieve,
    Record,
    SizeBudgetExceeded,
    UnknownObject,
    WrongDomain,
)
from .fincat import FiniteCategory

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


def make_sieve(cat: FiniteCategory, base: str, members: Iterable[str]) -> Sieve:
    if base not in cat.identity:
        raise UnknownObject(base)
    mem = tuple(sorted(set(members)))
    for f in mem:
        if f not in cat.dom:
            raise InvalidSieve(f"unknown morphism {f!r}")
        if cat.dom[f] != base:
            raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {base}")
    mset = set(mem)
    for f in mem:
        for g in cat.morphisms_from(cat.cod[f]):
            if cat.compose(g, f) not in mset:
                raise InvalidSieve(
                    f"not postcomposition closed: {g}.{f} missing on {base}")
    return Sieve(base, mem)


def maximal_sieve(cat: FiniteCategory, x: str) -> Sieve:
    return Sieve(x, tuple(sorted(cat.morphisms_from(x))))


def empty_sieve(cat: FiniteCategory, x: str) -> Sieve:
    if x not in cat.identity:
        raise UnknownObject(x)
    return Sieve(x, ())


def is_maximal(cat: FiniteCategory, s: Sieve) -> bool:
    return len(s.members) == len(cat.morphisms_from(s.base))


def generated_sieve(cat: FiniteCategory, x: str,
                    generators: Iterable[str]) -> Sieve:
    """Smallest sieve on x containing the generators: {g.f : f in gens,
    g out of cod f}, closed already since h.(g.f) = (h.g).f."""
    gens = list(generators)
    for f in gens:
        if f not in cat.dom:
            raise InvalidSieve(f"unknown morphism {f!r}")
        if cat.dom[f] != x:
            raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {x}")
    return Sieve(x, tuple(sorted({cat.compose(g, f) for f in gens
                                  for g in cat.morphisms_from(cat.cod[f])})))


def principal_sieve(cat: FiniteCategory, f: str) -> Sieve:
    return generated_sieve(cat, cat.dom[f], [f])


def minimal_generators(cat: FiniteCategory, s: Sieve) -> tuple[str, ...]:
    """A deterministic generating set: scan members in canonical order,
    keeping each one not already generated by the kept ones."""
    kept: list[str] = []
    covered: set[str] = set()
    for f in s.members:
        if f in covered:
            continue
        kept.append(f)
        covered |= set(generated_sieve(cat, s.base, [f]).members)
    return tuple(kept)


def union_sieves(a: Sieve, b: Sieve) -> Sieve:
    if a.base != b.base:
        raise WrongDomain("union of sieves on different objects")
    return Sieve(a.base, tuple(sorted(set(a.members) | set(b.members))))


def intersect_sieves(a: Sieve, b: Sieve) -> Sieve:
    if a.base != b.base:
        raise WrongDomain("intersection of sieves on different objects")
    return Sieve(a.base, tuple(sorted(set(a.members) & set(b.members))))


def all_sieves(cat: FiniteCategory, x: str,
               max_sieves: int = DEFAULT_MAX_SIEVES) -> list[Sieve]:
    """Every sieve on x, canonically ordered (size, then member tuple).

    Each f out of x in turn adds principal(f) union every sieve found so
    far, starting from {empty}. A sieve is the union of the principal sieves
    of its members, so it is found at its last member: the list is complete.
    """
    # an insertion-ordered dict, not a set: the union calls made then do
    # not depend on string hashing (PYTHONHASHSEED)
    found = {empty_sieve(cat, x): None}
    for f in cat.morphisms_from(x):
        p = principal_sieve(cat, f)
        for s in list(found):
            u = union_sieves(s, p)
            if u not in found:
                if len(found) >= max_sieves:
                    raise SizeBudgetExceeded(
                        f"more than {max_sieves} sieves on {x}")
                found[u] = None
    return sorted(found, key=sieve_sort_key)


def pullback_sieve(cat: FiniteCategory, s: Sieve, f: str) -> Sieve:
    """f*(S) = {g with domain cod(f) : g.f in S}; a sieve on cod(f).

    Stability in cover rules is expressed with this operation; it is
    functorial: pulling back along f then g equals pulling back along g.f.
    """
    if cat.dom[f] != s.base:
        raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {s.base}")
    y = cat.cod[f]
    mset = s.member_set
    members = tuple(sorted(g for g in cat.morphisms_from(y)
                           if cat.compose(g, f) in mset))
    return Sieve(y, members)


def sieve_to_doc(s: Sieve) -> dict:
    return {"base": s.base, "members": list(s.members)}

