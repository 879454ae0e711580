"""Sieves on an object: left ideals of morphisms with that domain.

A sieve on x is a set of morphisms, every one with domain x, closed under
postcomposition (f in S implies g.f in S for every g composable with f).
The empty set is a sieve; the maximal sieve on x is every morphism out of x.

Inside the library a sieve on x is an int mask: bit i stands for the i-th
morphism of cat.morphisms_from(x), which lists them in name order, so the
set bits of a mask, read upward, are the sorted members of its Sieve. The
mask index (_Index) holds, for each morphism f: x -> y, its bit at x, its
principal mask (the sieve f generates), and pre[f]: for each g out of y,
in that order, the bit of g.f at x. So f*(S) has bit i exactly when
pre[f][i] meets S; union is |, intersection &, and S lies inside T when
S & ~T is 0. An index is built per top-level call and never stored. The
tuple Sieve appears only at the boundaries: arguments and results,
covers, witnesses and documents.
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


def is_maximal(cat: FiniteCategory, s: Sieve) -> bool:
    return len(s.members) == len(cat.morphisms_from(s.base))


def generated_sieve(cat: FiniteCategory, x: str,
                    generators: Iterable[str]) -> Sieve:
    """Smallest sieve on x containing the generators: {g.f : f in gens,
    g out of cod f}, closed already since h.(g.f) = (h.g).f."""
    if x not in cat.identity:
        raise UnknownObject(x)
    gens = list(generators)
    for f in gens:
        if f not in cat.dom:
            raise InvalidSieve(f"unknown morphism {f!r}")
        if cat.dom[f] != x:
            raise WrongDomain(f"{f} has domain {cat.dom[f]}, not {x}")
    return Sieve(x, tuple(sorted({cat.compose(g, f) for f in gens
                                  for g in cat.morphisms_from(cat.cod[f])})))


def minimal_generators(cat: FiniteCategory, s: Sieve) -> tuple[str, ...]:
    """A deterministic generating set: scan members in canonical order,
    keeping each one not already generated by the kept ones."""
    if s.base not in cat.identity:
        raise UnknownObject(s.base)
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


def _check_members(cat: FiniteCategory, x: str, s: Sieve) -> None:
    """Raise WrongDomain for a sieve on another object than x or a member
    out of another object, and InvalidSieve for an unknown member."""
    if s.base != x:
        raise WrongDomain(f"sieve on {s.base} used as a sieve on {x}")
    dom = cat.dom
    for f in s.members:
        if dom.get(f) != x:
            if f not in dom:
                raise InvalidSieve(f"unknown morphism {f!r}")
            raise WrongDomain(f"{f} has domain {dom[f]}, not {x}")


class _Index:
    """The mask index at some objects of a category (all of them when
    objects is None): bit, pre and principal for every morphism out of
    them."""

    __slots__ = ("cat", "bit", "pre", "principal")

    def __init__(self, cat: FiniteCategory,
                 objects: Iterable[str] | None = None) -> None:
        self.cat = cat
        out_of, cod, compose = cat.out_of, cat.cod, cat.compose_table
        objects = cat.objects if objects is None else tuple(objects)
        self.bit = bit = {f: i for x in objects
                          for i, f in enumerate(out_of[x])}
        self.pre = pre = {}
        self.principal = principal = {}
        for x in objects:
            for f in out_of[x]:
                row = pre[f] = [1 << bit[compose[g, f]]
                                for g in out_of[cod[f]]]
                p = 0
                for b in row:
                    p |= b
                principal[f] = p

    def mask(self, x: str, s: Sieve) -> int:
        """The mask of a sieve on x; see _check_members for what raises."""
        _check_members(self.cat, x, s)
        bit = self.bit
        m = 0
        for f in s.members:
            b = 1 << bit[f]
            if m >= b:
                raise InvalidSieve(
                    f"members on {x} not sorted and distinct: {s.members}")
            m |= b
        return m

    def sieve(self, x: str, m: int) -> Sieve:
        return Sieve(x, tuple([f for i, f in enumerate(self.cat.out_of[x])
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
        for f in self.cat.out_of[x]:
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


def all_sieves(cat: FiniteCategory, x: str) -> list[Sieve]:
    """Every sieve on x, canonically ordered (size, then member tuple)."""
    if x not in cat.identity:
        raise UnknownObject(x)
    index = _Index(cat, (x,))
    return [index.sieve(x, m) for m in index.masks(x)]


def pullback_sieve(cat: FiniteCategory, s: Sieve, f: str) -> Sieve:
    """f*(S) = {g with domain cod(f) : g.f in S}; a sieve on cod(f).

    Stability in cover rules is expressed with this operation; it is
    functorial: pulling back along f then g equals pulling back along g.f.
    One pullback costs less by a member set than by building the bits of
    every morphism out of dom f, so this public form does not use masks.
    """
    if cat.dom.get(f) != s.base:
        raise WrongDomain(f"{f!r} is not a morphism out of {s.base}")
    _check_members(cat, s.base, s)
    mset = s.member_set
    compose = cat.compose_table
    return Sieve(cat.cod[f], tuple([g for g in cat.out_of[cat.cod[f]]
                                    if compose[g, f] in mset]))


def sieve_to_doc(s: Sieve) -> dict:
    return {"base": s.base, "members": list(s.members)}

