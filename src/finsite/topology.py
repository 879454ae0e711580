"""Cover rules and Grothendieck topologies on a finite category.

A cover rule assigns to each object x a set of sieves on x (the covers).
"Topology" status is a certificate: check_axioms verifies the maximal-sieve
axiom, stability under pullback, and transitivity, and reports witnesses for
every failure. Rules and topologies are the same data. check_axioms is the
only scan of a rule's axioms and closure properties: saturate_rule, the
smallest topology containing a rule, is a fixpoint over its witnesses, and
torsion's annihilator round trip reads its closure witnesses.

On a finite category every topology's covers at x are closed under finite
intersection and inclusion, hence form the up-set of a unique minimum sieve.
Enumeration exploits that: a backtracking search picks one minimum sieve per
object and prunes on two local conditions, stability and transitivity of the
minimum sieves, which together are necessary and sufficient for the up-set
rule to be a topology. Its budget counts the (object, sieve) pairs tried,
and every rule it emits is re-verified with check_axioms.

The subcategory topology J_D of an object set D covers x by every sieve
containing the morphisms from x into D (subcategory_sieve). On a finite
directed EI category the topologies are exactly the 2^(number of objects)
J_D (the paper's classification); enumerate_consistent_families lists them.
"""

from __future__ import annotations

import itertools
import json
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    FinsiteError,
    NotAnIdeal,
    NotDirectedEI,
    OreConditionFails,
    Record,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
)
from .fincat import (
    FiniteCategory,
    OrbitData,
    classify_category,
    full_subcategory,
    is_directed_ei,
)
from .sieves import (
    Sieve,
    all_sieves,
    generated_sieve,
    intersect_sieves,
    make_sieve,
    maximal_sieve,
    pullback_sieve,
    sieve_sort_key,
)

DEFAULT_ENUM_BUDGET = 200_000


class GrothendieckTopology(Record):
    """A cover rule; certified as a topology only by check_axioms."""

    cat: FiniteCategory
    covers: Mapping[str, frozenset[Sieve]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrothendieckTopology):
            return NotImplemented
        return other is self or (self.cat == other.cat
                                 and self.covers == other.covers)

    __hash__ = None

    def covers_at(self, x: str) -> list[Sieve]:
        if x not in self.covers:
            raise UnknownObject(x)
        return sorted(self.covers[x], key=sieve_sort_key)

    def total_cover_count(self) -> int:
        return sum(len(v) for v in self.covers.values())


def make_rule(cat: FiniteCategory,
              covers: Mapping[str, Iterable[Sieve]]) -> GrothendieckTopology:
    for x in covers:
        if x not in cat.identity:
            raise UnknownObject(f"covers filed under unknown object {x}")
    full = {}
    for x in cat.objects:
        full[x] = frozenset(covers.get(x, ()))
        for s in full[x]:
            if s.base != x:
                raise UnknownObject(f"sieve on {s.base} filed under {x}")
    return GrothendieckTopology(cat, full)


def topology_to_doc(j: GrothendieckTopology) -> dict:
    return {
        "category_ref": j.cat.name,
        "covers": {x: [list(s.members) for s in j.covers_at(x)]
                   for x in j.cat.objects},
    }


def topology_from_doc(cat: FiniteCategory, doc: Mapping) -> GrothendieckTopology:
    covers = {}
    for x, sieve_lists in doc["covers"].items():
        covers[str(x)] = [make_sieve(cat, str(x), [str(m) for m in mem])
                          for mem in sieve_lists]
    return make_rule(cat, covers)


def canonical_serialization(j: GrothendieckTopology) -> str:
    return json.dumps(topology_to_doc(j)["covers"], sort_keys=True,
                      separators=(",", ":"))


def topology_sort_key(j: GrothendieckTopology):
    return (j.total_cover_count(), canonical_serialization(j))


# ---------------------------------------------------------------------------
# axioms

class AxiomReport(Record):
    maximal_ok: bool
    stability_ok: bool
    transitivity_ok: bool
    # derived closure diagnostics (consequences for genuine topologies)
    inclusion_closed: bool
    intersection_closed: bool
    witnesses: Mapping[str, tuple] = MappingProxyType({})  # shared, so read-only

    @property
    def is_topology(self) -> bool:
        return self.maximal_ok and self.stability_ok and self.transitivity_ok


def check_axioms(cat: FiniteCategory, j: GrothendieckTopology) -> AxiomReport:
    """Verify the three covering axioms directly, with witnesses.

    maximal: the maximal sieve on x covers x. stability: covers pull back to
    covers along every morphism. transitivity: a sieve all of whose pullbacks
    along some cover are covers is itself a cover. Also reports the two
    closure properties every topology's covers have: inclusion (a cover S
    inside a non-cover T) and pairwise intersection (two covers S, T whose
    intersection is no cover), as witnesses (x, S, T) of member tuples.
    Transitivity witnesses are collected exhaustively: every pair (S, T) with
    S a cover forcing the non-cover T is recorded.
    """
    found: dict[str, list[tuple]] = {
        "maximal": [], "stability": list(_stability_violations(cat, j)),
        "transitivity": [], "inclusion": [], "intersection": []}
    for x in cat.objects:
        jx = j.covers.get(x, frozenset())
        ordered = sorted(jx, key=sieve_sort_key)
        universe = all_sieves(cat, x)
        if maximal_sieve(cat, x) not in jx:
            found["maximal"].append((x,))
        for t in universe:
            if t in jx:
                continue
            # f*(T) is a cover, per member f of some cover, computed once
            covered: dict[str, bool] = {}
            for s in ordered:
                for f in s.members:
                    if f not in covered:
                        covered[f] = (pullback_sieve(cat, t, f)
                                      in j.covers.get(cat.cod[f], frozenset()))
                    if not covered[f]:
                        break
                else:
                    found["transitivity"].append((x, s.members, t.members))
        found["inclusion"].extend(
            (x, s.members, t.members) for s in ordered for t in universe
            if s.member_set <= t.member_set and t not in jx)
        found["intersection"].extend(
            (x, s.members, t.members)
            for s, t in itertools.combinations(ordered, 2)
            if intersect_sieves(s, t) not in jx)
    return AxiomReport(
        not found["maximal"], not found["stability"],
        not found["transitivity"], not found["inclusion"],
        not found["intersection"],
        {kind: tuple(w) for kind, w in found.items() if w})


def _stability_violations(cat: FiniteCategory, j: GrothendieckTopology):
    """Every stability violation (x, sieve members, f), in order; stability
    quantifies over every morphism out of x, not only the sieve's members."""
    for x in cat.objects:
        for s in sorted(j.covers.get(x, frozenset()), key=sieve_sort_key):
            for f in cat.morphisms_from(x):
                if pullback_sieve(cat, s, f) not in j.covers.get(cat.cod[f], frozenset()):
                    yield (x, s.members, f)


def check_stability_only(cat: FiniteCategory,
                         j: GrothendieckTopology) -> tuple | None:
    """First stability violation (x, sieve members, f), or None."""
    return next(_stability_violations(cat, j), None)


def require_stable(cat: FiniteCategory, j: GrothendieckTopology) -> None:
    """Raise StabilityFails at the first stability violation."""
    witness = check_stability_only(cat, j)
    if witness is not None:
        raise StabilityFails(witness, "cover rule is not stable under pullback")


# ---------------------------------------------------------------------------
# named topologies

def named_topology(cat: FiniteCategory, kind: str) -> GrothendieckTopology:
    """trivial, maximal, dense, or atomic (atomic needs the cospan
    completion property and raises OreConditionFails otherwise)."""
    if kind == "trivial":
        return make_rule(cat, {x: [maximal_sieve(cat, x)] for x in cat.objects})
    if kind == "maximal":
        return make_rule(cat, {x: all_sieves(cat, x) for x in cat.objects})
    if kind == "dense":
        covers = {}
        for x in cat.objects:
            dense_at_x = []
            for s in all_sieves(cat, x):
                mset = s.member_set
                if all(any(cat.compose(g, f) in mset
                           for g in cat.morphisms_from(cat.cod[f]))
                       for f in cat.morphisms_from(x)):
                    dense_at_x.append(s)
            covers[x] = dense_at_x
        return make_rule(cat, covers)
    if kind == "atomic":
        flags = classify_category(cat)
        if not flags.ore:
            raise OreConditionFails(
                "atomic topology needs every cospan to complete to a square")
        return make_rule(cat, {x: [s for s in all_sieves(cat, x) if s.members]
                               for x in cat.objects})
    raise ValueError(f"unknown named topology {kind!r}")


# ---------------------------------------------------------------------------
# enumeration

def _upset(universe: Sequence[Sieve], s_min: Sieve) -> list[Sieve]:
    base = s_min.member_set
    return [t for t in universe if base <= t.member_set]


def enumerate_topologies(cat: FiniteCategory,
                         budget: int = DEFAULT_ENUM_BUDGET
                         ) -> list[GrothendieckTopology]:
    """All Grothendieck topologies, sorted by total cover count then by
    canonical serialization.

    A topology is the up-set J(x) = up(m(x)) of one minimum sieve per
    object, and such a rule is a topology exactly when two local
    conditions hold:

    - stability: m(y) is inside f*(m(x)) for every f: x -> y;
    - transitivity: every sieve T on x with m(cod f) inside f*(T) for all
      f in m(x) contains m(x).

    A backtracking search assigns m(x) object by object, fewest outgoing
    morphisms first so that codomains are mostly fixed before their
    domains, and tests each condition as soon as every object it mentions
    is assigned. Both tests are lookups in tables built once: the index of
    f*(S) for every sieve S and every f, and sieve inclusion per object.
    ``budget`` bounds the candidate tests, the (object, sieve) pairs tried.
    Every complete assignment is re-verified with check_axioms, so
    correctness never rests on the pruning; a rejected one is a library
    bug and raises FinsiteError.
    """
    universe = {x: all_sieves(cat, x) for x in cat.objects}
    order = sorted(cat.objects, key=lambda x: len(cat.morphisms_from(x)))
    pos = {x: i for i, x in enumerate(order)}
    # above[x][a]: bitmask of the sieves on x containing sieve a
    above = {}
    for x in cat.objects:
        sets = [s.member_set for s in universe[x]]
        above[x] = [sum(1 << b for b, t in enumerate(sets) if s <= t)
                    for s in sets]
    # forced[f][b]: bitmask of the sieves S on dom f whose pullback f*(S)
    # contains sieve b on cod f
    index = {x: {s: i for i, s in enumerate(universe[x])} for x in cat.objects}
    forced = {}
    for f in cat.morphisms:
        y = cat.cod[f]
        pull = [index[y][pullback_sieve(cat, s, f)]
                for s in universe[cat.dom[f]]]
        forced[f] = [sum(1 << a for a, p in enumerate(pull) if up >> p & 1)
                     for up in above[y]]
    # stability of f is tested at the later of its two endpoints; the
    # transitivity of (x, a) once the codomains of a's members are placed
    edges_at: list[list[str]] = [[] for _ in order]
    for f in cat.morphisms:
        if not cat.is_identity(f):
            edges_at[max(pos[cat.dom[f]], pos[cat.cod[f]])].append(f)
    ready = {x: [max([pos[x]] + [pos[cat.cod[f]] for f in s.members])
                 for s in universe[x]]
             for x in cat.objects}
    full = {x: (1 << len(universe[x])) - 1 for x in cat.objects}

    m: dict[str, int] = {}

    def stable(f: str) -> int:
        return forced[f][m[cat.cod[f]]] >> m[cat.dom[f]] & 1

    def transitive(x: str) -> bool:
        a = m[x]
        hyp = full[x]
        for f in universe[x][a].members:
            hyp &= forced[f][m[cat.cod[f]]]
        return not hyp & ~above[x][a]

    found = []
    tests = 0

    def extend(i: int) -> None:
        nonlocal tests
        if i == len(order):
            rule = make_rule(cat, {x: _upset(universe[x], universe[x][m[x]])
                                   for x in cat.objects})
            if not check_axioms(cat, rule).is_topology:
                raise FinsiteError(
                    f"topology search on {cat.name} emitted a rule that "
                    "check_axioms rejects")
            found.append(rule)
            return
        x = order[i]
        for a in range(len(universe[x])):
            tests += 1
            if tests > budget:
                raise SizeBudgetExceeded(
                    f"more than {budget} candidate tests")
            m[x] = a
            if (all(stable(f) for f in edges_at[i])
                    and all(transitive(z) for z in order[:i + 1]
                            if ready[z][m[z]] == i)):
                extend(i + 1)
        del m[x]

    extend(0)
    found.sort(key=topology_sort_key)
    return found


def subcategory_sieve(cat: FiniteCategory, objs: Iterable[str],
                      x: str) -> Sieve:
    """J_D's minimum cover at x, for D = objs: the sieve generated by every
    morphism from x into D. It is maximal when x is in D, and J_D is a
    topology on any category."""
    d = set(objs)
    return generated_sieve(cat, x, [f for f in cat.morphisms_from(x)
                                    if cat.cod[f] in d])


def enumerate_consistent_families(cat: FiniteCategory
                                  ) -> list[GrothendieckTopology]:
    """The topologies of a directed EI category: J_D for every object set D
    (isomorphism classes are single objects there), sorted like
    enumerate_topologies. Raises NotDirectedEI on any other category.
    """
    if not is_directed_ei(cat):
        raise NotDirectedEI(f"{cat.name} is not directed EI")
    universe = {x: all_sieves(cat, x) for x in cat.objects}
    out = [make_rule(cat, {x: _upset(universe[x], subcategory_sieve(cat, d, x))
                           for x in cat.objects})
           for r in range(len(cat.objects) + 1)
           for d in itertools.combinations(cat.objects, r)]
    out.sort(key=topology_sort_key)
    return out


# ---------------------------------------------------------------------------
# irreducibles, rigidity, restriction

def irreducible_objects(cat: FiniteCategory, j: GrothendieckTopology) -> list[str]:
    """Objects whose only cover is the maximal sieve."""
    return [x for x in cat.objects
            if j.covers.get(x) == frozenset({maximal_sieve(cat, x)})]


class RigidityReport(Record):
    rigid: bool
    irreducibles: tuple[str, ...]
    # members generated by morphisms into irreducible objects, per object
    irreducible_sieves: Mapping[str, Sieve]
    minimal_covers: Mapping[str, Sieve] | None
    failures: tuple = ()


def minimal_covering_sieve(cat: FiniteCategory, j: GrothendieckTopology,
                           x: str) -> Sieve:
    """Intersection of all covers of x; for a verified topology on a finite
    category this is itself a cover (finite intersection closure)."""
    covers = j.covers_at(x)
    if not covers:
        raise UnknownObject(f"no covers recorded at {x}")
    out = covers[0]
    for s in covers[1:]:
        out = intersect_sieves(out, s)
    return out


def rigidity(cat: FiniteCategory, j: GrothendieckTopology) -> RigidityReport:
    """A topology is rigid when, for every object y, the sieve generated by
    all morphisms from y to irreducible objects is itself a cover of y.
    When rigid, the minimal cover of each object is reported as well.
    """
    irr = irreducible_objects(cat, j)
    gen_sieves = {y: subcategory_sieve(cat, irr, y) for y in cat.objects}
    failures = [(y, s.members) for y, s in gen_sieves.items()
                if s not in j.covers.get(y, frozenset())]
    rigid = not failures
    minimal = None
    if rigid:
        minimal = {x: minimal_covering_sieve(cat, j, x) for x in cat.objects}
    return RigidityReport(rigid=rigid, irreducibles=tuple(irr),
                          irreducible_sieves=gen_sieves,
                          minimal_covers=minimal, failures=tuple(failures))


def restrict_to_ideal(cat: FiniteCategory, j: GrothendieckTopology,
                      ideal_objs: Iterable[str],
                      ) -> tuple[FiniteCategory, GrothendieckTopology]:
    """Restrict a topology to an ideal (an upward closed object set: every
    morphism out of the ideal stays in it). Covers restrict memberwise; for
    an ideal the member sets are unchanged because every morphism out of an
    ideal object already lands in the ideal. It serves the paper's
    statement that topologies restrict to ideals, the step toward the full
    subcategories of FI and VI.
    """
    ideal = list(dict.fromkeys(ideal_objs))
    ideal_set = set(ideal)
    for x in ideal:
        if x not in cat.identity:
            raise UnknownObject(x)
        for f in cat.morphisms_from(x):
            if cat.cod[f] not in ideal_set:
                raise NotAnIdeal(f"{x} maps to {cat.cod[f]} outside the ideal")
    sub = full_subcategory(cat, ideal)
    sub_mors = set(sub.morphisms)
    covers = {}
    for x in ideal:
        covers[x] = [Sieve(x, tuple(m for m in s.members if m in sub_mors))
                     for s in j.covers_at(x)]
    return sub, make_rule(sub, covers)


# ---------------------------------------------------------------------------
# smallest topology containing a rule; sipp topology on orbit categories

def saturate_rule(cat: FiniteCategory,
                  j: GrothendieckTopology) -> GrothendieckTopology:
    """Smallest topology containing the rule: a fixpoint over check_axioms'
    witnesses. Each witness names a sieve that every topology containing
    the rule must cover, and the round adds them all:

    - maximal (x,): the maximal sieve on x;
    - stability (x, S, f): the pullback f*(S);
    - transitivity (x, S, T): the sieve T.

    So the fixpoint is the least topology, and every round that does not
    end the loop adds a sieve of the finite universe, so the loop ends.
    """
    covers = {x: set(j.covers.get(x, frozenset())) for x in cat.objects}
    while True:
        rule = make_rule(cat, covers)
        report = check_axioms(cat, rule)
        if report.is_topology:
            return rule
        for (x,) in report.witnesses.get("maximal", ()):
            covers[x].add(maximal_sieve(cat, x))
        for x, s, f in report.witnesses.get("stability", ()):
            covers[cat.cod[f]].add(pullback_sieve(cat, Sieve(x, s), f))
        for x, _, t in report.witnesses.get("transitivity", ()):
            covers[x].add(Sieve(x, t))


def sipp_topology(orbit_cat: FiniteCategory, orbit_data: OrbitData,
                  p: int) -> GrothendieckTopology:
    """Topology on an orbit category generated by coverings that contain a
    morphism of index prime to p (the index of a stored arrow G/H -> G/K is
    |H| / |K|). Built by saturating the generated rule under the axioms;
    an object G/H ends up irreducible exactly when H is a p-group.
    """
    def index_of(f: str) -> int:
        return (orbit_data.order_of[orbit_cat.dom[f]]
                // orbit_data.order_of[orbit_cat.cod[f]])

    covers: dict[str, list[Sieve]] = {}
    for x in orbit_cat.objects:
        covers[x] = [s for s in all_sieves(orbit_cat, x)
                     if any(index_of(f) % p != 0 for f in s.members)]
    return saturate_rule(orbit_cat, make_rule(orbit_cat, covers))
