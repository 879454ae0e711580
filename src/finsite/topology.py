"""Cover rules and Grothendieck topologies on a finite category.

A cover rule assigns to each object x a set of sieves on x (the covers).
"Topology" status is a certificate: check_axioms verifies the maximal-sieve
axiom, stability under pullback, and transitivity, and reports witnesses for
every failure. Rules and topologies are the same data. check_axioms is the
only scan of a rule's axioms and closure properties: saturate_rule, the
smallest topology containing a rule, is a fixpoint over its witnesses, and
torsion's annihilator round trip reads its closure witnesses. A rule
keeps its least covers, and its first stability witness on its own
category (cat is j.cat), once worked out (fincat._kept); its covers are
read-only, so what it keeps cannot go stale.

On a finite category every topology's covers at x are closed under finite
intersection and inclusion, hence form the up-set of a unique minimum
sieve. enumerate_topologies reads classify_category. On a finite directed
EI category the topologies are exactly the 2^(number of objects)
subcategory topologies J_D (the paper's classification): J_D covers x by
every sieve containing the morphisms from x into D (subcategory_sieve),
and enumerate_consistent_families lists them too. On any other category
the candidates are the up-set rules of every choice of one sieve per
object. Either way every rule is certified by check_axioms' full scan.

The sieve tables (every sieve on each object, and its pullback along
each morphism) are the category's, kept by its mask index in the sieves
module, so the enumeration, check_axioms, saturate_rule and the named
rules read one set; the stability scan pulls back only the covers.
"""

from __future__ import annotations

import itertools
import json
import math
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    FinsiteError,
    NotDirectedEI,
    OreConditionFails,
    Record,
    SizeBudgetExceeded,
    StabilityFails,
    UnknownObject,
    parsing,
)
from .fincat import FiniteCategory, OrbitData, _kept, classify_category
from .sieves import (
    Sieve,
    _mask_index,
    all_sieves,
    generated_sieve,
    make_sieve,
    maximal_sieve,
    pullback_sieve,
    sieve_sort_key,
)

# The candidate rules enumerate_topologies may build and certify: 2^n J_D
# on a directed EI category, the product of the sieve counts elsewhere.
# 8,192 admits chain13 (about 4 s) and refuses chain14 at once.
DEFAULT_ENUM_BUDGET = 8192


class _Covers(dict):
    """A dict that refuses writes, and copies and pickles as a new one."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a cover rule's covers are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Covers, (dict(self),)


class GrothendieckTopology(Record):
    """A cover rule, with its covers copied read-only; certified as a
    topology only by check_axioms."""

    cat: FiniteCategory
    covers: Mapping[str, frozenset[Sieve]]

    def __init__(self, cat: FiniteCategory, covers: Mapping) -> None:
        object.__setattr__(self, "cat", cat)
        object.__setattr__(self, "covers", _Covers(covers))

    def covers_at(self, x: str) -> list[Sieve]:
        if x not in self.covers:
            raise UnknownObject(x)
        return sorted(self.covers[x], key=sieve_sort_key)

    def least_covers(self, x: str) -> list[Sieve]:
        """The covers at x with no smaller cover inside them, in covers_at
        order, kept on the rule; for a topology, the one minimum cover."""
        kept = _kept(self, "_least_covers", lambda j: {})
        if x not in kept:
            least: list[tuple[Sieve, frozenset[str]]] = []
            for s in self.covers_at(x):  # every proper subsieve first
                members = s.member_set
                if not any(u <= members for _, u in least):
                    least.append((s, members))
            kept[x] = [s for s, _ in least]
        return list(kept[x])

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
    """Read a topology document {covers: {object: [[member ids]]}} on cat.
    A document that does not parse raises Malformed (errors.parsing); that
    covers reading it only. Making its sieves and rule comes after, so their
    refusals (UnknownObject, InvalidSieve, WrongDomain) are raised as they
    are, and a builtin error there is a bug and propagates."""
    with parsing("topology"):
        members = {str(x): [[str(m) for m in mem] for mem in sieve_lists]
                   for x, sieve_lists in doc["covers"].items()}
    return make_rule(cat, {x: [make_sieve(cat, x, mem) for mem in lists]
                           for x, lists in members.items()})


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


def _cover_masks(cat: FiniteCategory, j: GrothendieckTopology
                 ) -> dict[str, list[tuple[Sieve, int]]]:
    """Per object, the covers in canonical order, each with its mask. A
    cover that is no sieve on its object raises WrongDomain or
    InvalidSieve."""
    index = _mask_index(cat)
    return {x: [(s, index.closed_mask(x, s))
                for s in sorted(j.covers.get(x, ()), key=sieve_sort_key)]
            for x in cat.objects}


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
    universes = {x: _mask_index(cat).universe(x) for x in cat.objects}
    covers = _cover_masks(cat, j)
    cov = {x: {m for _, m in pairs} for x, pairs in covers.items()}
    cod = cat.cod
    found: dict[str, list[tuple]] = {
        "maximal": [],
        "stability": list(_stability_violations(cat, covers, cov)),
        "transitivity": [], "inclusion": [], "intersection": []}
    for x in cat.objects:
        pairs, jx = covers[x], cov[x]
        outs = cat.out_of[x]
        if (1 << len(outs)) - 1 not in jx:
            found["maximal"].append((x,))
        masks, sieves, pulls = universes[x]
        for t, ts in zip(masks, sieves):
            if t in jx:
                continue
            # the members f of x whose pullback f*(T) is a cover
            good = 0
            for i, f in enumerate(outs):
                if pulls[i][t] in cov[cod[f]]:
                    good |= 1 << i
            found["transitivity"].extend(
                (x, s.members, ts.members) for s, m in pairs if not m & ~good)
        found["inclusion"].extend(
            (x, s.members, ts.members) for s, m in pairs
            for t, ts in zip(masks, sieves)
            if not m & ~t and t not in jx)
        found["intersection"].extend(
            (x, s.members, t.members)
            for (s, a), (t, b) in itertools.combinations(pairs, 2)
            if a & b not in jx)
    return AxiomReport(
        not found["maximal"], not found["stability"],
        not found["transitivity"], not found["inclusion"],
        not found["intersection"],
        {kind: tuple(w) for kind, w in found.items() if w})


def _stability_violations(cat: FiniteCategory, covers, cov):
    """Every stability violation (x, sieve members, f), in order; stability
    quantifies over every morphism out of x, not only the sieve's members.
    covers[x] lists (Sieve, mask) in canonical order and cov[x] is the set
    of their masks. Only the covers are pulled back (_Index.pull)."""
    pull = _mask_index(cat).pull
    for x in cat.objects:
        for s, m in covers[x]:
            for f in cat.out_of[x]:
                if pull(f, m) not in cov[cat.cod[f]]:
                    yield (x, s.members, f)


def check_stability_only(cat: FiniteCategory,
                         j: GrothendieckTopology) -> tuple | None:
    """First stability violation (x, sieve members, f), or None. Only the
    covers are pulled back; no sieve universe is built. Kept on j for
    cat j.cat; any other category is scanned afresh."""
    if cat is not j.cat:
        return _stability_scan(cat, j)
    return _kept(j, "_stability_witness", lambda j: _stability_scan(cat, j))


def _stability_scan(cat: FiniteCategory, j: GrothendieckTopology):
    covers = _cover_masks(cat, j)
    cov = {x: {m for _, m in pairs} for x, pairs in covers.items()}
    return next(_stability_violations(cat, covers, cov), None)


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
        # S is dense when f*(S) is nonempty, i.e. S meets principal(f),
        # for every f out of x
        index = _mask_index(cat)
        return make_rule(cat, {
            x: [s for m, s in zip(*index.universe(x)[:2])
                if all(m & index.principal[f] for f in cat.out_of[x])]
            for x in cat.objects})
    if kind == "atomic":
        # the Ore condition: every two morphisms out of one object complete
        # to a commuting square
        outs, cod = cat.out_of, cat.cod
        if not all(any(cat.compose(fp, f) == cat.compose(gp, g)
                       for fp in outs[cod[f]] for gp in outs[cod[g]]
                       if cod[fp] == cod[gp])
                   for x in cat.objects for f in outs[x] for g in outs[x]):
            raise OreConditionFails(
                "atomic topology needs every cospan to complete to a square")
        return make_rule(cat, {x: [s for s in all_sieves(cat, x) if s.members]
                               for x in cat.objects})
    raise ValueError(f"unknown named topology {kind!r}")


# ---------------------------------------------------------------------------
# enumeration

def enumerate_topologies(cat: FiniteCategory) -> list[GrothendieckTopology]:
    """All Grothendieck topologies, sorted by total cover count then by
    canonical serialization.

    A topology is the up-set rule of one minimum sieve per object, and
    classify_category picks the candidates: on a directed EI category the
    2^n subcategory topologies J_D (the paper's classification), elsewhere
    the up-set rule of every choice of one sieve per object.
    DEFAULT_ENUM_BUDGET, read at each call, bounds the candidate count
    before any rule is built. check_axioms certifies every candidate; it
    drops a rule of the product, but a J_D it rejects is a library bug and
    raises FinsiteError.
    """
    flags = classify_category(cat)
    directed_ei = flags.directed and flags.ei
    index = _mask_index(cat)
    if directed_ei:
        count = 1 << len(cat.objects)
    else:
        count = math.prod(len(index.universe(x)[0]) for x in cat.objects)
    if count > DEFAULT_ENUM_BUDGET:
        raise SizeBudgetExceeded(
            f"{count} candidate rules exceed budget {DEFAULT_ENUM_BUDGET}")
    if directed_ei:
        rules = _subcategory_topologies(cat)
        if not all(check_axioms(cat, j).is_topology for j in rules):
            raise FinsiteError(
                f"check_axioms rejects a subcategory topology on {cat.name}")
        return rules
    choices = itertools.product(*([_upset(index, x, m) for m in
                                   index.universe(x)[0]] for x in cat.objects))
    found = [j for j in (make_rule(cat, dict(zip(cat.objects, c)))
                         for c in choices) if check_axioms(cat, j).is_topology]
    found.sort(key=topology_sort_key)
    return found


def _upset(index, x: str, low: int) -> frozenset[Sieve]:
    """The sieves on x that contain the sieve of mask low."""
    masks, sieves, _ = index.universe(x)
    return frozenset([s for m, s in zip(masks, sieves) if not low & ~m])


def subcategory_sieve(cat: FiniteCategory, objs: Iterable[str],
                      x: str) -> Sieve:
    """J_D's minimum cover at x, for D = objs: the sieve generated by every
    morphism from x into D. It is maximal when x is in D, and J_D is a
    topology on any category."""
    d = set(objs)
    unknown = d - cat.identity.keys()
    if unknown:
        raise UnknownObject(min(unknown))
    return generated_sieve(cat, x, [f for f in cat.morphisms_from(x)
                                    if cat.cod[f] in d])


def enumerate_consistent_families(cat: FiniteCategory
                                  ) -> list[GrothendieckTopology]:
    """The topologies of a directed EI category: J_D for every object set D
    (isomorphism classes are single objects there), sorted like
    enumerate_topologies. Raises NotDirectedEI on any other category.
    """
    flags = classify_category(cat)
    if not (flags.directed and flags.ei):
        raise NotDirectedEI(f"{cat.name} is not directed EI")
    return _subcategory_topologies(cat)


def _subcategory_topologies(cat: FiniteCategory
                            ) -> list[GrothendieckTopology]:
    """J_D for every object set D, sorted like enumerate_topologies. The
    k-th D holds the objects at the set bits of k. J_D's minimum cover is
    the union of those of J_{d}, d in D, built from D less its lowest
    object, so subcategory_sieve runs once per (x, d)."""
    index = _mask_index(cat)
    objs = cat.objects
    single = [[index.mask(x, subcategory_sieve(cat, (d,), x)) for x in objs]
              for d in objs]
    lows = [[0] * len(objs)]
    for k in range(1, 1 << len(objs)):
        lows.append([a | b for a, b in zip(
            lows[k & (k - 1)], single[(k & -k).bit_length() - 1])])
    ups = [{m: _upset(index, x, m) for m in {low[i] for low in lows}}
           for i, x in enumerate(objs)]
    out = [make_rule(cat, {x: up[m] for x, up, m in zip(objs, ups, low)})
           for low in lows]
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
    minimal_covers: Mapping[str, Sieve] | None
    failures: tuple = ()


def minimal_covering_sieve(cat: FiniteCategory, j: GrothendieckTopology,
                           x: str) -> Sieve:
    """Intersection of all covers of x; for a verified topology on a finite
    category this is itself a cover (finite intersection closure)."""
    covers = j.covers_at(x)
    if not covers:
        raise UnknownObject(f"no covers recorded at {x}")
    index = _mask_index(cat)
    m = -1
    for s in covers:
        m &= index.mask(x, s)
    return index.sieve(x, m)


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
                          minimal_covers=minimal, failures=tuple(failures))


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
