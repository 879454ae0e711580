"""Finite categories as explicit composition tables.

A category here is a finite set of object ids, a finite set of morphism ids
with domain and codomain, an identity morphism per object, and a total
composition table for every composable pair. Composition is read right to
left: compose(g, f) is "g after f".

Convention used throughout the package: representations are covariant
functors on the stored category, and a sieve on an object x is a left ideal
of morphisms with domain x (closed under postcomposition). This inverts the
variance of many sheaf-theory texts, where sieves point into an object; in
particular the orbit-category builder stores the OPPOSITE of the usual orbit
category, so that a stored arrow out of G/H corresponds to an equivariant map
G/H' -> G/H. Document readers: an arrow of the stored orbit category from
G/H to G/K exists iff K is subconjugate to H.

Every category, stock or document, is fully validated when it is made
(make_category), associativity on every composable triple included. The
check works on morphism positions and decides all triples through a
composable pair with one tuple comparison (_collect_violations), so it
costs about as much as building the composition table.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import (
    BAD_COMPOSITE,
    DANGLING_ENDPOINT,
    DUPLICATE_ID,
    MISSING_COMPOSITE,
    MISSING_IDENTITY,
    NON_ASSOCIATIVE,
    CyclicQuiver,
    NotAGroupTable,
    NotAPoset,
    NotFullSubcategory,
    Record,
    SizeBudgetExceeded,
    UnknownObject,
    ValidationFailed,
    Violation,
    parsing,
)

DEFAULT_MAX_OBJECTS = 64
DEFAULT_MAX_MORPHISMS = 4096
# composable triples (h, g, f), all of which the associativity check
# covers; admits trunc_fi(5) (6,061,413 triples) and trunc_vi(2, 3)
# (6,229,165). The check compares a pair's triples at once, in C, but
# their count still bounds its work, so the budget counts triples.
_MAX_TRIPLES = 2 ** 23


class SizeBudget(Record):
    """Caps on a category, checked before its composition is built or
    validated: objects, morphisms, and composable triples (h, g, f), whose
    cap is _MAX_TRIPLES for every budget."""

    max_objects: int = DEFAULT_MAX_OBJECTS
    max_morphisms: int = DEFAULT_MAX_MORPHISMS

    def check(self, n_objects: int, n_morphisms: int, n_triples: int) -> None:
        if n_objects > self.max_objects:
            raise SizeBudgetExceeded(
                f"{n_objects} objects exceeds budget {self.max_objects}")
        if n_morphisms > self.max_morphisms:
            raise SizeBudgetExceeded(
                f"{n_morphisms} morphisms exceeds budget {self.max_morphisms}")
        if n_triples > _MAX_TRIPLES:
            raise SizeBudgetExceeded(
                f"{n_triples} composable triples exceeds budget"
                f" {_MAX_TRIPLES}")


DEFAULT_BUDGET = SizeBudget()


class FiniteCategory(Record):
    """Validated finite category. Instances are immutable; treat the mapping
    fields as read-only."""

    name: str
    objects: tuple[str, ...]
    dom: Mapping[str, str]
    cod: Mapping[str, str]
    identity: Mapping[str, str]
    compose_table: Mapping[tuple[str, str], str]
    # indexes derived from the fields above; equality ignores them
    morphisms: tuple[str, ...] = ()
    hom_sets: Mapping[tuple[str, str], tuple[str, ...]] = None
    out_of: Mapping[str, tuple[str, ...]] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return other is self or (
            self.objects == other.objects and self.dom == other.dom
            and self.cod == other.cod and self.identity == other.identity
            and self.compose_table == other.compose_table)

    __hash__ = None

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        return self.compose_table[(g, f)]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_sets.get((x, y), ())

    def morphisms_from(self, x: str) -> tuple[str, ...]:
        if x not in self.identity:
            raise UnknownObject(x)
        return self.out_of.get(x, ())

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.dom[m]) == m


def _kept(cat: FiniteCategory, name: str,
          build: Callable[[FiniteCategory], Any]) -> Any:
    """build(cat), made on the first call and kept on the instance under
    name. It is no field of the record, so repr, equality, pickling and
    documents never see it."""
    try:
        return getattr(cat, name)
    except AttributeError:
        value = build(cat)
        object.__setattr__(cat, name, value)
        return value


def _index(name, objects, dom, cod, identity, compose) -> FiniteCategory:
    morphisms = tuple(sorted(dom))
    hom_sets: dict[tuple[str, str], list[str]] = {}
    out_of: dict[str, list[str]] = {o: [] for o in objects}
    for m in morphisms:
        hom_sets.setdefault((dom[m], cod[m]), []).append(m)
        out_of[dom[m]].append(m)
    return FiniteCategory(
        name=name,
        objects=tuple(objects),
        dom=dict(dom),
        cod=dict(cod),
        identity=dict(identity),
        compose_table=dict(compose),
        morphisms=morphisms,
        hom_sets={k: tuple(v) for k, v in hom_sets.items()},
        out_of={k: tuple(v) for k, v in out_of.items()},
    )


def _collect_violations(objects, dom, cod, identity, compose,
                        morphism_order) -> list[Violation]:
    """Every violation of the category axioms, in a fixed order: endpoints
    and identities, then the composites (unknown, not composable, wrong
    endpoints, missing), then the unit laws and associativity.

    Associativity is checked once per composable pair (g, f), on morphism
    positions. With f fixed, y -> y f is a map from the morphisms out of
    cod f to positions, read off one row; so (h g) f for every h out of
    cod g is that row taken at the places of the h g, and h (g f) for every
    h is the row of g f. One comparison of the two tuples, made in C,
    decides the law for every triple (h, g, f) through the pair; only a
    pair that fails is walked again per h, for its witnesses.
    """
    violations: list[Violation] = []
    obj_set = set(objects)
    for m in morphism_order:
        if dom[m] not in obj_set or cod[m] not in obj_set:
            violations.append(Violation(DANGLING_ENDPOINT, (m, dom[m], cod[m])))
    for o in objects:
        i = identity.get(o)
        if i is None or i not in dom or dom[i] != o or cod[i] != o:
            violations.append(Violation(MISSING_IDENTITY, (o, i)))
    if violations:
        return violations

    mor_set = set(morphism_order)
    for (g, f), gf in compose.items():
        if g not in mor_set or f not in mor_set or gf not in mor_set:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "unknown id"))
            continue
        if cod[f] != dom[g]:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "pair not composable"))
        elif dom[gf] != dom[f] or cod[gf] != cod[g]:
            violations.append(Violation(BAD_COMPOSITE, (g, f, gf), "endpoints of composite"))
    by_dom: dict[str, list[str]] = {}
    for m in morphism_order:
        by_dom.setdefault(dom[m], []).append(m)
    for f in morphism_order:
        for g in by_dom.get(cod[f], ()):
            if (g, f) not in compose:
                violations.append(Violation(MISSING_COMPOSITE, (g, f)))
    if violations:
        return violations

    for f in morphism_order:
        if compose[(identity[cod[f]], f)] != f:
            violations.append(Violation(MISSING_IDENTITY, (cod[f], f), "left unit law"))
        if compose[(f, identity[dom[f]])] != f:
            violations.append(Violation(MISSING_IDENTITY, (dom[f], f), "right unit law"))

    # every morphism by its position in morphism_order; for the morphism at
    # position x, post[x] lists the positions of h x for h out of cod x,
    # in by_dom order, and places[x] the places of those same h x in
    # by_dom[dom x]
    pos = {m: i for i, m in enumerate(morphism_order)}
    place = {m: i for ms in by_dom.values() for i, m in enumerate(ms)}
    post: list[tuple[int, ...]] = []
    places: list[tuple[int, ...]] = []
    for x in morphism_order:
        after = [compose[(h, x)] for h in by_dom[cod[x]]]
        post.append(tuple(map(pos.__getitem__, after)))
        places.append(tuple(map(place.__getitem__, after)))
    # itemgetter returns a lone item bare, so a one-entry row is compared bare
    pick = [itemgetter(*p) for p in places]
    row = [p if len(p) > 1 else p[0] for p in post]
    out_pos = {y: [pos[m] for m in ms] for y, ms in by_dom.items()}
    for fi, f in enumerate(morphism_order):
        pf = post[fi]  # the row of y f, y out of cod f
        for gi, gf in zip(out_pos[cod[f]], pf):
            # (h g) f sits at pf[place of h g]: one comparison for every h
            if row[gf] != pick[gi](pf):
                g = morphism_order[gi]
                for h, hgf, j in zip(by_dom[cod[g]], post[gf], places[gi]):
                    if hgf != pf[j]:
                        violations.append(Violation(NON_ASSOCIATIVE, (h, g, f)))
    return violations


def _composable_triples(hom_sizes: Mapping[tuple[Any, Any], int]) -> int:
    """The composable triples (h, g, f) of a category with hom_sizes[x, y]
    morphisms x -> y: the sum over f of the pairs (h, g) with g out of
    cod f."""
    out: Counter = Counter()
    for (x, _), n in hom_sizes.items():
        out[x] += n
    pairs: Counter = Counter()
    for (x, y), n in hom_sizes.items():
        pairs[x] += n * out[y]
    return sum(n * pairs[y] for (_, y), n in hom_sizes.items())


def make_category(name: str, objects: Sequence[str],
                  morphisms: Sequence[tuple[str, str, str]],
                  identity: Mapping[str, str],
                  compose: Mapping[tuple[str, str], str],
                  budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Build and fully validate a category from raw parts.

    `morphisms` lists (id, dom, cod) triples; `compose` must be total on
    composable pairs. Raises ValidationFailed with every violation found.
    The budget is checked first, on the counts of the lists.
    """
    budget.check(len(objects), len(morphisms), _composable_triples(
        Counter((d, c) for _, d, c in morphisms)))
    violations: list[Violation] = []
    if len(set(objects)) != len(objects):
        seen = set()
        for o in objects:
            if o in seen:
                violations.append(Violation(DUPLICATE_ID, (o,), "object"))
            seen.add(o)
    ids = [m[0] for m in morphisms]
    if len(set(ids)) != len(ids):
        seen = set()
        for m in ids:
            if m in seen:
                violations.append(Violation(DUPLICATE_ID, (m,), "morphism"))
            seen.add(m)
    if violations:
        raise ValidationFailed(name, violations)
    dom = {m: d for m, d, _ in morphisms}
    cod = {m: c for m, _, c in morphisms}
    violations = _collect_violations(objects, dom, cod, identity, compose, ids)
    if violations:
        raise ValidationFailed(name, violations)
    return _index(name, objects, dom, cod, identity, compose)


# ---------------------------------------------------------------------------
# documents

def category_to_doc(cat: FiniteCategory) -> dict:
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [{"id": m, "dom": cat.dom[m], "cod": cat.cod[m]}
                      for m in cat.morphisms],
        "identities": {o: cat.identity[o] for o in cat.objects},
        "compose": sorted([g, f, gf] for (g, f), gf in cat.compose_table.items()),
    }


def validate_category(doc: Mapping[str, Any],
                      budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Validate a raw category document and return the category.

    Raises ValidationFailed listing every violation (missing identities,
    dangling endpoints, duplicate ids, missing or wrong composites,
    associativity failures), each with the offending ids as witness. A
    document that does not parse raises Malformed (errors.parsing); that
    covers reading it only, so an error raised while checking the category
    is a bug and propagates.
    """
    with parsing("category"):
        objects = [str(o) for o in doc["objects"]]
        morphisms = [(str(m["id"]), str(m["dom"]), str(m["cod"]))
                     for m in doc["morphisms"]]
        identity = {str(k): str(v) for k, v in doc["identities"].items()}
        compose = {(str(g), str(f)): str(gf) for g, f, gf in doc["compose"]}
        name = str(doc.get("name", "category"))
    return make_category(name, objects, morphisms, identity, compose, budget)


# ---------------------------------------------------------------------------
# classification

class CategoryFlags(Record):
    directed: bool
    ei: bool


def _is_invertible(cat: FiniteCategory, f: str) -> bool:
    x, y = cat.dom[f], cat.cod[f]
    for g in cat.hom(y, x):
        if cat.compose(g, f) == cat.identity[x] and cat.compose(f, g) == cat.identity[y]:
            return True
    return False


def classify_category(cat: FiniteCategory) -> CategoryFlags:
    """The two structural flags the classification needs, by brute force.

    directed: hom-nonemptiness is a partial order (antisymmetry; reflexivity
    and transitivity come from identities and composition). ei: every
    endomorphism is invertible.
    """
    directed = not any(x != y and cat.hom(x, y) and cat.hom(y, x)
                       for x in cat.objects for y in cat.objects)
    ei = all(_is_invertible(cat, f)
             for x in cat.objects for f in cat.hom(x, x))
    return CategoryFlags(directed, ei)


# ---------------------------------------------------------------------------
# full subcategories

def full_subcategory(cat: FiniteCategory,
                     objs: Iterable[str]) -> FiniteCategory:
    """The full subcategory on objs, in the order given. Built once per
    object tuple and kept on cat (_kept), so the modules kept on it are
    kept too; later calls return the same category."""
    objs = tuple(dict.fromkeys(objs))
    built = _kept(cat, "_full_subcategories", lambda cat: {})
    sub = built.get(objs)
    if sub is None:
        for o in objs:
            if o not in cat.identity:
                raise UnknownObject(o)
        keep = set(objs)
        morphisms = [(m, cat.dom[m], cat.cod[m]) for m in cat.morphisms
                     if cat.dom[m] in keep and cat.cod[m] in keep]
        mor_ids = {m for m, _, _ in morphisms}
        compose = {pair: gf for pair, gf in cat.compose_table.items()
                   if pair[0] in mor_ids and pair[1] in mor_ids}
        identity = {o: cat.identity[o] for o in objs}
        sub = built[objs] = make_category(f"{cat.name}|{','.join(objs)}",
                                          objs, morphisms, identity, compose)
    return sub


def is_full_subcategory(cat: FiniteCategory, sub: FiniteCategory) -> bool:
    """Whether sub equals the full subcategory of cat on its objects
    (equality ignores names)."""
    if not set(sub.objects) <= set(cat.objects):
        return False
    return full_subcategory(cat, sub.objects) == sub


def require_full_subcategory(cat: FiniteCategory, sub: FiniteCategory) -> None:
    if not is_full_subcategory(cat, sub):
        raise NotFullSubcategory(
            f"{sub.name} is not a full subcategory of {cat.name}")


# ---------------------------------------------------------------------------
# group utilities (for one-object categories and orbit categories)

def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_group_table(n: int) -> list[list[int]]:
    """Multiplication table of Sym(n); element 0 is the identity.
    table[i][j] is "permutation i after permutation j"."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[k]] for k in range(n))])
        table.append(row)
    return table


def _check_group_table(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    if any(len(row) != n for row in table):
        raise NotAGroupTable("table is not square")
    elems = set(range(n))
    if any(set(row) != elems for row in table):
        raise NotAGroupTable("rows are not permutations")
    if any({table[i][j] for i in range(n)} != elems for j in range(n)):
        raise NotAGroupTable("columns are not permutations")
    e = next((i for i in range(n)
              if all(table[i][j] == j and table[j][i] == j for j in range(n))), None)
    if e != 0:
        raise NotAGroupTable("element 0 must be the identity")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroupTable(f"associativity fails at {(i, j, k)}")
    for i in range(n):
        if not any(table[i][j] == 0 and table[j][i] == 0 for j in range(n)):
            raise NotAGroupTable(f"element {i} has no inverse")


def group_inverse(table: Sequence[Sequence[int]], g: int) -> int:
    n = len(table)
    for h in range(n):
        if table[g][h] == 0 and table[h][g] == 0:
            return h
    raise NotAGroupTable(f"element {g} has no inverse")


def all_subgroups(table: Sequence[Sequence[int]]) -> list[frozenset[int]]:
    """Every subgroup, generated bottom-up by joining cyclic subgroups."""
    n = len(table)

    def generated(gens: frozenset[int]) -> frozenset[int]:
        elems = set(gens) | {0}
        frontier = list(elems)
        while frontier:
            a = frontier.pop()
            for b in list(elems):
                for c in (table[a][b], table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        frontier.append(c)
        return frozenset(elems)

    subgroups = {generated(frozenset([g])) for g in range(n)}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(subgroups), 2):
            j = generated(a | b)
            if j not in subgroups:
                subgroups.add(j)
                changed = True
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def conjugate_subgroup(table: Sequence[Sequence[int]], h: frozenset[int],
                       g: int) -> frozenset[int]:
    gi = group_inverse(table, g)
    return frozenset(table[table[g][x]][gi] for x in h)


class OrbitData(Record):
    """Side data of an orbit-category build: the subgroup order per object."""

    order_of: Mapping[str, int]


def build_orbit_category(group_table: Sequence[Sequence[int]],
                         subgroups: Iterable[Iterable[int]] | None = None,
                         name: str = "orbit",
                         budget: SizeBudget = DEFAULT_BUDGET,
                         ) -> tuple[FiniteCategory, OrbitData]:
    """Skeletal orbit category of a finite group, stored in the variance this
    package uses: an arrow from G/H to G/K exists iff K is subconjugate to H,
    and corresponds to the equivariant map G/K -> G/H given by a coset gH
    with g^-1 K g contained in H. Composition of stored arrows
    u: G/H -> G/K (coset aH) and v: G/K -> G/L (coset bK) is the arrow
    G/H -> G/L with coset (b*a)H.
    """
    _check_group_table(group_table)
    table = [list(r) for r in group_table]
    n = len(table)
    if subgroups is None:
        subs = all_subgroups(table)
    else:
        subs = []
        for s in subgroups:
            s = frozenset(int(x) for x in s)
            if 0 not in s or any(table[a][group_inverse(table, b)] not in s
                                 for a in s for b in s):
                raise NotAGroupTable(f"{sorted(s)} is not a subgroup")
            subs.append(s)
        subs = sorted(set(subs), key=lambda s: (len(s), sorted(s)))

    # conjugacy classes, canonical representative = least sorted tuple
    classes: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for h in subs:
        if h in seen:
            continue
        orbit = {conjugate_subgroup(table, h, g) for g in range(n)}
        orbit &= set(subs)
        seen |= orbit
        classes.append(min(orbit, key=lambda s: sorted(s)))
    classes.sort(key=lambda s: (len(s), sorted(s)))

    by_order: dict[int, int] = {}
    obj_of: dict[frozenset[int], str] = {}
    for h in classes:
        k = by_order.get(len(h), 0)
        by_order[len(h)] = k + 1
        suffix = "" if by_order[len(h)] == 1 else f"_{k + 1}"
        obj_of[h] = f"G/H{len(h)}{suffix}"
    objects = [obj_of[h] for h in classes]

    def cosets_mapping(k: frozenset[int], h: frozenset[int]) -> list[int]:
        """Canonical reps g (min of coset gH) with g^-1 K g contained in H:
        the equivariant maps G/K -> G/H."""
        reps = []
        seen_cosets: set[frozenset[int]] = set()
        for g in range(n):
            coset = frozenset(table[g][x] for x in h)
            if coset in seen_cosets:
                continue
            seen_cosets.add(coset)
            gi = group_inverse(table, g)
            if all(table[table[gi][x]][g] in h for x in k):
                reps.append(min(coset))
        return sorted(reps)

    # stored arrow G/H -> G/K: one per equivariant map G/K -> G/H
    morphisms: list[tuple[str, str, str]] = []
    rep_of: dict[tuple[str, str, int], str] = {}
    arrows: dict[tuple[str, str], list[int]] = {}
    for h in classes:
        for k in classes:
            reps = cosets_mapping(k, h)
            if not reps:
                continue
            arrows[(obj_of[h], obj_of[k])] = reps
            for g in reps:
                mid = f"[{obj_of[h]}>{obj_of[k]}]g{g}"
                morphisms.append((mid, obj_of[h], obj_of[k]))
                rep_of[(obj_of[h], obj_of[k], g)] = mid
    budget.check(len(objects), len(morphisms), _composable_triples(
        Counter((d, c) for _, d, c in morphisms)))

    def coset_min(g: int, h: frozenset[int]) -> int:
        return min(table[g][x] for x in h)

    sub_of_obj = {obj_of[h]: h for h in classes}
    compose: dict[tuple[str, str], str] = {}
    for (x, y), reps_u in arrows.items():
        hx = sub_of_obj[x]
        for (y2, z), reps_v in arrows.items():
            if y2 != y:
                continue
            for a in reps_u:          # u: x -> y, map G/K_y -> G/H_x, coset a*Hx
                for b in reps_v:      # v: y -> z, map G/L_z -> G/K_y, coset b*Ky
                    c = coset_min(table[b][a], hx)
                    u = rep_of[(x, y, a)]
                    v = rep_of[(y, z, b)]
                    compose[(v, u)] = rep_of[(x, z, c)]

    identity = {obj_of[h]: rep_of[(obj_of[h], obj_of[h], coset_min(0, h))]
                for h in classes}
    cat = make_category(name, objects, morphisms, identity, compose, budget)
    return cat, OrbitData({o: len(s) for o, s in sub_of_obj.items()})


# ---------------------------------------------------------------------------
# standard builders

def build_poset_category(objects: Sequence[str],
                         leq_pairs: Iterable[tuple[str, str]],
                         name: str = "poset",
                         budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Category of a poset: one morphism x -> y whenever x <= y in the
    reflexive-transitive closure of the given pairs. The object budget is
    checked before the closure, whose size grows with the square of the
    object count."""
    objects = list(objects)
    budget.check(len(objects), 0, 0)
    obj_set = set(objects)
    reach: dict[str, set[str]] = {o: {o} for o in objects}
    for a, b in leq_pairs:
        if a not in obj_set or b not in obj_set:
            raise UnknownObject(f"{a} <= {b}")
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in objects:
            for b in list(reach[a]):
                if not reach[b] <= reach[a]:
                    reach[a] |= reach[b]
                    changed = True
    for a in objects:
        for b in reach[a]:
            if a != b and a in reach[b]:
                raise NotAPoset(f"{a} and {b} are comparable both ways")

    def mid(a: str, b: str) -> str:
        return f"1_{a}" if a == b else f"{a}->{b}"

    morphisms = [(mid(a, b), a, b) for a in objects for b in sorted(reach[a])]
    identity = {o: mid(o, o) for o in objects}
    compose = {}
    for a in objects:
        for b in reach[a]:
            for c in reach[b]:
                compose[(mid(b, c), mid(a, b))] = mid(a, c)
    return make_category(name, objects, morphisms, identity, compose, budget)


def build_quiver_category(vertices: Sequence[str],
                          arrows: Iterable[tuple[str, str, str]],
                          name: str = "quiver",
                          budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Free category on an acyclic quiver. Arrows are (id, source, target);
    morphisms are paths, identities are the empty paths. A path composed of
    arrows a then b is named "b.a"."""
    vertices = list(vertices)
    vset = set(vertices)
    arrows = list(arrows)
    for aid, s, t in arrows:
        if s not in vset or t not in vset:
            raise UnknownObject(f"arrow {aid}: {s} -> {t}")

    out: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for aid, s, t in arrows:
        out[s].append((aid, t))

    # paths by BFS; cycle <=> path count exceeds a safe cap or revisit growth
    paths: dict[str, tuple[tuple[str, ...], str, str]] = {}
    for v in vertices:
        paths[f"1_{v}"] = ((), v, v)
    frontier = list(paths.items())
    while frontier:
        nxt = []
        for pid, (seq, s, t) in frontier:
            for aid, t2 in out[t]:
                seq2 = seq + (aid,)
                if len(seq2) > len(arrows):
                    raise CyclicQuiver("a path repeats an arrow count bound")
                pid2 = ".".join(reversed(seq2))
                nxt.append((pid2, (seq2, s, t2)))
                paths[pid2] = (seq2, s, t2)
        frontier = nxt
        if len(paths) > budget.max_morphisms:
            raise SizeBudgetExceeded("path explosion in quiver build")

    morphisms = [(pid, s, t) for pid, (_, s, t) in sorted(paths.items())]
    identity = {v: f"1_{v}" for v in vertices}
    # the empty path exists at every vertex, so keys carry the source too
    name_of = {(s, seq): pid for pid, (seq, s, _) in paths.items()}
    compose = {}
    for pid_f, (seq_f, sf, tf) in paths.items():
        for pid_g, (seq_g, sg, tg) in paths.items():
            if sg == tf:
                compose[(pid_g, pid_f)] = name_of[(sf, seq_f + seq_g)]
    return make_category(name, vertices, morphisms, identity, compose, budget)


def _check_truncation(budget: SizeBudget, n: int,
                      hom_size: Callable[[int, int], int]) -> None:
    """Check the budget on a truncation with objects 0..n and hom_size(m, k)
    morphisms m -> k for m <= k, none for m > k, before any is built: its
    composable triples are the sum over m <= k <= l <= r of
    hom_size(m, k) hom_size(k, l) hom_size(l, r)."""
    budget.check(n + 1, 0, 0)
    sizes = {(m, k): hom_size(m, k)
             for m in range(n + 1) for k in range(m, n + 1)}
    budget.check(n + 1, sum(sizes.values()), _composable_triples(sizes))


def build_trunc_fi_category(n: int, name: str | None = None,
                            budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Truncation at n of the category of finite sets with injections:
    objects "0".."n", morphisms the injections {0..m-1} -> {0..k-1}, of
    which there are k!/(k-m)!; the budget is checked on that count, and on
    the composable triples it gives, before any is built."""
    _check_truncation(budget, n, lambda m, k: math.perm(k, m))
    objects = [str(m) for m in range(n + 1)]

    def mid(m: int, k: int, img: tuple[int, ...]) -> str:
        return f"[{m}>{k}]({','.join(map(str, img))})"

    # each injection's name, keyed by its data (m, k, image)
    name_of: dict[tuple[int, int, tuple[int, ...]], str] = {}
    inj = []
    for m in range(n + 1):
        for k in range(m, n + 1):
            for img in itertools.permutations(range(k), m):
                i = name_of[m, k, img] = mid(m, k, img)
                inj.append((i, m, k, img))
    morphisms = [(i, str(m), str(k)) for i, m, k, _ in inj]
    identity = {str(m): name_of[m, m, tuple(range(m))] for m in range(n + 1)}
    out_of: dict[int, list] = {k: [] for k in range(n + 1)}
    for g, k, l, img_g in inj:
        out_of[k].append((g, l, img_g))
    compose = {}
    for f, m, k, img_f in inj:
        for g, l, img_g in out_of[k]:
            compose[(g, f)] = name_of[m, l, tuple(map(img_g.__getitem__, img_f))]
    return make_category(name or f"trunc_fi_{n}", objects, morphisms,
                         identity, compose, budget)


def build_trunc_vi_category(q: int, n: int, name: str | None = None,
                            budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Truncation at n of the category of F_q vector spaces with injective
    linear maps. q must be prime (the package's fields are prime fields).
    There are (q^k - 1)(q^k - q)...(q^k - q^(m-1)) injections of F_q^m into
    F_q^k; the budget is checked on their count, and on the composable
    triples it gives, before any matrix is ranked."""
    from . import linalg

    field = linalg.GF(q)
    _check_truncation(budget, n,
                      lambda m, k: math.prod(q ** k - q ** i for i in range(m)))
    objects = [str(m) for m in range(n + 1)]

    def all_matrices(rows: int, cols: int) -> list[linalg.Mat]:
        cells = list(itertools.product(range(q), repeat=rows * cols))
        return [linalg.Mat(rows, cols, tuple(tuple(c[i * cols + j] for j in range(cols))
                                             for i in range(rows)))
                for c in cells]

    def mid(m: int, k: int, a: linalg.Mat) -> str:
        flat = ",".join(str(x) for r in a.entries for x in r)
        return f"[{m}>{k}]({flat})"

    # each injection's name, keyed by its data (m, k, entries)
    name_of: dict[tuple[int, int, tuple], str] = {}
    inj = []
    for m in range(n + 1):
        for k in range(m, n + 1):
            for a in all_matrices(k, m):
                if linalg.rank(field, a) == m:
                    i = name_of[m, k, a.entries] = mid(m, k, a)
                    inj.append((i, m, k, a))
    morphisms = [(i, str(m), str(k)) for i, m, k, _ in inj]
    identity = {str(m): name_of[m, m, linalg.identity(field, m).entries]
                for m in range(n + 1)}
    out_of: dict[int, list] = {k: [] for k in range(n + 1)}
    for g, k, l, ag in inj:
        out_of[k].append((g, l, ag))
    compose = {}
    for f, m, k, af in inj:
        for g, l, ag in out_of[k]:
            compose[(g, f)] = name_of[m, l, linalg.matmul(field, ag, af).entries]
    return make_category(name or f"trunc_vi_{q}_{n}", objects, morphisms,
                         identity, compose, budget)


def build_monoid_category(table: Sequence[Sequence[int]],
                          element_names: Sequence[str] | None = None,
                          name: str = "monoid",
                          budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """One-object category from a monoid multiplication table.
    table[i][j] = i after j; element 0 must be the unit. The object is "*"."""
    n = len(table)
    if any(len(r) != n for r in table):
        raise NotAGroupTable("table is not square")
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        raise NotAGroupTable("element 0 must be the unit")
    names = list(element_names) if element_names else (
        ["1"] + [f"m{i}" for i in range(1, n)])
    if len(names) != n or len(set(names)) != n:
        raise ValidationFailed(name, [Violation(DUPLICATE_ID, tuple(names))])
    morphisms = [(names[i], "*", "*") for i in range(n)]
    compose = {(names[i], names[j]): names[table[i][j]]
               for i in range(n) for j in range(n)}
    return make_category(name, ["*"], morphisms, {"*": names[0]}, compose,
                         budget)


_GROUP_TABLES = {
    "C2": lambda: cyclic_group_table(2),
    "C3": lambda: cyclic_group_table(3),
    "C4": lambda: cyclic_group_table(4),
    "C5": lambda: cyclic_group_table(5),
    "S3": lambda: symmetric_group_table(3),
}


def build_standard_category(kind: str, params: Mapping[str, Any] | None = None,
                            budget: SizeBudget = DEFAULT_BUDGET) -> FiniteCategory:
    """Uniform entry point for the stock builders.

    kinds: poset {objects, leq}, free_acyclic_quiver {vertices, arrows},
    orbit {group: name or table, subgroups: "all" or lists}, trunc_fi {n},
    trunc_vi {q, n}. Orbit side data is dropped here; call
    build_orbit_category directly when subgroup orders are needed.
    """
    params = dict(params or {})
    name = params.pop("name", None)
    if kind == "poset":
        return build_poset_category(params["objects"],
                                    [tuple(p) for p in params.get("leq", [])],
                                    name=name or "poset", budget=budget)
    if kind == "free_acyclic_quiver":
        return build_quiver_category(params["vertices"],
                                     [tuple(a) for a in params["arrows"]],
                                     name=name or "quiver", budget=budget)
    if kind == "orbit":
        group = params["group"]
        if isinstance(group, str):
            if group not in _GROUP_TABLES:
                raise NotAGroupTable(f"unknown builtin group {group!r}")
            table = _GROUP_TABLES[group]()
        else:
            table = [list(r) for r in group]
        subgroups = params.get("subgroups", "all")
        subs = None if subgroups == "all" else subgroups
        cat, _ = build_orbit_category(table, subs,
                                      name=name or f"orbit_{group if isinstance(group, str) else 'G'}",
                                      budget=budget)
        return cat
    if kind == "trunc_fi":
        return build_trunc_fi_category(int(params["n"]), name=name, budget=budget)
    if kind == "trunc_vi":
        return build_trunc_vi_category(int(params["q"]), int(params["n"]),
                                       name=name, budget=budget)
    raise ValueError(f"unknown standard kind {kind!r}")
