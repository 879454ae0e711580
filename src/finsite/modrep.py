"""Modules over a finite category, linear over Q or a prime field.

A module V assigns a finite dimensional vector space to each object (stored
as a dimension) and a matrix V_f of shape dims(cod f) x dims(dom f) to each
morphism, acting on column vectors, with V_{id} = I and V_{gf} = V_g V_f.
Everything downstream (torsion, sheaves) reduces to exact linear algebra on
these matrices; no floating point is used anywhere.

The ground ring is always a constant field. That restriction is what makes
every Hom space, kernel, and limit in the package a finite matrix problem.

Compatible families over morphisms closed under precomposition, acted on
by reindexing (family_module, with its unit family_unit), are both ways
the package builds sheaves: coinduction from a full subcategory, for a
subcategory topology, and the plus construction over each object's
minimum cover, for any other rule.

Representables and sieve presentations are immutable values of (category,
field, object or sieve), asked for again by every detector and sampler,
so each is built once and kept on its category (fincat._kept), one entry
per (field, object) and per (field, sieve) asked for. Quotients are taken
by spans: a sampler or a cokernel hands the spanning columns to the
quotient, which never builds the submodule it discards.

Identities act as identities, so no term at an identity morphism is
computed. Once every V_id = I has passed, the functoriality check skips
the composable pairs with an identity factor (after a failed identity it
tests them all, so the violations are those of a full scan). Naturality
is not tested at identities, hom_space writes no rows for them (they are
zero), saturation pushes nothing through them, and the constructions set
V_id = I directly, from linalg.identity, which builds each identity once
per (field, size). Every module relies on this: the builders that skip
the check (check=False) act by I at every identity, and the tests keep
it so against the full scans.

Zero spaces follow linalg's rule (a matrix with a zero dimension is the
shared zero of its shape, at no arithmetic), so constructions take their
general path on them, with three skips. Once the shapes have passed, the
functoriality check (_module_violations) skips the pairs (g, f) with
dims[dom f] = 0 or dims[cod g] = 0, and the naturality check
(make_module_map) each f with a zero space at either end of its square:
such a comparison has nothing to fail. _quotient skips the objects and
morphisms of zero spaces: without that, a sheaf benchmark pass makes
about 38,000 more calls, 996 of them to rref. A term with entries that a
check reads is always computed, so an image into a zero span is refused.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import linalg
from .errors import (
    FUNCTORIALITY_VIOLATION,
    NATURALITY_VIOLATION,
    NON_IDENTITY_AT_OBJECT,
    SHAPE_VIOLATION,
    FieldMismatch,
    FinsiteError,
    InfiniteFieldUnsupported,
    NotFullSubcategory,
    PreconditionFailed,
    Record,
    ShapeMismatch,
    SizeBudgetExceeded,
    ValidationFailed,
    Violation,
    parsing,
)
from .fincat import FiniteCategory, _kept, require_full_subcategory
from .linalg import GF, QQ, FieldSpec, Mat, Vector
from .sieves import Sieve


def field_to_doc(field: FieldSpec):
    return "Q" if field.p is None else {"Fp": field.p}


def field_from_doc(doc) -> FieldSpec:
    if doc == "Q":
        return QQ
    if isinstance(doc, Mapping) and set(doc) == {"Fp"}:
        return GF(int(doc["Fp"]))
    raise ValidationFailed("field", [Violation(SHAPE_VIOLATION, (doc,),
                                               'expected "Q" or {"Fp": p}')])


def parse_field_label(label: str) -> FieldSpec:
    """Parse the CLI spelling: "Q" or "Fp:5"."""
    if label == "Q":
        return QQ
    if label.startswith("Fp:"):
        return GF(int(label[3:]))
    raise ValueError(f"unknown field {label!r}; use Q or Fp:P")


class KModule(Record):
    """A functor from the category to finite dimensional vector spaces."""

    field: FieldSpec
    cat: FiniteCategory
    dims: Mapping[str, int]
    action: Mapping[str, Mat]

    def __repr__(self) -> str:
        dims = ", ".join(f"{x}:{self.dims[x]}" for x in self.cat.objects)
        return f"KModule({self.field.label()}; {dims})"

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def apply(self, f: str, v: Vector) -> Vector:
        return linalg.mat_vec(self.field, self.action[f], v)


def _non_identities(cat: FiniteCategory) -> tuple[str, ...]:
    """The morphisms of cat that are not identities, in order; kept on cat
    (fincat._kept)."""
    def build(cat: FiniteCategory) -> tuple[str, ...]:
        return tuple(m for m in cat.morphisms if not cat.is_identity(m))
    return _kept(cat, "_modrep_non_identities", build)


def _non_identity_pairs(cat: FiniteCategory) -> tuple[tuple[str, str, str], ...]:
    """(g, f, g f) for the composable pairs of cat where neither g nor f is
    an identity, in compose_table's order; kept on cat."""
    def build(cat: FiniteCategory) -> tuple[tuple[str, str, str], ...]:
        ids = set(cat.identity.values())
        return tuple((g, f, gf) for (g, f), gf in cat.compose_table.items()
                     if g not in ids and f not in ids)
    return _kept(cat, "_modrep_non_identity_pairs", build)


def _module_violations(cat: FiniteCategory, field: FieldSpec,
                       dims: Mapping[str, int],
                       action: Mapping[str, Mat]) -> list[Violation]:
    violations: list[Violation] = []
    for x in cat.objects:
        if x not in dims or dims[x] < 0:
            violations.append(Violation(SHAPE_VIOLATION, (x,),
                                        "missing or negative dimension"))
    for extra in sorted(set(dims) - set(cat.objects)):
        violations.append(Violation(SHAPE_VIOLATION, (extra,), "unknown object"))
    if violations:
        return violations
    for f in cat.morphisms:
        m = action.get(f)
        if m is None:
            violations.append(Violation(SHAPE_VIOLATION, (f,), "missing matrix"))
            continue
        want = (dims[cat.cod[f]], dims[cat.dom[f]])
        if (m.rows, m.cols) != want:
            violations.append(Violation(SHAPE_VIOLATION, (f, m.rows, m.cols),
                                        f"expected {want[0]}x{want[1]}"))
    if violations:
        return violations
    # every shape now agrees, so comparing entries compares the matrices
    for x in cat.objects:
        if (action[cat.identity[x]].entries
                != linalg.identity(field, dims[x]).entries):
            violations.append(Violation(NON_IDENTITY_AT_OBJECT, (x,)))
    # with every identity acting as I, V_g V_f = V_{gf} holds whenever g or
    # f is an identity; after a failed identity every pair is tested, so
    # the list is the one a full scan gives
    pairs = (_non_identity_pairs(cat) if not violations else
             [(g, f, gf) for (g, f), gf in cat.compose_table.items()])
    cod, dom = cat.cod, cat.dom
    for g, f, gf in pairs:
        if (dims[cod[g]] and dims[dom[f]]
                and linalg.matmul(field, action[g], action[f]).entries
                != action[gf].entries):
            violations.append(Violation(FUNCTORIALITY_VIOLATION, (g, f)))
    return violations


def make_module(cat: FiniteCategory, field: FieldSpec,
                dims: Mapping[str, int], action: Mapping[str, Mat],
                check: bool = True) -> KModule:
    """Build a module, verifying shapes, identities, and functoriality.

    check=False skips verification for constructions whose invariants hold
    by construction; every public entry point leaves it on. The check sees
    dims as given, so a missing or unknown object is a violation; with
    check=False an object missing from dims gets dimension 0.
    """
    action = dict(action)
    if check:
        violations = _module_violations(cat, field, dims, action)
        if violations:
            raise ValidationFailed("module", violations)
    dims = {x: int(dims.get(x, 0)) for x in cat.objects}
    return KModule(field, cat, dims, action)


def validate_module(cat: FiniteCategory, raw: Mapping[str, Any]) -> KModule:
    """Parse and fully verify a module document.

    Document shape: {field: "Q" | {"Fp": p}, dims: {object: n},
    action: {morphism: [[entry strings]]}}. Every violation found is
    collected and reported with the witnessing ids. A document that does
    not parse raises Malformed (errors.parsing); that covers reading it
    only, so an error raised while checking the module is a bug and
    propagates.
    """
    violations: list[Violation] = []
    action: dict[str, Mat] = {}
    with parsing("module"):
        field = field_from_doc(raw["field"])
        dims = {str(x): int(n) for x, n in raw.get("dims", {}).items()}
        for f, rows in raw.get("action", {}).items():
            f = str(f)
            if f not in cat.dom:
                violations.append(Violation(SHAPE_VIOLATION, (f,),
                                            "unknown morphism"))
                continue
            shape = (dims.get(cat.cod[f], 0), dims.get(cat.dom[f], 0))
            try:
                action[f] = linalg.mat_from_strings(field, rows, shape)
            except (ShapeMismatch, ValueError, ZeroDivisionError) as exc:
                violations.append(Violation(SHAPE_VIOLATION, (f,), str(exc)))
    violations.extend(_module_violations(cat, field, dims, action))
    if violations:
        raise ValidationFailed("module", violations)
    return KModule(field=field, cat=cat,
                   dims={x: dims.get(x, 0) for x in cat.objects}, action=action)


def module_to_doc(v: KModule) -> dict:
    return {
        "field": field_to_doc(v.field),
        "dims": {x: v.dims[x] for x in v.cat.objects},
        "action": {f: linalg.mat_to_strings(v.field, v.action[f])
                   for f in v.cat.morphisms},
    }


# ---------------------------------------------------------------------------
# stock modules

def zero_module(cat: FiniteCategory, field: FieldSpec) -> KModule:
    return make_module(cat, field, {x: 0 for x in cat.objects},
                       {f: linalg.zeros(field, 0, 0) for f in cat.morphisms},
                       check=False)


def direct_sum(cat: FiniteCategory, field: FieldSpec,
               modules: Sequence[KModule]) -> KModule:
    for m in modules:
        if m.field != field:
            raise FieldMismatch(f"{m.field.label()} summand in a"
                                f" {field.label()} sum")
    dims = {x: sum(m.dims[x] for m in modules) for x in cat.objects}
    action = _identity_action(cat, field, dims)
    for f in _non_identities(cat):
        action[f] = linalg.block_diag(field, [m.action[f] for m in modules])
    return make_module(cat, field, dims, action, check=False)


def _identity_action(cat: FiniteCategory, field: FieldSpec,
                     dims: Mapping[str, int]) -> dict[str, Mat]:
    """The identity matrix at each identity morphism: what every module
    with these dims assigns to them."""
    return {cat.identity[x]: linalg.identity(field, dims[x])
            for x in cat.objects}


def _relabel(field: FieldSpec, src: Sequence, dst: Sequence,
             image: Callable) -> Mat:
    """The matrix sending the basis vector labelled a in src to the one
    labelled image(a) in dst, and to 0 when dst has no such label."""
    index = {h: i for i, h in enumerate(dst)}
    zero, one = field.zero(), field.one()
    targets = [index.get(image(a)) for a in src]
    return linalg.make_mat(len(dst), len(src), tuple(
        [tuple([one if t == i else zero for t in targets])
         for i in range(len(dst))]))


def _postcomposition_module(cat: FiniteCategory, field: FieldSpec,
                            basis: Mapping[str, tuple[str, ...]]) -> KModule:
    """The module free on basis[y], a set of morphisms out of one object,
    at each y; u acts by f -> u f, and by 0 when u f is not a label."""
    action = {u: _relabel(field, basis[cat.dom[u]], basis[cat.cod[u]],
                          lambda f, u=u: cat.compose(u, f))
              for u in cat.morphisms}
    return make_module(cat, field, {y: len(basis[y]) for y in cat.objects},
                       action, check=False)


def _built(cat: FiniteCategory) -> dict:
    """The representables, sieve presentations and standard injectives
    built on cat, keyed by (field, object), (field, sieve) and
    (field, object, "injective"). The modules refer back to cat, so a
    category and its entries are freed together by the cycle collector."""
    return _kept(cat, "_modrep_built", lambda cat: {})


def yoneda_module(cat: FiniteCategory, field: FieldSpec, x: str) -> KModule:
    """The representable module at x: the value at y is free on Hom(x, y),
    and a morphism u acts on basis vectors by postcomposition. Built once
    per (category, field, object); later calls return the same module."""
    built = _built(cat)
    v = built.get((field, x))
    if v is None:
        if x not in cat.identity:
            raise ValidationFailed("representable", [
                Violation(SHAPE_VIOLATION, (x,), "unknown object")])
        v = built[field, x] = _postcomposition_module(
            cat, field, {y: cat.hom(x, y) for y in cat.objects})
    return v


# ---------------------------------------------------------------------------
# module maps

class ModuleMap(Record):
    """A natural transformation between modules, one matrix per object."""

    source: KModule
    target: KModule
    components: Mapping[str, Mat]

    def apply(self, x: str, v: Vector) -> Vector:
        return linalg.mat_vec(self.source.field, self.components[x], v)

    def is_zero(self) -> bool:
        return all(linalg.mat_eq_zero(m) for m in self.components.values())


def make_module_map(source: KModule, target: KModule,
                    components: Mapping[str, Mat],
                    check: bool = True) -> ModuleMap:
    if source.field != target.field:
        raise FieldMismatch("module map across different fields")
    cat = source.cat
    if check:
        field = source.field
        violations: list[Violation] = []
        for x in cat.objects:
            m = components.get(x)
            want = (target.dims[x], source.dims[x])
            if m is None or (m.rows, m.cols) != want:
                violations.append(Violation(
                    SHAPE_VIOLATION, (x,), f"component must be {want[0]}x{want[1]}"))
        if not violations:
            # at an identity both sides are the component at its object
            for f in _non_identities(cat):
                y, x = cat.cod[f], cat.dom[f]
                if not target.dims[y] or not source.dims[x]:
                    continue
                lhs = linalg.matmul(field, components[y], source.action[f])
                rhs = linalg.matmul(field, target.action[f], components[x])
                if lhs.entries != rhs.entries:
                    violations.append(Violation(NATURALITY_VIOLATION, (f,)))
        if violations:
            raise ValidationFailed("module map", violations)
    return ModuleMap(source, target, dict(components))


def compose_maps(second: ModuleMap, first: ModuleMap) -> ModuleMap:
    """second after first."""
    field = first.source.field
    comps = {x: linalg.matmul(field, second.components[x], first.components[x])
             for x in first.source.cat.objects}
    return make_module_map(first.source, second.target, comps, check=False)


def _map_layout(v: KModule, w: KModule) -> list[tuple[str, int, int, int]]:
    """(object, rows, cols, offset) for flattened map components."""
    layout = []
    off = 0
    for x in v.cat.objects:
        r, c = w.dims[x], v.dims[x]
        layout.append((x, r, c, off))
        off += r * c
    return layout


def map_to_vector(m: ModuleMap) -> Vector:
    out = []
    for x in m.source.cat.objects:
        for row in m.components[x].entries:
            out.extend(row)
    return tuple(out)


def map_from_vector(v: KModule, w: KModule, vec: Vector) -> ModuleMap:
    comps = {}
    for x, r, c, off in _map_layout(v, w):
        comps[x] = linalg.make_mat(r, c, tuple(
            tuple(vec[off + i * c + j] for j in range(c)) for i in range(r)))
    return make_module_map(v, w, comps, check=False)


# entries (equations x unknowns) of one dense naturality, compatibility or
# torsion kernel system; the largest the tier-1 tests (acceptance gates
# included) build have 4,165, 6,480 and 136 entries, and the sheaf
# benchmark's 243, 162 and 243
_HOM_SYSTEM_CAP = 250_000


def _naturality_rows(v: KModule, w: KModule) -> tuple[int, list[tuple]]:
    """Unknown count and rows of comp_y V_f - W_f comp_x = 0 over
    every morphism f: x -> y other than the identities, whose rows are
    zero, in the flattened components of a map v -> w.

    Raises SizeBudgetExceeded, before building anything, when the system
    would hold more than _HOM_SYSTEM_CAP entries, counting the identities'
    rows too.
    """
    field = v.field
    cat = v.cat
    layout = {x: (r, c, off) for x, r, c, off in _map_layout(v, w)}
    n = sum(r * c for r, c, _ in layout.values())
    equations = sum(w.dims[cat.cod[f]] * v.dims[cat.dom[f]]
                    for f in cat.morphisms)
    if equations * n > _HOM_SYSTEM_CAP:
        raise SizeBudgetExceeded(
            f"naturality system of {equations} equations in {n} unknowns"
            f" exceeds {_HOM_SYSTEM_CAP} entries")
    zero = field.zero()
    rows: list[tuple] = []
    for f in _non_identities(cat):
        x, y = cat.dom[f], cat.cod[f]
        vf, wf = v.action[f], w.action[f]
        ry, cy, offy = layout[y]
        rx, cx, offx = layout[x]
        # (comp_y . vf - wf . comp_x)[a][b] = 0
        for a in range(ry):
            for b in range(cx):
                row = [zero] * n
                for c in range(cy):
                    row[offy + a * cy + c] = vf.entries[c][b]
                for d in range(rx):
                    row[offx + d * cx + b] = field.sub(row[offx + d * cx + b],
                                                       wf.entries[a][d])
                rows.append(tuple(row))
    return n, rows


def hom_space(v: KModule, w: KModule) -> list[ModuleMap]:
    """Canonical basis of the space of module maps v -> w.

    The naturality equations over all morphisms form one linear system in
    the flattened components; the kernel basis is returned as maps. A
    system of more than _HOM_SYSTEM_CAP entries raises SizeBudgetExceeded.
    """
    if v.field != w.field:
        raise FieldMismatch("hom space across different fields")
    n, rows = _naturality_rows(v, w)
    if n == 0:
        return []
    a = linalg.make_mat(len(rows), n, tuple(rows))
    return [map_from_vector(v, w, k) for k in linalg.kernel_basis(v.field, a)]


def yoneda_maps(v: KModule, x: str) -> list[ModuleMap]:
    """Basis of the maps from the representable at x to v, by Yoneda: one
    map per basis vector e_i of v at x, sending the basis vector of
    h: x -> y to V_h e_i. Each map's naturality is checked."""
    cat = v.cat
    p = yoneda_module(cat, v.field, x)
    hom = [(y, cat.hom(x, y)) for y in cat.objects]
    return [make_module_map(p, v, {
        y: linalg.make_mat(v.dims[y], len(hs), tuple(
            tuple(v.action[h].entries[r][i] for h in hs)
            for r in range(v.dims[y])))
        for y, hs in hom}, check=True) for i in range(v.dims[x])]


# ---------------------------------------------------------------------------
# submodules and quotients

def _saturate(v: KModule, spans: Mapping[str, linalg.Echelon],
              done: dict[str, int]) -> None:
    """Add to spans[cod f] the images under f of the basis at dom f, for
    every morphism f but the identities, which fix every vector, until
    nothing new appears.

    done[f] counts the basis vectors at dom f already pushed through f;
    spans only grow, so their images need no second test. Each pass takes
    the basis at dom f as it stood when f came up, so the bases are the
    ones a full re-test of every image per pass would select.
    """
    cat = v.cat
    changed = True
    while changed:
        changed = False
        for f in _non_identities(cat):
            basis = spans[cat.dom[f]].basis
            target = spans[cat.cod[f]]
            start, done[f] = done[f], len(basis)
            for b in basis[start:done[f]]:
                if target.add(v.apply(f, b)):
                    changed = True


def submodule_from_spans(v: KModule, spans: Mapping[str, Sequence[Vector]]
                         ) -> tuple[KModule, ModuleMap]:
    """Submodule spanned by the given vectors, which must be closed under
    the action, with its inclusion. Its basis at x is the span_basis of
    the vectors at x, independent, so an identity acts by I. The solves
    are the closure check: spans not closed raise PreconditionFailed at
    the first morphism, in _non_identities order, that leaves them."""
    field = v.field
    cat = v.cat
    bases = {x: linalg.span_basis(field, spans.get(x, ()), v.dims[x])
             for x in cat.objects}
    dims = {x: len(bases[x]) for x in cat.objects}
    comps = {x: linalg.from_cols(bases[x], rows=v.dims[x])
             for x in cat.objects}
    action = _identity_action(cat, field, dims)
    for f in _non_identities(cat):
        x, y = cat.dom[f], cat.cod[f]
        action[f] = linalg.solve_matrix(
            field, comps[y], linalg.matmul(field, v.action[f], comps[x]))
        if action[f] is None:
            raise PreconditionFailed(f"spans not closed under the action at {f}")
    sub = make_module(cat, field, dims, action, check=False)
    incl = make_module_map(sub, v, comps, check=False)
    return sub, incl


def quotient_module(v: KModule,
                    sub_inclusion: ModuleMap) -> tuple[KModule, ModuleMap]:
    """Quotient of v by an included submodule, with the projection: the
    quotient by the spans of the inclusion's columns (_quotient)."""
    if sub_inclusion.target != v:
        raise PreconditionFailed("inclusion does not land in the module")
    return _quotient(v, sub_inclusion.components)


def _quotient(v: KModule,
              spans: Mapping[str, Mat]) -> tuple[KModule, ModuleMap]:
    """Quotient of v by the submodule spanned at each object x by the
    columns B of spans[x], with the projection. The columns may be
    dependent, and the submodule itself is never built.

    The quotient basis is the canonical complement: standard basis vectors
    selected greedily after the span. One rref of [B | I], which is
    E [B | I], per object picks the span's pivot columns and then the
    complement units, at the columns comp_x of I; E inverts [pivot columns
    | those units], so its rows past the span's pivots are the projection
    P. PB = 0 is checked, and so is P R = I, where R is the selection of
    the columns comp_x: P's columns at comp_x are I.

    The quotient acts by Q_f = P_y A_f R_x, so by P R = I at an identity.
    Per non-identity f: x -> y, M = P_y A_f is the one product: Q_f is M's
    columns at comp_x, and the projection is checked natural, M = Q_f P_x,
    the comparison make_module_map(check=True) makes. It holds exactly
    when P_y A_f B_x = 0, that is when the spans are closed under the
    action. So a span that is not closed is refused with ValidationFailed
    ("module map", one NATURALITY_VIOLATION per failing f), after the
    quotient's functoriality check, and the quotient depends only on the
    spans, not on the columns chosen to span them. With q_x = 0, Q_f is
    empty and the check M = Q_f P_x is the test M = 0.
    """
    field = v.field
    cat = v.cat
    comp: dict[str, tuple[int, ...]] = {}  # comp_x
    projections: dict[str, Mat] = {}
    dims: dict[str, int] = {}
    for x in cat.objects:
        b = spans[x]
        n = v.dims[x]
        if b.rows != n:
            raise ShapeMismatch(f"span of {b.rows} rows at {x}, where the"
                                f" module has dimension {n}")
        if not n:
            comp[x], dims[x] = (), 0
            projections[x] = linalg.zeros(field, 0, 0)
            continue
        stacked = Mat(n, b.cols + n, tuple(map(
            operator.add, b.entries, linalg.identity(field, n).entries)))
        r, pivots = linalg.rref(field, stacked)
        k = sum(1 for p in pivots if p < b.cols)
        comp[x] = tuple(p - b.cols for p in pivots[k:])
        dims[x] = d = n - k
        p_x = projections[x] = linalg.make_mat(
            d, n, tuple([row[b.cols:] for row in r.entries[k:]]))
        # P B = 0, empty when d or b.cols is 0, and P R = I
        if ((d and b.cols
             and not linalg.mat_eq_zero(linalg.matmul(field, p_x, b)))
                or _columns_at(p_x, comp[x])
                != linalg.identity(field, d).entries):
            raise FinsiteError(f"quotient projection at {x} does not invert"
                               " the complement")
    action = _identity_action(cat, field, dims)
    unnatural: list[Violation] = []
    for f in _non_identities(cat):
        x, y = cat.dom[f], cat.cod[f]
        if not dims[y] or not v.dims[x]:
            action[f] = linalg.zeros(field, dims[y], dims[x])
            continue
        m = linalg.matmul(field, projections[y], v.action[f])
        if dims[x]:
            action[f] = qf = Mat(dims[y], dims[x], _columns_at(m, comp[x]))
            natural = (linalg.matmul(field, qf, projections[x]).entries
                       == m.entries)
        else:
            action[f] = linalg.zeros(field, dims[y], 0)
            natural = linalg.mat_eq_zero(m)
        if not natural:
            unnatural.append(Violation(NATURALITY_VIOLATION, (f,)))
    q = make_module(cat, field, dims, action, check=True)
    if unnatural:
        raise ValidationFailed("module map", unnatural)
    return q, make_module_map(v, q, projections, check=False)


def _columns_at(m: Mat, cols: Sequence[int]) -> tuple[tuple, ...]:
    """The entries of m's columns at cols, in that order."""
    return tuple([tuple([row[c] for c in cols]) for row in m.entries])


def kernel_of_map(m: ModuleMap) -> tuple[KModule, ModuleMap]:
    field = m.source.field
    spans = {x: linalg.kernel_basis(field, m.components[x])
             for x in m.source.cat.objects}
    return submodule_from_spans(m.source, spans)


def cokernel_of_map(m: ModuleMap) -> tuple[KModule, ModuleMap]:
    """The quotient of m's target by the image of m, with the projection.
    The columns of m's components span the image, so they go to the
    quotient as they are; the image is never built."""
    return _quotient(m.target, m.components)


# ---------------------------------------------------------------------------
# sieve presentation modules

class SievePresentation(Record):
    """The sieve submodule of a representable and its quotient.

    For a sieve S on x inside the representable at x: `sub` is spanned by
    the basis vectors of the morphisms in S, `quotient` by the rest.
    """

    base: str
    ambient: KModule
    sub: KModule
    inclusion: ModuleMap
    quotient: KModule


def sieve_quotient_module(cat: FiniteCategory, field: FieldSpec,
                          s: Sieve) -> SievePresentation:
    """The representable at s.base presented by s, in closed form: sub and
    quotient are free on the members and on the other morphisms, u acting
    by postcomposition (by 0 when u f falls into the sieve). Built once per
    (category, field, sieve), on the representable kept for s.base; later
    calls return the same presentation."""
    built = _built(cat)
    pres = built.get((field, s))
    if pres is not None:
        return pres
    x = s.base
    ambient = yoneda_module(cat, field, x)
    mset = s.member_set
    hom = {y: cat.hom(x, y) for y in cat.objects}
    inside = {y: tuple(f for f in hom[y] if f in mset) for y in hom}
    sub = _postcomposition_module(cat, field, inside)
    quotient = _postcomposition_module(
        cat, field, {y: tuple(f for f in hom[y] if f not in mset) for y in hom})
    # the inclusion matches labels, so it is natural by construction; the
    # tests check it on every sieve of the fixtures
    inclusion = make_module_map(
        sub, ambient,
        {y: _relabel(field, inside[y], hom[y], lambda f: f)
         for y in cat.objects}, check=False)
    pres = built[field, s] = SievePresentation(x, ambient, sub, inclusion,
                                               quotient)
    return pres


# ---------------------------------------------------------------------------
# injectives

def standard_injective(cat: FiniteCategory, field: FieldSpec, x: str) -> KModule:
    """The cofree module at x: the value at y is functions on Hom(y, x), and
    u: y -> z acts by (u.phi)(h) = phi(h u). Maps from any W into it are
    exactly linear functionals on W_x, which makes it injective. Built once
    per (category, field, object); later calls return the same module."""
    built = _built(cat)
    v = built.get((field, x, "injective"))
    if v is None:
        basis = {y: cat.hom(y, x) for y in cat.objects}
        action = {u: linalg.transpose(_relabel(
            field, basis[cat.cod[u]], basis[cat.dom[u]],
            lambda h, u=u: cat.compose(h, u))) for u in cat.morphisms}
        v = built[field, x, "injective"] = make_module(
            cat, field, {y: len(basis[y]) for y in cat.objects}, action,
            check=False)
    return v


def canonical_injective_embedding(v: KModule) -> tuple[KModule, ModuleMap]:
    """Embed v into a finite direct sum of standard injectives.

    One copy of the standard injective at x per dimension of v at x, the
    objects in the order of cat.objects; the embedding component indexed by
    (x, i, h: y -> x) sends w to (V_h w)_i.
    """
    cat = v.cat
    field = v.field
    summands = []
    for x in cat.objects:
        summands.extend(standard_injective(cat, field, x)
                        for _ in range(v.dims[x]))
    i0 = direct_sum(cat, field, summands)
    comps = {}
    for y in cat.objects:
        rows = []
        for x in cat.objects:
            for i in range(v.dims[x]):
                for h in cat.hom(y, x):
                    rows.append(v.action[h].entries[i])
        comps[y] = linalg.make_mat(i0.dims[y], v.dims[y], tuple(rows))
    iota = make_module_map(v, i0, comps, check=True)
    for y in cat.objects:
        # the identity row at x = y makes this a monomorphism
        if linalg.rank(field, comps[y]) != v.dims[y]:
            raise PreconditionFailed(f"embedding not injective at {y}")
    return i0, iota


# ---------------------------------------------------------------------------
# compatible families

class CompatibleFamilies(Record):
    """Basis of the compatible families of a module W over a set of
    morphisms out of one object, closed under postcomposition by W's
    category.

    A family is one block vector, a block per member in the member
    tuple's order holding a vector of W at the member's codomain;
    compatibility means W_g b_f = b_{gf} for every member f and every g
    out of its codomain. `basis` is the one matrix whose columns are the
    basis families, so a family's coordinates solve basis x = family.
    """

    members: tuple[str, ...]
    offsets: Mapping[str, int]
    basis: Mat

    @property
    def dimension(self) -> int:
        return self.basis.cols


def compatible_families(cat: FiniteCategory, w: KModule,
                        members: Sequence[str]) -> CompatibleFamilies:
    """Solve W_g b_f = b_{gf} over the members f (morphisms of cat) and the
    non-identity g of W's category out of cod f, and return the kernel.

    No members gives no blocks and a zero-dimensional space. A system of
    more than _HOM_SYSTEM_CAP entries (equations x unknowns, counted from
    the dims before any row is built) raises SizeBudgetExceeded.
    """
    field = w.field
    members = tuple(members)
    offsets: dict[str, int] = {}
    total = 0
    for f in members:
        offsets[f] = total
        total += w.dims[cat.cod[f]]
    # one equation per member f, non-identity g out of cod f, and entry of
    # W at cod g
    terms = [(f, g) for f in members for g in w.cat.morphisms_from(cat.cod[f])
             if not w.cat.is_identity(g)]
    equations = sum(w.dims[w.cat.cod[g]] for _, g in terms)
    if equations * total > _HOM_SYSTEM_CAP:
        raise SizeBudgetExceeded(
            f"compatibility system of {equations} equations in {total}"
            f" unknowns exceeds {_HOM_SYSTEM_CAP} entries")
    zero = field.zero()
    rows: list[tuple] = []
    for f, g in terms:
        gf = cat.compose(g, f)
        wg = w.action[g]
        for a in range(wg.rows):
            row = [zero] * total
            for b in range(wg.cols):
                row[offsets[f] + b] = wg.entries[a][b]
            row[offsets[gf] + a] = field.sub(row[offsets[gf] + a], field.one())
            rows.append(tuple(row))
    system = linalg.make_mat(len(rows), total, tuple(rows))
    return CompatibleFamilies(members, offsets, linalg.from_cols(
        linalg.kernel_basis(field, system), rows=total))


def induced_family_map(v: KModule, x: str,
                       families: CompatibleFamilies) -> Mat:
    """The map sending a vector a at x to its induced family (V_f a)_f over
    the members, all morphisms out of x, in the family basis."""
    coords = linalg.solve_matrix(v.field, families.basis, linalg.vstack(
        [v.action[f] for f in families.members], cols=v.dims[x]))
    if coords is None:
        raise FinsiteError("induced family escaped the family space")
    return coords


def family_module(cat: FiniteCategory, w: KModule,
                  members: Mapping[str, Sequence[str]],
                  ) -> tuple[KModule, dict[str, CompatibleFamilies]]:
    """The module over cat of W's compatible families over members[x] at
    each object x, with the family space at every object.

    members[x] holds morphisms of cat out of x into W's objects, closed
    under precomposition (g u is a member at x for every member g at y and
    u: x -> y), and u acts by reindexing, (u.b)_g = b_{g u}, so an identity
    by I; the reindexed basis stacks the source basis's row blocks at the
    g u. A reindexed family outside the space at y is a library bug and
    raises FinsiteError.
    """
    families = {x: compatible_families(cat, w, members[x]) for x in cat.objects}
    dims = {x: families[x].dimension for x in cat.objects}
    action = _identity_action(cat, w.field, dims)
    for u in _non_identities(cat):
        src, dst = families[cat.dom[u]], families[cat.cod[u]]
        rows: list[tuple] = []
        for g in dst.members:
            off = src.offsets[cat.compose(g, u)]
            rows.extend(src.basis.entries[off:off + w.dims[cat.cod[g]]])
        action[u] = linalg.solve_matrix(w.field, dst.basis, linalg.make_mat(
            dst.basis.rows, src.dimension, tuple(rows)))
        if action[u] is None:
            raise FinsiteError(
                f"reindexed family escapes the family space at {u}")
    return make_module(cat, w.field, dims, action, check=True), families


def family_unit(v: KModule, m: KModule,
                families: Mapping[str, CompatibleFamilies]) -> ModuleMap:
    """The map v -> m sending a vector a at x to its induced family
    (V_f a)_f, for m a family module whose members are morphisms of v's
    category."""
    return make_module_map(
        v, m, {x: induced_family_map(v, x, families[x]) for x in v.cat.objects},
        check=True)


# ---------------------------------------------------------------------------
# restriction and coinduction along a full subcategory

def restriction(cat: FiniteCategory, sub: FiniteCategory, v: KModule) -> KModule:
    """Restrict a module to a full subcategory (dims and action filtered)."""
    require_full_subcategory(cat, sub)
    if v.cat != cat:
        raise NotFullSubcategory("module does not live on the ambient category")
    return _restrict(sub, v)


def _restrict(sub: FiniteCategory, v: KModule) -> KModule:
    """restriction, for a sub already known to be full in v's category."""
    return make_module(sub, v.field, {x: v.dims[x] for x in sub.objects},
                       {f: v.action[f] for f in sub.morphisms}, check=False)


def _into(cat: FiniteCategory, sub: FiniteCategory) -> dict[str, tuple]:
    """The morphisms out of each object of cat into the objects of sub."""
    keep = set(sub.objects)
    return {x: tuple(f for f in cat.morphisms_from(x) if cat.cod[f] in keep)
            for x in cat.objects}


def coinduction_with_counit(cat: FiniteCategory, sub: FiniteCategory,
                            w: KModule) -> tuple[KModule, ModuleMap]:
    """Right Kan extension of w along the inclusion of a full subcategory.

    The value at x is the space of families (v_f), one block per morphism
    f: x -> d with d in the subcategory, constrained by W_h v_f = v_{hf}
    for every h of the subcategory; a morphism u: x -> y acts by
    reindexing, (u.m)_g = m_{gu}. The counit identifies the restriction of
    the result with w (each component is invertible for full subcategories);
    it is returned as a module map over the subcategory.
    """
    require_full_subcategory(cat, sub)
    if w.cat != sub:
        raise NotFullSubcategory("module does not live on the subcategory")
    coind, families = family_module(cat, w, _into(cat, sub))
    counit_comps = {}
    for d in sub.objects:
        base = families[d].offsets[cat.identity[d]]
        comp = linalg.make_mat(w.dims[d], coind.dims[d],
                               families[d].basis.entries[base:base + w.dims[d]])
        if not linalg.is_invertible(w.field, comp):
            raise PreconditionFailed(f"counit degenerate at {d}")
        counit_comps[d] = comp
    counit = make_module_map(_restrict(sub, coind), w, counit_comps,
                             check=True)
    return coind, counit


def coinduction_unit(cat: FiniteCategory, sub: FiniteCategory,
                     v: KModule) -> tuple[KModule, ModuleMap]:
    """The coinduction of v's restriction to a full subcategory, with the
    unit v -> coind(res v) of restriction and coinduction: a vector a at x
    goes to its family (V_f a) over the morphisms f from x into sub.

    The counit being invertible, the unit is invertible exactly on the
    image of coinduction: for a rigid topology whose irreducible objects
    make up sub, exactly on the sheaves.
    """
    coind, families = family_module(cat, restriction(cat, sub, v),
                                    _into(cat, sub))
    return coind, family_unit(v, coind, families)


# ---------------------------------------------------------------------------
# random modules

def _random_entry(field: FieldSpec, rng: random.Random):
    if field.is_finite:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-2, 2))


def random_module(cat: FiniteCategory, field: FieldSpec, seed: int,
                  max_dim: int) -> KModule:
    """Deterministic pseudo-random module with every dimension <= max_dim.

    Built as a quotient of a direct sum of representables by a random
    action-closed subspace, so functoriality holds by construction; the
    quotient re-verifies it anyway. Oversized values are cut down by
    growing the relation subspace at the offending object: the first
    standard vector outside it joins, and the closure is saturated again
    from where it stood. The quotient is taken once, at the end, straight
    from the relation bases (_quotient); the relation submodule is never
    built. The quotient depends only on the relation subspace at each
    object, not on its basis, so the module for a seed is the one a fresh
    closure per added relation would give.
    """
    if max_dim < 0:
        raise PreconditionFailed("max_dim must be nonnegative")
    if max_dim == 0:
        return zero_module(cat, field)
    rng = random.Random(f"finsite:{field.label()}:{seed}")
    copies = {x: rng.choice((0, 1, 1, 2)) for x in cat.objects}
    if cat.objects and not any(copies.values()):
        copies[cat.objects[0]] = 1
    summands = []
    for x in cat.objects:
        if copies[x]:
            # modules are immutable, so the copies can share one build
            summands.extend([yoneda_module(cat, field, x)] * copies[x])
    free = direct_sum(cat, field, summands)
    relations = {x: linalg.Echelon(field, free.dims[x]) for x in cat.objects}
    busy = [x for x in cat.objects if free.dims[x] > 0]
    if busy:
        for _ in range(rng.randint(0, max(1, free.total_dim() // 2))):
            x = rng.choice(busy)
            relations[x].add(tuple(_random_entry(field, rng)
                                   for _ in range(free.dims[x])))

    done = dict.fromkeys(cat.morphisms, 0)
    while True:
        _saturate(free, relations, done)
        y = next((y for y in cat.objects
                  if free.dims[y] - relations[y].rank > max_dim), None)
        if y is None:
            break
        i = relations[y].missing_unit()
        relations[y].add(linalg.identity(field, free.dims[y]).entries[i])
    return _quotient(free, {x: linalg.from_cols(relations[x].basis,
                                                rows=free.dims[x])
                            for x in cat.objects})[0]


def all_vectors(field: FieldSpec, dim: int) -> Iterator[Vector]:
    """Every vector of k^dim in lexicographic order; finite fields only."""
    if not field.is_finite:
        raise InfiniteFieldUnsupported("cannot enumerate vectors over Q")
    return itertools.product(range(field.p), repeat=dim)

