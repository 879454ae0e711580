"""Torsion theory attached to a cover rule.

A vector at x is killed by a sieve S when every member of S acts as zero on
it; the torsion part of a module gathers, at each object, everything killed
by some cover. For stable rules this is a submodule, and for genuine
topologies the torsion and torsion-free classes form a hereditary pair.
verify_torsion_pair decides the pair by a certificate on the rule's
sieves, each failure backed by a module the module-level code checks.
Annihilator sieves run the correspondence in the other direction, from
modules back to rules.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping, Sequence

from . import linalg, modrep
from .errors import (
    FinsiteError,
    InfiniteFieldUnsupported,
    PreconditionFailed,
    Record,
    ShapeMismatch,
    SizeBudgetExceeded,
    UnknownObject,
)
from .fincat import FiniteCategory
from .linalg import GF, FieldSpec, Vector
from .modrep import KModule, ModuleMap
from .sieves import (  # perfbench/selftest.py rebinds torsion.all_sieves
    Sieve,
    _mask_index,
    all_sieves,  # noqa: F401
    make_sieve,
    maximal_sieve,
    sieve_sort_key,
)
from .topology import (
    GrothendieckTopology,
    check_axioms,
    make_rule,
    require_stable,
)

_ENUMERATION_CAP = 200_000


def sieve_kernel(v: KModule, s: Sieve) -> list[Vector]:
    """Basis of the vectors at the sieve's base killed by every member.

    Every member's matrix is stacked; composites add no condition, so the
    kernel (hence the row space and its echelon form) is a generating
    set's. The empty sieve kills nothing, so it yields the whole space.
    A stack of more than modrep._HOM_SYSTEM_CAP entries, counted from the
    dims before it is built, raises SizeBudgetExceeded.
    """
    rows = sum(v.dims[v.cat.cod[f]] for f in s.members)
    cols = v.dims[s.base]
    if rows * cols > modrep._HOM_SYSTEM_CAP:
        raise SizeBudgetExceeded(
            f"kernel system of {rows} rows in {cols} unknowns exceeds"
            f" {modrep._HOM_SYSTEM_CAP} entries")
    stacked = linalg.vstack([v.action[f] for f in s.members], cols=cols)
    return linalg.kernel_basis(v.field, stacked)


def torsion_spans(cat: FiniteCategory, j: GrothendieckTopology,
                  v: KModule) -> dict[str, list[Vector]]:
    """Per-object basis of the sum of kernels over the covers.

    No stability requirement: this is the raw objectwise computation, and
    it only assembles into a submodule for stable rules.

    Only the least covers (GrothendieckTopology.least_covers) are
    eliminated. S ⊆ S' gives ker S' ⊆ ker S, so the kernel of every cover
    lies in the span of the least covers' kernels: the basis is the one
    the kernels of all covers give. A zero space has the empty basis.
    """
    spans: dict[str, list[Vector]] = {}
    for x in cat.objects:
        vecs: list[Vector] = []
        if v.dims[x]:
            for s in j.least_covers(x):
                vecs.extend(sieve_kernel(v, s))
        spans[x] = linalg.span_basis(v.field, vecs, v.dims[x])
    return spans


def torsion_submodule(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule) -> tuple[KModule, ModuleMap]:
    """The torsion part of v, as a module with its inclusion.

    Requires stability, which the rule keeps once checked: the exact
    strength needed for the objectwise kernels to be closed under the
    action. The submodule constructor re-verifies the closure.
    """
    require_stable(cat, j)
    return modrep.submodule_from_spans(v, torsion_spans(cat, j, v))


class TorsionReport(Record):
    """Classification of one module against one cover rule."""

    dims: Mapping[str, int]
    classification: str  # torsion | torsion_free | mixed
    zero_module: bool
    witnesses: Mapping[str, Any]

    def to_doc(self) -> dict:
        witnesses = dict(self.witnesses)
        if self.zero_module:
            witnesses["zero_module"] = True
        return {
            "dims": dict(self.dims),
            "classification": self.classification,
            "witnesses": witnesses,
        }


def torsion_class(cat: FiniteCategory, j: GrothendieckTopology,
                  v: KModule) -> TorsionReport:
    """Classify v as torsion, torsion-free, or mixed, with witnesses.

    The zero module is torsion by convention and flagged as degenerate.
    Witnesses carry a nonzero torsion vector and a vector outside the
    torsion part, whichever exist.
    """
    sub, incl = torsion_submodule(cat, j, v)
    dims = {x: sub.dims[x] for x in cat.objects}
    field = v.field
    if v.is_zero():
        return TorsionReport(dims=dims, classification="torsion",
                             zero_module=True, witnesses={})
    witnesses: dict[str, Any] = {}
    for x in cat.objects:
        if dims[x] > 0:
            vec = incl.components[x].col(0)
            witnesses["torsion_element"] = (x, tuple(field.fmt(a) for a in vec))
            break
    for x in cat.objects:
        if dims[x] < v.dims[x]:
            cols = [incl.components[x].col(k) for k in range(dims[x])]
            i = linalg.Echelon(field, v.dims[x], cols).missing_unit()
            e = linalg.identity(field, v.dims[x]).col(i)
            witnesses["obstruction"] = (x, tuple(field.fmt(a) for a in e))
            break
    if dims == {x: v.dims[x] for x in cat.objects}:
        classification = "torsion"
    elif all(d == 0 for d in dims.values()):
        classification = "torsion_free"
    else:
        classification = "mixed"
    return TorsionReport(dims=dims, classification=classification,
                         zero_module=False, witnesses=witnesses)


# ---------------------------------------------------------------------------
# annihilators

def annihilator_sieve(v: KModule, x: str, vec: Sequence) -> Sieve:
    """The sieve of morphisms out of x that kill the given vector.

    Postcomposition closure is automatic (anything after a killer still
    kills), and re-verified by the sieve constructor.
    """
    if x not in v.cat.identity:
        raise UnknownObject(x)
    if len(vec) != v.dims[x]:
        raise ShapeMismatch(
            f"vector of length {len(vec)} at {x} of dimension {v.dims[x]}")
    w = tuple(v.field.of(a) for a in vec)
    members = [f for f in v.cat.morphisms_from(x)
               if all(a == 0 for a in v.apply(f, w))]
    return make_sieve(v.cat, x, members)


def realized_annihilators(cat: FiniteCategory, modules: Iterable[KModule],
                          x: str) -> set[Sieve]:
    """Annihilator sieves of every vector of every module's value at x.

    Exhaustive vector enumeration, so finite coefficients only; the zero
    vector always contributes the maximal sieve.
    """
    out: set[Sieve] = set()
    for v in modules:
        if not v.field.is_finite:
            raise InfiniteFieldUnsupported(
                "annihilator enumeration needs a finite field")
        if v.cat != cat:
            raise PreconditionFailed("module lives on a different category")
        if v.field.p ** v.dims[x] > _ENUMERATION_CAP:
            raise SizeBudgetExceeded(
                f"{v.field.p}^{v.dims[x]} vectors at {x}")
        for vec in modrep.all_vectors(v.field, v.dims[x]):
            out.add(annihilator_sieve(v, x, vec))
    return out


def inclusion_closure(cat: FiniteCategory,
                      rule: GrothendieckTopology | Mapping[str, Iterable[Sieve]]
                      ) -> GrothendieckTopology:
    """Close a cover rule under enlargement of sieves.

    The result covers x with every sieve containing some cover of x; the
    torsion theory cannot tell the two rules apart.
    """
    covers = rule.covers if isinstance(rule, GrothendieckTopology) else rule
    index = _mask_index(cat)
    out = {}
    for x in cat.objects:
        base = [index.mask(x, s) for s in covers.get(x, ())]
        out[x] = [ts for t, ts in zip(*index.universe(x)[:2])
                  if any(not s & ~t for s in base)]
    return make_rule(cat, out)


# ---------------------------------------------------------------------------
# torsion pair verification

class TorsionPairReport(Record):
    """Outcome of the torsion-pair certificate, with any sampled evidence.

    Each condition is decided by the certificate, or refuted by a module
    witness; witnesses whose key starts with "sampled_" come from the
    seeded samples.
    """

    hom_vanishes: bool
    closed_under_submodules: bool
    closed_under_quotients: bool
    quotients_torsion_free: bool
    sample_count: int
    witnesses: Mapping[str, tuple]

    @property
    def passed(self) -> bool:
        return (self.hom_vanishes and self.closed_under_submodules
                and self.closed_under_quotients
                and self.quotients_torsion_free)

    def to_doc(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {
                "hom_vanishes": self.hom_vanishes,
                "closed_under_submodules": self.closed_under_submodules,
                "closed_under_quotients": self.closed_under_quotients,
                "quotients_torsion_free": self.quotients_torsion_free,
            },
            "sample_count": self.sample_count,
            "witnesses": {k: list(w) for k, w in self.witnesses.items()},
        }


def is_torsion(cat: FiniteCategory, j: GrothendieckTopology,
               v: KModule) -> bool:
    """Every vector of v is killed by some cover."""
    spans = torsion_spans(cat, j, v)
    return all(len(spans[x]) == v.dims[x] for x in cat.objects)


def _torsion_in_quotient(cat: FiniteCategory, j: GrothendieckTopology,
                         v: KModule) -> tuple | None:
    """A torsion vector (x, entries) of v modulo its torsion part, or None
    when that quotient is torsion-free."""
    _, incl = torsion_submodule(cat, j, v)
    q, _ = modrep.quotient_module(v, incl)
    spans = torsion_spans(cat, j, q)
    return next(((x, tuple(q.field.fmt(a) for a in spans[x][0]))
                 for x in cat.objects if spans[x]), None)


def verify_torsion_pair(cat: FiniteCategory, j: GrothendieckTopology,
                        field: FieldSpec = GF(2), sample_count: int = 20,
                        seed: int = 0, max_dim: int = 3,
                        ) -> TorsionPairReport:
    """Decide whether the rule's torsion and torsion-free modules form a
    hereditary torsion pair, by a certificate on its sieves.

    Only stability is required of the rule, so that the negative cases are
    observable. For a stable rule, maps from torsion to torsion-free
    modules vanish and torsion is closed under quotients: a map sends a
    vector killed by a cover to one killed by the same cover. The closure
    j+ of the rule under enlargement, maximal sieves added, has the same
    torsion modules, and check_axioms on j+ decides the rest:

    - transitive: j+ is a topology, so the pair holds (the Gabriel-filter
      correspondence, Stenström, Rings of Quotients, ch. VI);
    - not, witness (x, S, T): P(x)/T extends the torsion P(x)/(S+T) by
      the torsion (S+T)/T and is not torsion, so its quotient by its
      torsion part is not torsion-free: "quotient_torsion_free" holds
      (x, S, T, dims of P(x)/T) and a torsion vector of that quotient;
    - not intersection closed, witness (x, S, T): P(x)/(S ∩ T) lies
      diagonally in the torsion P(x)/S + P(x)/T and is not torsion:
      "submodule" holds (x, S, T, dims of P(x)/(S ∩ T)).

    The module-level code checks the witness modules in check_axioms'
    order and reports the first it confirms. Killed vectors form a
    subspace when j+ is intersection closed, which makes every
    transitivity witness sure; otherwise, when the check refutes every
    witness of a kind, FinsiteError is raised. Each
    of the sample_count seeded random modules must be torsion-free modulo
    its torsion part; a failure, under "sampled_quotient_torsion_free" as
    (index, dims) and a torsion vector, fails the verdict.
    """
    require_stable(cat, j)
    closed = inclusion_closure(cat, {
        x: (*j.covers.get(x, ()), maximal_sieve(cat, x)) for x in cat.objects})
    axioms = check_axioms(cat, closed)
    witnesses: dict[str, tuple] = {}
    found = axioms.witnesses.get("transitivity", ())
    for x, s, t in found:
        q = modrep.sieve_quotient_module(cat, field, Sieve(x, t)).quotient
        bad = _torsion_in_quotient(cat, j, q)
        if bad is not None:
            witnesses["quotient_torsion_free"] = ((x, s, t, dict(q.dims))
                                                  + bad,)
            break
    else:
        if found:
            raise FinsiteError(f"each of {len(found)} P(x)/T has a torsion-free"
                               " quotient, though a cover forces T")
    found = axioms.witnesses.get("intersection", ())
    for x, s, t in found:
        meet = make_sieve(cat, x, set(s) & set(t))
        q = modrep.sieve_quotient_module(cat, field, meet).quotient
        if not is_torsion(cat, j, q):
            witnesses["submodule"] = ((x, s, t, dict(q.dims)),)
            break
    else:
        if found:
            raise FinsiteError(f"each of {len(found)} P(x)/(S ∩ T) is torsion,"
                               " though S ∩ T is no cover")

    rng = random.Random(f"finsite:pair:{field.label()}:{seed}")
    sampled = []
    for idx in range(sample_count):
        v = modrep.random_module(cat, field, seed=rng.randrange(2 ** 30),
                                 max_dim=max_dim)
        bad = _torsion_in_quotient(cat, j, v)
        if bad is not None:
            sampled.append((idx, dict(v.dims)) + bad)
    if sampled:
        witnesses["sampled_quotient_torsion_free"] = tuple(sampled)
    return TorsionPairReport(
        hom_vanishes=True,
        closed_under_submodules="submodule" not in witnesses,
        closed_under_quotients=True,
        quotients_torsion_free=not ({"quotient_torsion_free",
                                     "sampled_quotient_torsion_free"}
                                    & witnesses.keys()),
        sample_count=sample_count,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# the annihilator round trip

def nullstellensatz_roundtrip(cat: FiniteCategory, j: GrothendieckTopology,
                              p: int) -> tuple[bool, dict]:
    """Recover the rule from the annihilators of its own torsion generators.

    The generator family is the sieve quotient of the representable for
    every cover; their realized annihilators, closed under inclusion, are
    compared objectwise to the rule. Requires the rule closed under
    inclusions and finite intersections, which is what makes recovery
    possible at all; the first failure in object order is raised, read off
    check_axioms' closure witnesses.
    """
    witnesses = check_axioms(cat, j).witnesses
    for x in cat.objects:
        for kind, joint in (("inclusion", "inside"), ("intersection", "with")):
            bad = next((w for w in witnesses.get(kind, ()) if w[0] == x), None)
            if bad is not None:
                raise PreconditionFailed(
                    f"rule not {kind} closed at {x}: {bad[1]} {joint} {bad[2]}")
    field = GF(p)
    generators = [modrep.sieve_quotient_module(cat, field, s).quotient
                  for x in cat.objects for s in j.covers_at(x)]
    realized = {x: realized_annihilators(cat, generators, x)
                for x in cat.objects}
    closed = inclusion_closure(cat, realized)
    missing: dict[str, list] = {}
    extra: dict[str, list] = {}
    for x in cat.objects:
        jx = set(j.covers.get(x, frozenset()))
        kx = set(closed.covers[x])
        gone = sorted(jx - kx, key=sieve_sort_key)
        if gone:
            missing[x] = [list(s.members) for s in gone]
        surplus = sorted(kx - jx, key=sieve_sort_key)
        if surplus:
            extra[x] = [list(s.members) for s in surplus]
    agrees = not missing and not extra
    report = {
        "agrees": agrees,
        "field": {"Fp": p},
        "missing": missing,
        "extra": extra,
        "realized_counts": {x: len(realized[x]) for x in cat.objects},
    }
    return agrees, report
