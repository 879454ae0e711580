"""Torsion theory attached to a cover rule.

A vector at x is killed by a sieve S when every member of S acts as zero on
it; the torsion part of a module gathers, at each object, everything killed
by some cover. For stable rules this is a submodule, and for genuine
topologies the torsion and torsion-free classes form a hereditary pair,
which verify_torsion_pair probes on sampled modules. Annihilator sieves
run the correspondence in the other direction, from modules back to rules.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterable, Mapping, Sequence

from . import linalg, modrep
from .errors import (
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
    sieve_sort_key,
)
from .topology import (
    GrothendieckTopology,
    check_axioms,
    make_rule,
    require_stable,
)

_ENUMERATION_CAP = 200_000
_HOM_PAIR_CAP = 400  # (torsion, torsion-free) sample pairs whose hom is solved


def sieve_kernel(v: KModule, s: Sieve) -> list[Vector]:
    """Basis of the vectors at the sieve's base killed by every member.

    Every member's matrix is stacked; composites add no condition, so the
    kernel (hence the row space and its echelon form) is a generating
    set's. The empty sieve kills nothing, so it yields the whole space.
    """
    stacked = linalg.vstack([v.action[f] for f in s.members],
                            cols=v.dims[s.base])
    return linalg.kernel_basis(v.field, stacked)


def torsion_spans(cat: FiniteCategory, j: GrothendieckTopology,
                  v: KModule) -> dict[str, list[Vector]]:
    """Per-object basis of the sum of kernels over the covers.

    No stability requirement: this is the raw objectwise computation, and
    it only assembles into a submodule for stable rules.

    Only the minimal covers are eliminated. S ⊆ S' gives ker S' ⊆ ker S,
    and covers_at lists every proper subsieve of a cover before it, so the
    kernel of a cover containing an earlier one lies in the span already
    gathered: the greedy basis is the one the kernels of all covers give.
    A zero space has the empty basis.
    """
    spans: dict[str, list[Vector]] = {}
    for x in cat.objects:
        vecs: list[Vector] = []
        if v.dims[x]:
            used: list[frozenset[str]] = []
            for s in j.covers_at(x):
                members = s.member_set
                if not any(u <= members for u in used):
                    used.append(members)
                    vecs.extend(sieve_kernel(v, s))
        spans[x] = linalg.span_basis(v.field, vecs, v.dims[x])
    return spans


def torsion_submodule(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule) -> tuple[KModule, ModuleMap]:
    """The torsion part of v, as a module with its inclusion.

    Requires stability, the exact strength needed for the objectwise
    kernels to be closed under the action; the closure is re-verified by
    the submodule constructor.
    """
    require_stable(cat, j)
    return _torsion_part(cat, j, v)


def _torsion_part(cat: FiniteCategory, j: GrothendieckTopology,
                  v: KModule) -> tuple[KModule, ModuleMap]:
    """torsion_submodule for a rule already known to be stable."""
    return modrep.submodule_from_spans(v, torsion_spans(cat, j, v), close=False)


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
        out[x] = [index.sieve(x, t) for t in index.masks(x)
                  if any(not s & ~t for s in base)]
    return make_rule(cat, out)


# ---------------------------------------------------------------------------
# torsion pair verification

class TorsionPairReport(Record):
    """Outcome of sampling-based torsion-pair verification."""

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


def _is_torsion_free(cat: FiniteCategory, j: GrothendieckTopology,
                     v: KModule) -> tuple[bool, tuple | None]:
    spans = torsion_spans(cat, j, v)
    for x in cat.objects:
        if spans[x]:
            return False, (x, tuple(v.field.fmt(a) for a in spans[x][0]))
    return True, None


def _random_submodule(v: KModule,
                      rng: random.Random) -> tuple[KModule, ModuleMap] | None:
    busy = [x for x in v.cat.objects if v.dims[x] > 0]
    if not busy:
        return None
    spans: dict[str, list[Vector]] = {}
    for _ in range(rng.randint(1, 2)):
        x = rng.choice(busy)
        spans.setdefault(x, []).append(
            tuple(modrep._random_entry(v.field, rng) for _ in range(v.dims[x])))
    return modrep.submodule_from_spans(v, spans, close=True)


def verify_torsion_pair(cat: FiniteCategory, j: GrothendieckTopology,
                        field: FieldSpec = GF(2), sample_count: int = 20,
                        seed: int = 0, max_dim: int = 3,
                        extra_modules: Sequence[KModule] = (),
                        ) -> TorsionPairReport:
    """Probe the torsion/torsion-free pair on sampled modules.

    Samples are the sieve-quotient generators of the rule, any caller
    supplied modules, and pseudo-random modules. Verified on the samples:
    module maps from torsion to torsion-free vanish; the torsion class is
    closed under submodules and quotients; and each sample modulo its
    torsion part is torsion-free. Failures are recorded as witness
    entries, not raised: for rules that are stable but not transitive the
    last condition is exactly where the pair breaks.

    Only stability is required of the rule. The torsion computation needs
    nothing more, and demanding full topology-hood here would make the
    negative cases unobservable.
    """
    require_stable(cat, j)
    rng = random.Random(f"finsite:pair:{field.label()}:{seed}")
    samples: list[KModule] = []
    for x in cat.objects:
        for s in j.covers_at(x):
            samples.append(modrep.sieve_quotient_module(cat, field, s).quotient)
    samples.extend(extra_modules)
    for _ in range(sample_count):
        samples.append(modrep.random_module(cat, field,
                                            seed=rng.randrange(2 ** 30),
                                            max_dim=max_dim))

    torsion_list: list[tuple[int, KModule]] = []
    free_list: list[tuple[int, KModule]] = []
    tf_witnesses: list[tuple] = []
    for idx, v in enumerate(samples):
        # t is v's torsion part: v is torsion when t is all of it, and
        # torsion-free when t is zero
        t, incl = _torsion_part(cat, j, v)
        q, _ = modrep.quotient_module(v, incl)
        q_free, bad = _is_torsion_free(cat, j, q)
        if not q_free:
            tf_witnesses.append((idx, dict(v.dims)) + bad)
        if not v.is_zero() and t.dims == v.dims:
            torsion_list.append((idx, v))
        if not t.is_zero() and is_torsion(cat, j, t):
            torsion_list.append((idx, t))
        if q_free and not q.is_zero():
            free_list.append((idx, q))
        if not v.is_zero() and t.is_zero():
            free_list.append((idx, v))

    hom_witnesses: list[tuple] = []
    pairs = itertools.islice(itertools.product(torsion_list, free_list),
                             _HOM_PAIR_CAP)
    for (i, t), (k, f) in pairs:
        if modrep.hom_space(t, f):
            hom_witnesses.append((i, k, dict(t.dims), dict(f.dims)))

    sub_witnesses: list[tuple] = []
    quo_witnesses: list[tuple] = []
    for i, t in torsion_list[:12]:
        made = _random_submodule(t, rng)
        if made is None:
            continue
        w, w_incl = made
        if not is_torsion(cat, j, w):
            sub_witnesses.append((i, dict(w.dims)))
        t_over_w, _ = modrep.quotient_module(t, w_incl)
        if not is_torsion(cat, j, t_over_w):
            quo_witnesses.append((i, dict(t_over_w.dims)))

    witnesses: dict[str, tuple] = {}
    if hom_witnesses:
        witnesses["hom"] = tuple(hom_witnesses)
    if sub_witnesses:
        witnesses["submodule"] = tuple(sub_witnesses)
    if quo_witnesses:
        witnesses["quotient"] = tuple(quo_witnesses)
    if tf_witnesses:
        witnesses["quotient_torsion_free"] = tuple(tf_witnesses)
    return TorsionPairReport(
        hom_vanishes=not hom_witnesses,
        closed_under_submodules=not sub_witnesses,
        closed_under_quotients=not quo_witnesses,
        quotients_torsion_free=not tf_witnesses,
        sample_count=len(samples),
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
