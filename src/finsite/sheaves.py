"""Sheaf conditions for modules against a cover rule, and sheafification.

A matching family for a sieve assigns a vector over the codomain of each
member, compatibly with postcomposition; a module is a sheaf when every
such family over every cover amalgamates uniquely from the base object.
Three detectors are implemented: the direct amalgamation test, the derived
vanishing test (torsion-free plus vanishing first right-derived torsion),
and the perpendicularity test against sieve-quotient generators. They are
provably equivalent, and sheaf_verdict cross-checks them against each
other on every call.

Sheafification applies the plus construction twice, over the minimal cover
of each object; for finite intersection-closed cover sets the filtered
colimit of matching spaces collapses onto that minimum, an equality
matching_colimit_dimension exposes for direct testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from . import linalg, modrep, torsion
from .errors import (
    FinsiteError,
    NotRigid,
    PreconditionFailed,
    ValidationFailed,
)
from .fincat import FiniteCategory, full_subcategory
from .linalg import GF, FieldSpec, Mat, Vector
from .modrep import KModule, ModuleMap
from .sieves import Sieve
from .topology import (
    GrothendieckTopology,
    irreducible_objects,
    minimal_covering_sieve,
    require_stable,
    rigidity,
)


@dataclass(frozen=True)
class MatchingSpace(modrep.CompatibleFamilies):
    """Basis of the compatible families over one sieve, a block per sieve
    member in the member tuple's order."""

    base: str
    sieve: Sieve


def matching_space(v: KModule, x: str, s: Sieve) -> MatchingSpace:
    """Solve the compatibility system for the sieve and return its kernel.

    The empty sieve has no blocks and a zero-dimensional space; the
    maximal sieve's space is isomorphic to the value at the base object.
    """
    families = modrep.compatible_families(v.cat, v, s.members)
    return MatchingSpace(base=x, sieve=s, **vars(families))


def restrict_family(space: MatchingSpace, family: Vector,
                    smaller: Sieve) -> Vector:
    """Drop the blocks outside a subsieve; still a matching family there."""
    if not smaller.member_set <= space.sieve.member_set:
        raise PreconditionFailed("can only restrict to a subsieve")
    out: list = []
    for f in smaller.members:
        out.extend(space.block(family, f))
    return tuple(out)


# ---------------------------------------------------------------------------
# the three detectors

@dataclass(frozen=True)
class SheafStatus:
    separated: bool
    sheaf: bool
    witnesses: Mapping[str, tuple]


@dataclass(frozen=True)
class SaturationStatus:
    torsion_free: bool
    r1_zero: bool
    witnesses: Mapping[str, tuple]

    @property
    def saturated(self) -> bool:
        return self.torsion_free and self.r1_zero


@dataclass(frozen=True)
class PerpendicularStatus:
    hom_zero: bool
    ext1_zero: bool
    witnesses: Mapping[str, tuple]

    @property
    def perpendicular(self) -> bool:
        return self.hom_zero and self.ext1_zero


def sheaf_status(cat: FiniteCategory, j: GrothendieckTopology,
                 v: KModule) -> SheafStatus:
    """Amalgamation test over every cover of every object.

    Separated when every induced-family map is injective, a sheaf when all
    are bijective. The rule is expected to have passed check_axioms; the
    verdicts are meaningless for arbitrary rules.
    """
    field = v.field
    separated = True
    sheaf = True
    kernel_w: list[tuple] = []
    cokernel_w: list[tuple] = []
    for x in cat.objects:
        for s in j.covers_at(x):
            space = matching_space(v, x, s)
            amap = modrep.induced_family_map(v, x, space)
            ker = linalg.kernel_basis(field, amap)
            if ker:
                separated = False
                sheaf = False
                kernel_w.append((x, s.members,
                                 tuple(field.fmt(a) for a in ker[0])))
                continue
            # injective here, so the rank is the column count
            if amap.cols < space.dimension:
                sheaf = False
                cols = [amap.col(i) for i in range(amap.cols)]
                i = linalg.Echelon(field, space.dimension, cols).missing_unit()
                cokernel_w.append((x, s.members,
                                   tuple(field.fmt(a) for a in space.basis[i])))
    witnesses: dict[str, tuple] = {}
    if kernel_w:
        witnesses["kernel"] = tuple(kernel_w)
    if cokernel_w:
        witnesses["cokernel"] = tuple(cokernel_w)
    return SheafStatus(separated=separated, sheaf=sheaf, witnesses=witnesses)


def saturation_status(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule,
                      summand_order: Sequence[str] | None = None,
                      ) -> SaturationStatus:
    """Derived test: no torsion, and vanishing first right-derived torsion.

    The derived part embeds v into injectives, takes the quotient, and
    measures how much of the quotient's torsion fails to lift; the verdict
    does not depend on the embedding, which summand_order lets tests
    confirm by permuting the injective summands.
    """
    field = v.field
    tsub, t_incl = torsion.torsion_submodule(cat, j, v)
    torsion_free = tsub.total_dim() == 0
    witnesses: dict[str, tuple] = {}
    if not torsion_free:
        for x in cat.objects:
            if tsub.dims[x]:
                witnesses["torsion"] = ((x, tuple(field.fmt(a) for a in
                                                  t_incl.components[x].col(0))),)
                break
    i0, iota = modrep.canonical_injective_embedding(v, summand_order)
    c, proj = modrep.cokernel_of_map(iota)
    ti, ti_incl = torsion.torsion_submodule(cat, j, i0)
    tc, tc_incl = torsion.torsion_submodule(cat, j, c)
    r1_zero = True
    r1_w: list[tuple] = []
    for x in cat.objects:
        if tc.dims[x] == 0:
            continue
        pushed = linalg.matmul(field, proj.components[x],
                               ti_incl.components[x])
        coords = linalg.solve_matrix(field, tc_incl.components[x], pushed)
        if coords is None:
            raise FinsiteError("torsion did not map into torsion")
        if linalg.rank(field, coords) < tc.dims[x]:
            r1_zero = False
            r1_w.append((x, tc.dims[x]))
    if r1_w:
        witnesses["r1"] = tuple(r1_w)
    return SaturationStatus(torsion_free=torsion_free, r1_zero=r1_zero,
                            witnesses=witnesses)


def perpendicular_status(cat: FiniteCategory, j: GrothendieckTopology,
                         v: KModule) -> PerpendicularStatus:
    """Generator test: restriction along each sieve inclusion must be a
    bijection from maps out of the representable to maps out of the sieve
    submodule. Injectivity kills maps from the quotient; surjectivity
    kills its first extension group, the representable being projective.
    """
    field = v.field
    hom_w: list[tuple] = []
    ext_w: list[tuple] = []
    for x in cat.objects:
        for s in j.covers_at(x):
            pres = modrep.sieve_quotient_module(cat, field, s)
            hp = modrep.hom_space(pres.ambient, v)
            hs = modrep.hom_space(pres.sub, v)
            target_len = sum(v.dims[y] * pres.sub.dims[y] for y in cat.objects)
            basis_mat = linalg.from_cols([modrep.map_to_vector(h) for h in hs],
                                         rows=target_len)
            restricted = linalg.from_cols(
                [modrep.map_to_vector(modrep.compose_maps(phi, pres.inclusion))
                 for phi in hp], rows=target_len)
            rmat = linalg.solve_matrix(field, basis_mat, restricted)
            if rmat is None:
                raise FinsiteError("restricted map escaped the hom space")
            r = linalg.rank(field, rmat)
            if r < len(hp):
                hom_w.append((x, s.members))
            if r < len(hs):
                ext_w.append((x, s.members))
    witnesses: dict[str, tuple] = {}
    if hom_w:
        witnesses["hom"] = tuple(hom_w)
    if ext_w:
        witnesses["ext1"] = tuple(ext_w)
    return PerpendicularStatus(hom_zero=not hom_w, ext1_zero=not ext_w,
                               witnesses=witnesses)


@dataclass(frozen=True)
class SheafVerdict:
    """All three detectors on one module, with the equivalence cross-check."""

    separated: bool
    sheaf: bool
    saturated: SaturationStatus
    perpendicular: PerpendicularStatus
    witnesses: Mapping[str, Any]

    @property
    def consistent(self) -> bool:
        return (self.sheaf == self.saturated.saturated
                == self.perpendicular.perpendicular
                and self.separated == self.saturated.torsion_free)

    def to_doc(self) -> dict:
        return {
            "separated": self.separated,
            "sheaf": self.sheaf,
            "saturated": {
                "torsion_free": self.saturated.torsion_free,
                "r1_zero": self.saturated.r1_zero,
            },
            "perpendicular": {
                "hom_zero": self.perpendicular.hom_zero,
                "ext1_zero": self.perpendicular.ext1_zero,
            },
            "consistent": self.consistent,
            "witnesses": {k: dict(w) for k, w in self.witnesses.items()},
        }


def sheaf_verdict(cat: FiniteCategory, j: GrothendieckTopology,
                  v: KModule,
                  summand_order: Sequence[str] | None = None) -> SheafVerdict:
    status = sheaf_status(cat, j, v)
    sat = saturation_status(cat, j, v, summand_order)
    perp = perpendicular_status(cat, j, v)
    witnesses: dict[str, Any] = {}
    if status.witnesses:
        witnesses["sheaf"] = dict(status.witnesses)
    if sat.witnesses:
        witnesses["saturation"] = dict(sat.witnesses)
    if perp.witnesses:
        witnesses["perpendicular"] = dict(perp.witnesses)
    return SheafVerdict(separated=status.separated, sheaf=status.sheaf,
                        saturated=sat, perpendicular=perp, witnesses=witnesses)


# ---------------------------------------------------------------------------
# sheafification

def plus_construction(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule) -> tuple[KModule, ModuleMap]:
    """One plus step: matching families over each object's minimum cover.

    Morphisms act by reindexing, the block at h of the image being the
    block at the composite; stability is what keeps the composite inside
    the source's minimum cover. The unit is the induced-family map.
    """
    field = v.field
    smin: dict[str, Sieve] = {}
    for x in cat.objects:
        s = minimal_covering_sieve(cat, j, x)
        if s not in j.covers.get(x, frozenset()):
            raise PreconditionFailed(
                f"covers at {x} are not intersection closed, no minimum sieve")
        smin[x] = s
    require_stable(cat, j)
    spaces = {x: matching_space(v, x, smin[x]) for x in cat.objects}
    dims = {x: spaces[x].dimension for x in cat.objects}
    action = modrep.reindexing_action(cat, v, spaces, lambda u: FinsiteError(
        "reindexed family escaped the matching space"))
    vplus = modrep.make_module(cat, field, dims, action, check=True)
    unit = modrep.make_module_map(
        v, vplus, {x: modrep.induced_family_map(v, x, spaces[x])
                   for x in cat.objects}, check=True)
    return vplus, unit


def sheafify(cat: FiniteCategory, j: GrothendieckTopology,
             v: KModule) -> tuple[KModule, ModuleMap]:
    """Two plus steps; the result is verified to be a sheaf, and the unit's
    kernel and cokernel are verified torsion, at runtime."""
    p1, u1 = plus_construction(cat, j, v)
    p2, u2 = plus_construction(cat, j, p1)
    unit = modrep.compose_maps(u2, u1)
    if not sheaf_status(cat, j, p2).sheaf:
        raise FinsiteError("double plus construction is not a sheaf")
    ker, _ = modrep.kernel_of_map(unit)
    if not torsion.is_torsion(cat, j, ker):
        raise FinsiteError("sheafification unit kernel is not torsion")
    coker, _ = modrep.cokernel_of_map(unit)
    if not torsion.is_torsion(cat, j, coker):
        raise FinsiteError("sheafification unit cokernel is not torsion")
    return p2, unit


def matching_colimit_dimension(cat: FiniteCategory, j: GrothendieckTopology,
                               v: KModule, x: str) -> int:
    """Dimension of the colimit of matching spaces over the whole cover set.

    Computed generically, as the direct sum of all matching spaces modulo
    the block-restriction identifications; must equal the minimum-sieve
    space dimension when the cover set is intersection closed.
    """
    field = v.field
    covers = j.covers_at(x)
    spaces = [matching_space(v, x, s) for s in covers]
    offsets = []
    total = 0
    for sp in spaces:
        offsets.append(total)
        total += sp.dimension
    zero = field.zero()
    rows: list[tuple] = []
    for i, big in enumerate(spaces):
        for k, small in enumerate(spaces):
            if i == k or not small.sieve.member_set < big.sieve.member_set:
                continue
            restricted = linalg.from_cols(
                [restrict_family(big, fam, small.sieve) for fam in big.basis],
                rows=small.total)
            coords = linalg.solve_matrix(
                field, linalg.from_cols(small.basis, rows=small.total),
                restricted)
            if coords is None:
                raise FinsiteError("restricted family escaped the"
                                   " matching space")
            for b in range(big.dimension):
                row = [zero] * total
                row[offsets[i] + b] = field.one()
                for idx in range(small.dimension):
                    row[offsets[k] + idx] = field.neg(coords[idx, b])
                rows.append(tuple(row))
    relations = Mat(len(rows), total, tuple(rows))
    return total - linalg.rank(field, relations)


# ---------------------------------------------------------------------------
# the rigid equivalence

@dataclass(frozen=True)
class RigidEquivalenceReport:
    """Sampling verification of the sheaves-as-modules-downstairs equivalence."""

    irreducibles: tuple[str, ...]
    torsion_matches_restriction: bool
    coinduction_makes_sheaves: bool
    restrict_after_coinduce_identity: bool
    coinduce_after_restrict_identity: bool
    sample_count: int
    witnesses: Mapping[str, tuple]

    @property
    def passed(self) -> bool:
        return (self.torsion_matches_restriction
                and self.coinduction_makes_sheaves
                and self.restrict_after_coinduce_identity
                and self.coinduce_after_restrict_identity)

    def to_doc(self) -> dict:
        return {
            "passed": self.passed,
            "irreducibles": list(self.irreducibles),
            "conditions": {
                "torsion_matches_restriction":
                    self.torsion_matches_restriction,
                "coinduction_makes_sheaves": self.coinduction_makes_sheaves,
                "restrict_after_coinduce_identity":
                    self.restrict_after_coinduce_identity,
                "coinduce_after_restrict_identity":
                    self.coinduce_after_restrict_identity,
            },
            "sample_count": self.sample_count,
            "witnesses": {k: list(w) for k, w in self.witnesses.items()},
        }


def verify_rigid_equivalence(cat: FiniteCategory, j: GrothendieckTopology,
                             field: FieldSpec = GF(2), sample_count: int = 20,
                             seed: int = 0, max_dim: int = 2,
                             ) -> RigidEquivalenceReport:
    """Probe the equivalence between sheaves and modules on the irreducible
    objects, for a rigid topology.

    Checks on samples: a module is torsion exactly when it vanishes on the
    irreducibles; coinduction from the irreducibles produces sheaves and
    restricting back recovers the input, certified by the invertible
    counit that coinduction_with_counit returns; and coinducing the
    restriction of a sheafified sample recovers it, certified by the unit
    V -> coind(res V) that coinduction_unit returns being invertible at
    every object.
    """
    report = rigidity(cat, j)
    if not report.rigid:
        raise NotRigid(f"failures at {[y for y, _ in report.failures]}")
    d_objs = irreducible_objects(cat, j)
    sub, _ = full_subcategory(cat, d_objs)
    rng = random.Random(f"finsite:rigid:{field.label()}:{seed}")
    witnesses: dict[str, list] = {"torsion": [], "sheaf": [],
                                  "restrict_coinduce": [],
                                  "coinduce_restrict": []}

    samples = [modrep.sieve_quotient_module(cat, field, s).quotient
               for x in cat.objects for s in j.covers_at(x)]
    samples.extend(modrep.random_module(cat, field, seed=rng.randrange(2 ** 30),
                                        max_dim=max_dim)
                   for _ in range(sample_count))
    for idx, v in enumerate(samples):
        is_t = torsion.is_torsion(cat, j, v)
        vanishes = all(v.dims[x] == 0 for x in d_objs)
        if is_t != vanishes:
            witnesses["torsion"].append((idx, dict(v.dims)))

    for i in range(sample_count):
        w = modrep.random_module(sub, field, seed=rng.randrange(2 ** 30),
                                 max_dim=max_dim)
        # the counit is the certificate: it comes back natural and
        # invertible, or the construction raises
        try:
            coind, _ = modrep.coinduction_with_counit(cat, sub, w)
        except (PreconditionFailed, ValidationFailed):
            witnesses["restrict_coinduce"].append((i, dict(w.dims)))
            continue
        if not sheaf_status(cat, j, coind).sheaf:
            witnesses["sheaf"].append((i, dict(w.dims)))

    for i in range(sample_count):
        v = modrep.random_module(cat, field, seed=rng.randrange(2 ** 30),
                                 max_dim=max_dim)
        vs, _ = sheafify(cat, j, v)
        _, unit = modrep.coinduction_unit(cat, sub, vs)
        if not all(linalg.is_invertible(field, unit.components[x])
                   for x in cat.objects):
            witnesses["coinduce_restrict"].append((i, dict(vs.dims)))

    packed = {k: tuple(w) for k, w in witnesses.items() if w}
    return RigidEquivalenceReport(
        irreducibles=tuple(d_objs),
        torsion_matches_restriction=not witnesses["torsion"],
        coinduction_makes_sheaves=not witnesses["sheaf"],
        restrict_after_coinduce_identity=not witnesses["restrict_coinduce"],
        coinduce_after_restrict_identity=not witnesses["coinduce_restrict"],
        sample_count=len(samples) + 2 * sample_count,
        witnesses=packed,
    )
