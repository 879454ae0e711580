"""Sheaf conditions for modules against a cover rule, and sheafification.

A matching family for a sieve assigns a vector over the codomain of each
member, compatibly with postcomposition; a module is a sheaf when every
such family over every cover amalgamates uniquely from the base object.
Three detectors are implemented: the direct amalgamation test, the derived
vanishing test (torsion-free plus vanishing first right-derived torsion),
and the perpendicularity test against sieve-quotient generators. They are
provably equivalent, and sheaf_verdict cross-checks them against each
other on every call.

The amalgamation and perpendicularity tests run on the least covers only
(GrothendieckTopology.least_covers), for a topology the one minimum cover
per object. For a stable rule every P(x)/S is torsion, and every torsion
module is a quotient of a sum of the P(x)/S with S a least cover, a
vector killed by a cover being killed by each cover inside it; the
torsion class is hereditary. So Hom(-, V) vanishes on all torsion exactly
when it vanishes on these generators, and for torsion-free V so does Ext^1
(Geigle and Lenzing, Perpendicular categories with applications to
representations and sheaves, J. Algebra 144, 1991). The separated, sheaf
and perpendicular verdicts are those over every cover; each witness list
is the all-covers list restricted to the least covers.

Sheafification reads the rule off its minimum covers, one per object.
When each is J_D's, the sieve of the maps into D for D the objects whose
minimum cover is maximal, the torsion modules are those vanishing on D and
the sheaves are the coinduced modules: a(V) = coind_D res_D V, with the
unit of restriction and coinduction. The paper's theorem makes every
topology on an artinian EI category such a J_D. On any other rule, such
as one on a monoid whose minimum cover is neither maximal nor empty, it
applies the plus construction twice over the minimum covers; for finite intersection-closed cover sets the filtered colimit of
matching spaces collapses onto that minimum, an equality the tests check
against the colimit over every cover. Both paths are modrep.family_module
(coinduction over the maps into D, a plus step over the minimum covers),
and the tests check the first against the second, up to the one
isomorphism under V. The rule keeps its least covers and stability
verdict.

For a rigid topology, verify_rigid_equivalence decides the equivalence of
sheaves with modules on the irreducible objects by coinducing each
standard injective of that core.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from . import linalg, modrep, torsion
from .errors import (
    FinsiteError,
    NotRigid,
    PreconditionFailed,
    Record,
    ValidationFailed,
)
from .fincat import FiniteCategory, full_subcategory
from .linalg import GF, FieldSpec
from .modrep import CompatibleFamilies, KModule, ModuleMap
from .sieves import Sieve
from .topology import (
    GrothendieckTopology,
    check_axioms,
    require_stable,
    rigidity,
    subcategory_sieve,
)


def matching_space(v: KModule, s: Sieve) -> CompatibleFamilies:
    """Solve the compatibility system for the sieve and return its kernel,
    a block per sieve member in the member tuple's order.

    The empty sieve has no blocks and a zero-dimensional space; the
    maximal sieve's space is isomorphic to the value at the base object.
    """
    return modrep.compatible_families(v.cat, v, s.members)


# ---------------------------------------------------------------------------
# the three detectors

class SheafStatus(Record):
    separated: bool
    sheaf: bool
    witnesses: Mapping[str, tuple]


class SaturationStatus(Record):
    torsion_free: bool
    r1_zero: bool
    witnesses: Mapping[str, tuple]

    @property
    def saturated(self) -> bool:
        return self.torsion_free and self.r1_zero


class PerpendicularStatus(Record):
    hom_zero: bool
    ext1_zero: bool
    witnesses: Mapping[str, tuple]

    @property
    def perpendicular(self) -> bool:
        return self.hom_zero and self.ext1_zero


def sheaf_status(cat: FiniteCategory, j: GrothendieckTopology,
                 v: KModule) -> SheafStatus:
    """Amalgamation test over the least covers of every object.

    Separated when every induced-family map is injective, a sheaf when all
    are bijective. On a stable rule these are the verdicts over every
    cover: a vector killed by a cover is killed by each cover inside it,
    and a family on a larger cover is amalgamated by the amalgamation of
    its restriction to a least cover inside it, the pullbacks of that cover
    being covers on which V is separated. On an unstable rule the sheaf
    verdict is meaningless.
    """
    field = v.field
    separated = True
    sheaf = True
    kernel_w: list[tuple] = []
    cokernel_w: list[tuple] = []
    for x in cat.objects:
        for s in j.least_covers(x):
            space = matching_space(v, s)
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
                cokernel_w.append((x, s.members, tuple(
                    field.fmt(a) for a in space.basis.col(i))))
    witnesses: dict[str, tuple] = {}
    if kernel_w:
        witnesses["kernel"] = tuple(kernel_w)
    if cokernel_w:
        witnesses["cokernel"] = tuple(cokernel_w)
    return SheafStatus(separated=separated, sheaf=sheaf, witnesses=witnesses)


def saturation_status(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule) -> SaturationStatus:
    """Derived test: no torsion, and vanishing first right-derived torsion.

    The derived part embeds v into injectives, takes the quotient, and
    measures how much of the quotient's torsion fails to lift; the verdict
    does not depend on the embedding, which the tests confirm by building
    the category with its objects, hence the summands, in another order.
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
    i0, iota = modrep.canonical_injective_embedding(v)
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
    """Generator test on the least covers: restriction along each sieve
    inclusion must be a bijection from maps out of the representable to
    maps out of the sieve submodule. Injectivity kills maps from the
    quotient; surjectivity kills its first extension group, the
    representable being projective. The P(x)/S generate the torsion class
    (module docstring), so hom_zero is Hom vanishing on all torsion, and
    ext1_zero, Ext^1 vanishing on these generators, is Ext^1 vanishing on
    all torsion when hom_zero holds: perpendicular is the all-covers verdict.

    Hom(P(x), V) is V(x) by Yoneda (modrep.yoneda_maps); Hom(S, V) is
    solved from the naturality equations, independently of the matching
    families the amalgamation test uses.
    """
    field = v.field
    hom_w: list[tuple] = []
    ext_w: list[tuple] = []
    for x in cat.objects:
        for s in j.least_covers(x):
            pres = modrep.sieve_quotient_module(cat, field, s)
            hp = modrep.yoneda_maps(v, x)
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


class SheafVerdict(Record):
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
                  v: KModule) -> SheafVerdict:
    status = sheaf_status(cat, j, v)
    sat = saturation_status(cat, j, v)
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

def _minimum_covers(cat: FiniteCategory,
                    j: GrothendieckTopology) -> dict[str, tuple[str, ...]]:
    """The members of each object's minimum cover, its one least cover
    (which lies inside every cover), after checking that the rule is
    stable, which keeps each minimum cover closed under precomposition."""
    members = {}
    for x in cat.objects:
        least = j.least_covers(x)
        if len(least) != 1:
            raise PreconditionFailed(
                f"no minimum cover at {x}: {len(least)} least covers")
        members[x] = least[0].members
    require_stable(cat, j)
    return members


def plus_construction(cat: FiniteCategory, j: GrothendieckTopology,
                      v: KModule) -> tuple[KModule, ModuleMap]:
    """One plus step: matching families over each object's minimum cover,
    morphisms acting by reindexing (modrep.family_module). The unit is the
    induced-family map."""
    vplus, families = modrep.family_module(cat, v, _minimum_covers(cat, j))
    return vplus, modrep.family_unit(v, vplus, families)


def sheafify(cat: FiniteCategory, j: GrothendieckTopology,
             v: KModule) -> tuple[KModule, ModuleMap]:
    """The sheaf of v with its unit. On a J_D rule, read off the minimum
    covers, it is coind_D res_D v with the unit of restriction and
    coinduction; on any other rule, two plus steps with their units
    composed. The result is verified to be a sheaf, and the unit's kernel
    and cokernel are verified torsion, at runtime."""
    members = _minimum_covers(cat, j)
    core = [x for x in cat.objects if cat.identity[x] in members[x]]
    if all(members[x] == subcategory_sieve(cat, core, x).members
           for x in cat.objects):
        sh, unit = modrep.coinduction_unit(cat, full_subcategory(cat, core), v)
    else:
        p1, unit1 = plus_construction(cat, j, v)
        sh, unit2 = plus_construction(cat, j, p1)
        unit = modrep.compose_maps(unit2, unit1)
    if not sheaf_status(cat, j, sh).sheaf:
        raise FinsiteError("sheafification is not a sheaf")
    ker, _ = modrep.kernel_of_map(unit)
    if not torsion.is_torsion(cat, j, ker):
        raise FinsiteError("sheafification unit kernel is not torsion")
    coker, _ = modrep.cokernel_of_map(unit)
    if not torsion.is_torsion(cat, j, coker):
        raise FinsiteError("sheafification unit cokernel is not torsion")
    return sh, unit


# ---------------------------------------------------------------------------
# the rigid equivalence

class RigidEquivalenceReport(Record):
    """Outcome of the rigid-equivalence certificate, with any sampled
    evidence; witnesses whose key starts with "sampled_" come from the
    seeded samples."""

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
    """Decide the equivalence between sheaves and modules on the irreducible
    objects D of a rigid topology, by a certificate on the standard
    injectives I_y of D, one per y in D. A rule that check_axioms rejects
    raises PreconditionFailed, naming the failed axioms, before rigidity.

    - Torsion is vanishing on D: that is rigidity, checked here.
    - Coinduction makes sheaves, and restriction undoes it: each I_y's
      counit comes back invertible from coinduction_with_counit, or it
      raises ("restrict_coinduce": (y, dims of I_y)), and coind I_y must
      be a sheaf ("sheaf": (y, its dims)). Both functors are left exact
      and every D-module is the kernel of a map between sums of the I_y,
      so this covers every D-module.
    - Coinducing the restriction of a sheaf V recovers it: the unit's
      kernel and cokernel vanish on D, so they are torsion, and a sheaf
      is right perpendicular to torsion (acceptance gate 5). So this leg
      holds when the two above do.

    Each of the sample_count seeded random modules must be torsion exactly
    when it vanishes on D; a failure, under "sampled_torsion" as (index,
    dims), fails the verdict.
    """
    broken = check_axioms(cat, j).witnesses
    failed = [k for k in ("maximal", "stability", "transitivity") if k in broken]
    if failed:
        raise PreconditionFailed(f"not a topology: the {', '.join(failed)}"
                                 " axioms fail")
    report = rigidity(cat, j)
    if not report.rigid:
        raise NotRigid(f"failures at {[y for y, _ in report.failures]}")
    d_objs = report.irreducibles
    sub = full_subcategory(cat, d_objs)
    witnesses: dict[str, list] = {"restrict_coinduce": [], "sheaf": [],
                                  "sampled_torsion": []}
    for y in d_objs:
        w = modrep.standard_injective(sub, field, y)
        try:
            coind, _ = modrep.coinduction_with_counit(cat, sub, w)
        except (PreconditionFailed, ValidationFailed):
            witnesses["restrict_coinduce"].append((y, dict(w.dims)))
            continue
        if not sheaf_status(cat, j, coind).sheaf:
            witnesses["sheaf"].append((y, dict(coind.dims)))

    rng = random.Random(f"finsite:rigid:{field.label()}:{seed}")
    for idx in range(sample_count):
        v = modrep.random_module(cat, field, seed=rng.randrange(2 ** 30),
                                 max_dim=max_dim)
        if torsion.is_torsion(cat, j, v) != all(v.dims[x] == 0
                                                 for x in d_objs):
            witnesses["sampled_torsion"].append((idx, dict(v.dims)))

    packed = {k: tuple(w) for k, w in witnesses.items() if w}
    counit_ok = not witnesses["restrict_coinduce"]
    sheaves_ok = counit_ok and not witnesses["sheaf"]
    return RigidEquivalenceReport(
        irreducibles=d_objs,
        torsion_matches_restriction=not witnesses["sampled_torsion"],
        coinduction_makes_sheaves=sheaves_ok,
        restrict_after_coinduce_identity=counit_ok,
        coinduce_after_restrict_identity=sheaves_ok,
        sample_count=sample_count,
        witnesses=packed,
    )
