"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints a single PASS/FAIL line with its runtime, bypassing
pytest's capture so the gate is auditable from the console transcript.
Failures still raise, so the suite stays red until the guarantee holds.
"""
from __future__ import annotations

import sys
import time
from itertools import product

from conftest import chain, diamond, ei_fixture_categories, idem_monoid, quiver2

from finsite import fincat, linalg, modrep, sheaves, topology, torsion, typen
from finsite.modrep import GF, parse_field_label

QQ = parse_field_label("Q")


def _gate(num: int, label: str, bound: float | None, body) -> None:
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        elapsed = time.perf_counter() - t0
        _line(num, label, "FAIL", elapsed)
        raise
    elapsed = time.perf_counter() - t0
    in_time = bound is None or elapsed < bound
    _line(num, label, "PASS" if in_time else "FAIL", elapsed, detail)
    assert in_time, f"{label}: {elapsed:.2f}s exceeds the {bound}s budget"


def _line(num: int, label: str, word: str, elapsed: float,
          detail: str = "") -> None:
    # __stdout__ bypasses capture; the verdict must reach the console
    text = f"[acceptance {num:2d}] {word} {elapsed:6.2f}s  {label}"
    if detail:
        text += f"  ({detail})"
    print(text, file=sys.__stdout__, flush=True)


# -- 1: the cover census on the two-arrow quiver, row for row ---------------

MAX_X = ("1_x", "f", "g")
MAX_Y = ("1_y",)
QUIVER_CENSUS = [
    {"x": [MAX_X], "y": [MAX_Y]},
    {"x": [MAX_X], "y": [(), MAX_Y]},
    {"x": [("f", "g"), MAX_X], "y": [MAX_Y]},
    {"x": [(), ("f",), ("g",), ("f", "g"), MAX_X], "y": [(), MAX_Y]},
]


def test_01_quiver_cover_census():
    def body():
        cat = quiver2()
        topos = topology.enumerate_topologies(cat)
        shapes = [{x: [s.members for s in j.covers_at(x)]
                   for x in cat.objects} for j in topos]
        assert shapes == QUIVER_CENSUS
        return "4 cover rules, row for row"
    _gate(1, "quiver cover census", 1.0, body)


# -- 2: torsion classes against the closed-form predicate table -------------

def _stacked_kernel_trivial(v) -> bool:
    stacked = linalg.vstack([v.action["f"], v.action["g"]],
                            cols=v.dims["x"])
    return not linalg.kernel_basis(v.field, stacked)


def test_02_torsion_class_census():
    def body():
        cat = quiver2()
        named = {kind: topology.canonical_serialization(
                     topology.named_topology(cat, kind))
                 for kind in ("trivial", "dense", "maximal")}
        predicates = {}
        for j in topology.enumerate_topologies(cat):
            key = topology.canonical_serialization(j)
            if key == named["trivial"]:
                pair = (lambda v: v.is_zero(), lambda v: True)
            elif key == named["dense"]:
                pair = (lambda v: v.dims["y"] == 0, _stacked_kernel_trivial)
            elif key == named["maximal"]:
                pair = (lambda v: True, lambda v: v.is_zero())
            else:
                pair = (lambda v: v.dims["x"] == 0, lambda v: v.dims["y"] == 0)
            predicates[key] = (j, pair)
        pools = {field.label(): [modrep.random_module(cat, field, seed, 3)
                                 for seed in range(100)]
                 for field in (GF(2), QQ)}
        checked = 0
        for j, (is_torsion, is_free) in predicates.values():
            for pool in pools.values():
                for v in pool:
                    got = torsion.torsion_class(cat, j, v).classification
                    if v.is_zero():
                        want = "torsion"
                    elif is_torsion(v):
                        want = "torsion"
                    elif is_free(v):
                        want = "torsion_free"
                    else:
                        want = "mixed"
                    assert got == want, (j.covers, v.dims, got, want)
                    checked += 1
        assert checked == 800
        return "800 classifications, 0 mismatches"
    _gate(2, "torsion class census", 5.0, body)


# -- 3: one-object categories, group versus idempotent ----------------------

def test_03_monoid_dichotomy():
    def body():
        for name, table in (("C2", fincat.cyclic_group_table(2)),
                            ("C3", fincat.cyclic_group_table(3)),
                            ("S3", fincat.symmetric_group_table(3))):
            cat = fincat.build_monoid_category(table, name=name)
            assert len(topology.enumerate_topologies(cat)) == 2, name
        cat = idem_monoid()
        topos = topology.enumerate_topologies(cat)
        assert len(topos) >= 3
        dense = topology.named_topology(cat, "dense")
        serials = {topology.canonical_serialization(j) for j in topos}
        assert topology.canonical_serialization(dense) in serials
        idempotent_sieve = topology.make_sieve(cat, "*", ["e"])
        assert idempotent_sieve in dense.covers["*"]
        return f"groups 2 each, idempotent monoid {len(topos)}"
    _gate(3, "monoid dichotomy", 5.0, body)


# -- 4: direct enumeration equals the consistent-family classification ------

def test_04_classification_crosscheck():
    def body():
        fixtures = [("chain2", chain(2), 4), ("chain3", chain(3), 8),
                    ("diamond", diamond(), 16), ("quiver2", quiver2(), 4),
                    ("trunc_fi(2)", fincat.build_trunc_fi_category(2), 8),
                    ("trunc_fi(3)", fincat.build_trunc_fi_category(3), 16),
                    ("trunc_fi(5)", fincat.build_trunc_fi_category(5), 64),
                    ("trunc_vi(2,2)", fincat.build_trunc_vi_category(2, 2), 8),
                    ("trunc_vi(3,2)", fincat.build_trunc_vi_category(3, 2), 8),
                    ("trunc_vi(2,3)", fincat.build_trunc_vi_category(2, 3), 16)]
        for p in (2, 3):
            orb, _ = fincat.build_orbit_category(
                fincat.cyclic_group_table(p), name=f"orbit_C{p}")
            fixtures.append((f"orbit(C{p})", orb, 4))
        for name, cat, count in fixtures:
            direct = {topology.canonical_serialization(j)
                      for j in topology.enumerate_topologies(cat)}
            classified = {topology.canonical_serialization(j)
                          for j in topology.enumerate_consistent_families(cat)}
            assert direct == classified, name
            assert len(direct) == count, (name, len(direct))
        return f"{len(fixtures)} fixtures set-equal"
    _gate(4, "classification crosscheck", 60.0, body)


# -- 5: the sheaf / saturation / perpendicularity triangle ------------------

def test_05_verdict_triangle():
    def body():
        count = 0
        for cat in (quiver2(), chain(2), chain(3)):
            for j in topology.enumerate_topologies(cat):
                for field in (GF(2), GF(3), QQ):
                    for seed in range(5):
                        v = modrep.random_module(cat, field, seed, max_dim=3)
                        verdict = sheaves.sheaf_verdict(cat, j, v)
                        assert verdict.consistent, (cat.name, v.dims)
                        count += 1
        assert count >= 200
        return f"{count} triples, all four detectors agree"
    _gate(5, "sheaf criterion triangle", 120.0, body)


# -- 6: the reflector's contract --------------------------------------------

def test_06_sheafification_contract():
    def body():
        count = sheaf_inputs = 0
        for cat in (quiver2(), chain(2)):
            for j in topology.enumerate_topologies(cat):
                for field in (GF(2), GF(3)):
                    for seed in range(7):
                        v = modrep.random_module(cat, field, seed, max_dim=2)
                        w, unit = sheaves.sheafify(cat, j, v)
                        assert sheaves.sheaf_status(cat, j, w).sheaf
                        ker, _ = modrep.kernel_of_map(unit)
                        coker, _ = modrep.cokernel_of_map(unit)
                        for side in (ker, coker):
                            got = torsion.torsion_class(cat, j, side)
                            assert got.classification == "torsion"
                        _, unit2 = sheaves.sheafify(cat, j, w)
                        # w is a sheaf, so its unit must be invertible
                        k2, _ = modrep.kernel_of_map(unit2)
                        c2, _ = modrep.cokernel_of_map(unit2)
                        assert k2.is_zero() and c2.is_zero()
                        if sheaves.sheaf_status(cat, j, v).sheaf:
                            kv, _ = modrep.kernel_of_map(unit)
                            cv, _ = modrep.cokernel_of_map(unit)
                            assert kv.is_zero() and cv.is_zero()
                            sheaf_inputs += 1
                        count += 1
        assert count >= 100
        return f"{count} samples, {sheaf_inputs} already sheaves"
    _gate(6, "sheafification contract", None, body)


# -- 7: hereditary torsion pairs, and what transitivity buys ----------------

def _nontransitive_rule(cat):
    covers = {"0": [torsion.make_sieve(cat, "0", ["0->1", "0->2"])],
              "1": [torsion.make_sieve(cat, "1", ["1->2"])],
              "2": [topology.maximal_sieve(cat, "2")]}
    return torsion.inclusion_closure(cat, covers)


def test_07_hereditary_torsion_pairs():
    def body():
        for cat in (quiver2(), chain(2), chain(3),
                    fincat.build_trunc_fi_category(2)):
            for j in topology.enumerate_topologies(cat):
                rep = torsion.verify_torsion_pair(
                    cat, j, GF(2), sample_count=12, seed=0, max_dim=2)
                assert rep.passed, (cat.name, rep.witnesses)

        cat = chain(3)
        rule = _nontransitive_rule(cat)
        axioms = topology.check_axioms(cat, rule)
        assert axioms.stability_ok and not axioms.transitivity_ok
        field = GF(2)
        witness = None
        for dims in sorted(product(range(3), repeat=3),
                           key=lambda d: (sum(d), d)):
            dmap = dict(zip(cat.objects, dims))
            mats_a = product(range(2), repeat=dims[1] * dims[0])
            for a_bits in mats_a:
                a = linalg.from_rows(
                    [a_bits[i * dims[0]:(i + 1) * dims[0]]
                     for i in range(dims[1])], cols=dims[0])
                for b_bits in product(range(2), repeat=dims[2] * dims[1]):
                    b = linalg.from_rows(
                        [b_bits[i * dims[1]:(i + 1) * dims[1]]
                         for i in range(dims[2])], cols=dims[1])
                    action = {cat.identity[x]: linalg.identity(field, dmap[x])
                              for x in cat.objects}
                    action["0->1"] = a
                    action["1->2"] = b
                    action["0->2"] = linalg.matmul(field, b, a)
                    v = modrep.make_module(cat, field, dmap, action)
                    _, incl = torsion.torsion_submodule(cat, rule, v)
                    quot, _ = modrep.quotient_module(v, incl)
                    if quot.is_zero():
                        continue
                    got = torsion.torsion_class(cat, rule, quot)
                    if got.classification != "torsion_free":
                        witness = v
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None
        assert max(witness.dims.values()) <= 2
        rep = torsion.verify_torsion_pair(cat, rule, field, sample_count=10,
                                          seed=0, max_dim=2,
                                          extra_modules=(witness,))
        assert not rep.quotients_torsion_free
        assert "quotient_torsion_free" in rep.witnesses
        assert not rep.passed
        found = tuple(witness.dims[x] for x in cat.objects)
        return f"24 rules pass; stable non-transitive rule fails at dims {found}"
    _gate(7, "hereditary torsion pairs", None, body)


# -- 8: annihilators recover exactly the covering sieves --------------------

def test_08_annihilator_roundtrip():
    def body():
        checked = 0
        for p in (2, 3):
            for cat in (quiver2(), chain(2)):
                for j in topology.enumerate_topologies(cat):
                    ok, report = torsion.nullstellensatz_roundtrip(cat, j, p)
                    assert ok, (p, cat.name, report)
                    checked += 1
        return f"{checked} rule/field pairs round-trip"
    _gate(8, "annihilator roundtrip", None, body)


# -- 9: rigidity, and modules over the irreducible core ---------------------

def test_09_rigid_equivalence():
    def body():
        fixtures = ei_fixture_categories()
        for name, table in (("C2", fincat.cyclic_group_table(2)),
                            ("C3", fincat.cyclic_group_table(3)),
                            ("S3", fincat.symmetric_group_table(3))):
            fixtures.append(fincat.build_monoid_category(table, name=name))
        rules = samples = 0
        for cat in fixtures:
            topos = topology.enumerate_topologies(cat)
            per_rule = -(-50 // len(topos))
            for j in topos:
                assert topology.rigidity(cat, j).rigid, cat.name
                rep = sheaves.verify_rigid_equivalence(
                    cat, j, GF(2), sample_count=per_rule, seed=0, max_dim=2)
                assert rep.passed, (cat.name, rep.witnesses)
                rules += 1
                samples += rep.sample_count
        assert samples >= 50 * len(fixtures)
        return f"{rules} rules rigid, {samples} equivalence samples"
    _gate(9, "rigid equivalence", None, body)


# -- 10: the rank-sequence calculus ------------------------------------------

def _admissible(seq) -> bool:
    # successor rule: -inf stays, inf stays, a > 0 steps down to a - 1
    for a, b in zip(seq, seq[1:]):
        if a is typen.NEG_INF and b is not typen.NEG_INF:
            return False
        if a is typen.INF and b is not typen.INF:
            return False
        if isinstance(a, int) and a > 0 and b != a - 1:
            return False
    return True


def test_10_rank_sequence_calculus():
    def body():
        for tail in (0, 1):
            for bits in product((0, 1), repeat=12):
                spec = typen.make_spec("generic", bits, tail=tail)
                outcome = typen.validate_spec(spec)
                seq = typen.d_sequence(spec, 14)
                assert outcome.valid == _admissible(seq)
                assert outcome.recurrence_ok and outcome.pieces_ok
                assert typen.rigid_spec(spec) == (tail == 0)
        for n in range(11):
            census = typen.spec_census(n)
            assert len(census.generic) == 2 ** n
            assert len(census.nongeneric) == 2 ** n
        probe = typen.make_spec("generic", (1, 1, 0), tail=0)
        for horizon in range(5):
            rep = typen.truncation_crosscheck(probe, horizon)
            assert rep.sieve_inventory_ok and rep.pullback_agreement_ok
            assert rep.stability_ok and rep.transitivity == "skipped"
        cut = typen.make_spec("nongeneric", (1, 0), cutoff=2)
        rep = typen.truncation_crosscheck(cut, 4)
        assert rep.sieve_inventory_ok and rep.pullback_agreement_ok
        return "8192 words, censuses to 2^10, truncations to 4"
    _gate(10, "rank sequence calculus", 30.0, body)


# -- 11: index-prime-to-p covers on the S3 orbit category -------------------

def test_11_orbit_sipp_irreducibles():
    def body():
        cat, data = fincat.build_orbit_category(
            fincat.symmetric_group_table(3), name="orbit_S3")
        expected = {2: {"G/H1", "G/H2"}, 3: {"G/H1", "G/H3"}}
        for p in (2, 3):
            j = topology.sipp_topology(cat, data, p)
            irr = set(topology.irreducible_objects(cat, j))
            assert irr == expected[p], (p, irr)
            # restated: exactly the orbits whose stabilizer class is a p-group
            by_order = {x for x in cat.objects
                        if _is_p_power(data.order_of[x], p)}
            assert irr == by_order
        return "p = 2 gives {1, C2}; p = 3 gives {1, C3}"
    _gate(11, "orbit category p-covers", 10.0, body)


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1
