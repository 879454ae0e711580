from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import finsite
from finsite import fincat, linalg, modrep, sheaves, topology, torsion, typen
from finsite.cli import run
from finsite.errors import SizeBudgetExceeded
from finsite.linalg import GF
from finsite.sheaves import PerpendicularStatus, SaturationStatus, SheafVerdict

DATA = os.path.join(os.path.dirname(__file__), "data")
QUIVER = os.path.join(DATA, "quiver2.json")
SHEAF = os.path.join(DATA, "dense_sheaf.json")
P_Y = os.path.join(DATA, "p_y.json")

SPEC_110 = '{"kind": "generic", "indicator": [1, 1, 0], "tail": 0}'


def test_exit_code_contract(tmp_path):
    stray_object = tmp_path / "stray_object.json"
    stray_object.write_text(json.dumps({"covers": {
        "x": [["1_x", "f", "g"]], "y": [["1_y"]], "zz": []}}))
    no_topology = tmp_path / "no_topology.json"  # every axiom fails
    no_topology.write_text(json.dumps({"covers": {
        "x": [["1_x", "f", "g"]], "y": [[]]}}))
    no_cover_at_x = tmp_path / "no_cover_at_x.json"
    no_cover_at_x.write_text(json.dumps({"covers": {
        "x": [], "y": [["1_y"]]}}))
    cases = [
        (["category", "validate", "--category", QUIVER], 0),
        (["category", "validate", "--category", "no_such_builtin"], 2),
        (["category", "validate", "--category", "missing/file.json"], 2),
        (["topology", "check", "--category", "quiver2",
          "--topology", "dense"], 0),
        (["topology", "named", "--category", "quiver2",
          "--name", "atomic"], 1),  # quiver2 fails the square completion
        (["torsion", "roundtrip", "--category", "quiver2",
          "--topology", "maximal", "--field", "Q"], 2),
        (["typen", "validate", "--spec", SPEC_110], 0),
        (["typen", "validate", "--spec",
          '{"kind": "nongeneric", "indicator": [1, 1], "cutoff": 2}'], 1),
        (["typen", "crosscheck", "--spec", SPEC_110, "--horizon", "5"], 3),
        # spec entries are integers: nothing is truncated or read as a bit
        (["typen", "validate", "--spec",
          '{"kind": "generic", "indicator": [1.5, 0.7], "tail": 0}'], 2),
        (["typen", "validate", "--spec",
          '{"kind": "generic", "indicator": "110", "tail": 0}'], 2),
        (["typen", "validate", "--spec",
          '{"kind": "nongeneric", "indicator": [1, 0], "cutoff": 2.9}'], 2),
        (["typen", "validate", "--spec",
          '{"kind": "generic", "indicator": [true, false], "tail": 0}'], 2),
        (["typen", "validate", "--spec",
          '{"kind": "generic", "indicator": [1, 0], "tail": false}'], 2),
        (["typen", "validate", "--spec",
          '{"kind": "nongeneric", "indicator": [1, 0], "cutoff": 2}'], 0),
        (["topology", "enumerate", "--category", "chain4",
          "--budget", "3"], 3),
        (["topology", "enumerate", "--category", "idem_monoid",
          "--budget", "0"], 3),
        (["typen", "pullback", "--object", "3", "--rank", "bogus",
          "--deg", "1"], 2),
        (["typen", "crosscheck", "--spec", SPEC_110, "--horizon", "-1"], 2),
        (["typen", "pullback", "--object", "-1", "--rank", "2",
          "--deg", "1"], 2),
        (["topology", "enumerate", "--category", "chain-1"], 2),
        (["topology", "check", "--category", "quiver2",
          "--topology", str(stray_object)], 2),
        (["torsion", "pair", "--category", "chain3", "--topology", "dense",
          "--samples", "-1"], 2),
        (["sheaf", "equivalence", "--category", "chain3",
          "--topology", "dense", "--samples", "-3"], 2),
        (["torsion", "pair", "--category", "chain3", "--topology", "dense",
          "--samples", "100000000"], 3),
        (["sheaf", "equivalence", "--category", "chain3",
          "--topology", "dense", "--samples", "10001"], 3),
        (["sheaf", "equivalence", "--category", "quiver2", "--samples", "0",
          "--topology", str(no_topology)], 1),
        (["sheaf", "sheafify", "--category", "quiver2",
          "--topology", str(no_cover_at_x), "--module", P_Y], 1),
        (["typen", "census", "--horizon", "30"], 3),
        (["typen", "validate", "--spec", SPEC_110,
          "--horizon", "20000000"], 3),
        # primality by Miller-Rabin: decided at once, refused past its bound
        (["torsion", "pair", "--category", "chain2", "--topology", "dense",
          "--field", "Fp:1000000000000000003", "--samples", "0"], 0),
        (["torsion", "pair", "--category", "chain2", "--topology", "dense",
          "--field", "Fp:1000000016000000063", "--samples", "0"], 2),
        (["torsion", "pair", "--category", "chain2", "--topology", "dense",
          "--field", "Fp:3215031751", "--samples", "0"], 2),
        (["torsion", "pair", "--category", "chain2", "--topology", "dense",
          "--field", "Fp:3317044064679887385961981", "--samples", "0"], 3),
    ]
    for argv, want in cases:
        code, text = run(argv)
        assert code == want, (argv, code, text)


def test_sample_budget_admits_its_cap(monkeypatch):
    monkeypatch.setattr(finsite.cli, "_MAX_SAMPLES", 2)
    argv = ["torsion", "pair", "--category", "chain3", "--topology", "dense"]
    assert run(argv + ["--samples", "2"])[0] == 0
    code, text = run(argv + ["--samples", "3"])
    assert code == 3 and text.startswith(
        "SizeBudgetExceeded: 3 samples exceeds budget 2"), text


def test_linear_system_budget_is_exit_3(monkeypatch):
    # on the least covers of trunc_fi(2) under dense, the sheaf check solves
    # compatibility systems of at most 16 entries (4 equations in 4
    # unknowns), then torsion kernel systems of at most 48 (8 rows in 6
    # unknowns) for the saturation test, then naturality systems of at most
    # 32 (8 equations in 4 unknowns), Hom(S, V) only, for the
    # perpendicularity test: caps of 1 and 16 stop the check at the first
    # two; all three systems share the one cap
    argv = ["sheaf", "check", "--category", "trunc_fi:2", "--topology",
            "dense", "--module", os.path.join(DATA, "trunc_fi2_module.json")]
    assert run(argv)[0] == 0
    for cap, system in ((1, "compatibility"), (16, "kernel"),
                        (31, "kernel")):
        monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", cap)
        code, text = run(argv)
        assert code == 3, text
        assert text.startswith(f"SizeBudgetExceeded: {system} system of"), text
    # the saturation test's kernel system on the injective hull I of V at a
    # cover S has at least the rows and unknowns of the naturality system of
    # Hom(S, V), so the check never reaches the latter first; the
    # perpendicularity test alone refuses it
    cat = fincat.standard_builder("trunc_fi", {"n": 2})(fincat.DEFAULT_BUDGET)
    with open(os.path.join(DATA, "trunc_fi2_module.json"),
              encoding="utf-8") as handle:
        v = modrep.validate_module(cat, json.load(handle))
    dense = topology.named_topology(cat, "dense")
    with pytest.raises(SizeBudgetExceeded,
                       match="^naturality system of 8 equations in 4 unknowns"):
        sheaves.perpendicular_status(cat, dense, v)
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", 32)
    assert not sheaves.perpendicular_status(cat, dense, v).perpendicular


def test_torsion_kernel_budget_is_exit_3(monkeypatch):
    # the minimum dense cover of x is {f, g}: its kernel system stacks two
    # rows of the module in its two unknowns at x, 4 entries
    argv = ["torsion", "classify", "--category", "quiver2", "--topology",
            "dense", "--module", SHEAF]
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", 4)
    assert run(argv)[0] == 0
    monkeypatch.setattr(modrep, "_HOM_SYSTEM_CAP", 3)
    code, text = run(argv)
    assert code == 3, text
    assert text.startswith("SizeBudgetExceeded: kernel system of 2 rows in 2"
                           " unknowns exceeds 3 entries"), text


def test_huge_truncation_is_refused_at_once():
    # 33,901,456 morphisms: refused on the closed-form count, before any
    # matrix is enumerated
    code, text = run(["topology", "enumerate", "--category", "trunc_vi:7:3"])
    assert code == 3, text
    assert text.startswith("SizeBudgetExceeded: 33901456 morphisms"), text


@pytest.mark.parametrize(("spec", "triples"), [
    ("trunc_fi:6", 1_243_211_002), ("trunc_vi:7:2", 8_393_370_357)])
def test_triple_budget_refuses_at_once(spec, triples):
    # both pass the 4,096-morphism budget (2,372 and 2,073 morphisms); the
    # composable-triple count refuses them before anything is built
    start = time.monotonic()
    code, text = run(["topology", "enumerate", "--category", spec])
    assert code == 3, text
    assert text.startswith(f"SizeBudgetExceeded: {triples} composable"
                           " triples exceeds budget 8388608"), text
    assert time.monotonic() - start < 5


def test_usage_error_is_exit_2():
    code, _ = run(["topology"])
    assert code == 2
    code, _ = run(["no-such-group", "nothing"])
    assert code == 2


def test_output_is_deterministic():
    for argv in (
        ["--format", "json", "topology", "enumerate", "--category", "quiver2"],
        ["--format", "json", "torsion", "pair", "--category", "quiver2",
         "--topology", "dense", "--samples", "5", "--seed", "3"],
        ["topology", "enumerate", "--category", "quiver2"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_format_flag_accepted_in_both_positions():
    leading = run(["--format", "json", "typen", "pullback",
                   "--object", "3", "--rank", "5", "--deg", "2"])
    trailing = run(["typen", "pullback", "--object", "3", "--rank", "5",
                    "--deg", "2", "--format", "json"])
    assert leading == trailing and leading[0] == 0


def test_golden_pullback_json():
    code, text = run(["--format", "json", "typen", "pullback",
                      "--object", "3", "--rank", "5", "--deg", "2"])
    assert code == 0
    assert text == (
        '{\n  "display": "S(5, 3)",\n  "n": 5,\n  "rank": 3\n}\n')


def test_golden_topology_check_json():
    code, text = run(["--format", "json", "topology", "check",
                      "--category", "quiver2", "--topology", "dense"])
    assert code == 0
    assert json.loads(text) == {
        "inclusion_closed": True,
        "intersection_closed": True,
        "is_topology": True,
        "maximal_ok": True,
        "stability_ok": True,
        "transitivity_ok": True,
        "witnesses": {},
    }


def test_census_table_matches_quiver():
    code, text = run(["topology", "enumerate", "--category", "quiver2"])
    assert code == 0
    assert text.startswith("4 topologies on quiver2")
    # the torsion-pair census, row for row
    assert "1  trivial  0        all" in text
    assert "2  -        V_x = 0  V_y = 0" in text
    assert "3  dense    V_y = 0  ker V_f ∩ ker V_g = 0" in text
    assert "4  maximal  all      0" in text


def test_enumerate_json_counts():
    code, text = run(["--format", "json", "topology", "enumerate",
                      "--category", "quiver2"])
    doc = json.loads(text)
    assert doc["count"] == 4
    assert len(doc["topologies"]) == 4
    names = [t["name"] for t in doc["topologies"]]
    assert set(names) == {"trivial", None, "dense", "maximal"}


def test_enumerate_chain7():
    code, text = run(["--format", "json", "topology", "enumerate",
                      "--category", "chain7"])
    assert code == 0
    assert json.loads(text)["count"] == 128


def test_sheaf_check_verdict(tmp_path):
    code, text = run(["--format", "json", "sheaf", "check",
                      "--category", "quiver2", "--topology", "dense",
                      "--module", SHEAF])
    assert code == 0
    doc = json.loads(text)
    assert doc["sheaf"] is True and doc["consistent"] is True
    # a failed sheaf test is an answer, not an error
    code, text = run(["--format", "json", "sheaf", "check",
                      "--category", "quiver2", "--topology", "maximal",
                      "--module", SHEAF])
    assert code == 0
    doc = json.loads(text)
    assert doc["sheaf"] is False and doc["consistent"] is True


def test_sheaf_check_json_carries_witness_payloads():
    code, text = run(["--format", "json", "sheaf", "check",
                      "--category", "quiver2", "--topology", "dense",
                      "--module", P_Y])
    assert code == 0
    witnesses = json.loads(text)["witnesses"]
    assert witnesses["sheaf"] == {"cokernel": [["x", ["f", "g"], ["1", "0"]]]}
    assert witnesses["saturation"] == {"r1": [["x", 2]]}
    assert witnesses["perpendicular"] == {"ext1": [["x", ["f", "g"]]]}


def test_sheafify_unstable_rule_is_a_verdict(tmp_path):
    # minimum cover {0->2} at 0 exists, but it pulls back along 0->1 to
    # {1->2}, which does not cover 1
    topo = {"covers": {"0": [["0->2"], ["0->1", "0->2"],
                             ["0->1", "0->2", "1_0"]],
                       "1": [["1->2", "1_1"]],
                       "2": [["1_2"]]}}
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(topo))
    cat = fincat.build_poset_category(
        ["0", "1", "2"], [("0", "1"), ("1", "2")], name="chain3")
    module = tmp_path / "module.json"
    module.write_text(json.dumps(modrep.module_to_doc(
        modrep.random_module(cat, GF(2), seed=0, max_dim=2))))
    on = ["--category", "chain3", "--topology", str(path),
          "--module", str(module)]
    code, text = run(["sheaf", "sheafify", *on])
    assert code == 1
    assert text.startswith("StabilityFails:")
    code, _ = run(["sheaf", "check", *on])
    assert code == 1


@pytest.mark.parametrize("name, argv", [
    ("sheafify_quiver2_dense_p_y",
     ["sheaf", "sheafify", "--module", P_Y]),
    ("classify_quiver2_dense_dense_sheaf",
     ["torsion", "classify", "--module", SHEAF]),
    ("equivalence_quiver2_dense", ["sheaf", "equivalence"]),
    ("pair_quiver2_dense", ["torsion", "pair"]),
])
def test_golden_quiver2_dense_json(name, argv):
    code, text = run(["--format", "json", *argv, "--category", "quiver2",
                      "--topology", "dense"])
    assert code == 0
    with open(os.path.join(DATA, "golden", name + ".json"),
              encoding="utf-8") as handle:
        assert text == handle.read()


def test_sheaf_check_inconsistent_row(monkeypatch):
    broken = SheafVerdict(
        separated=True, sheaf=True,
        saturated=SaturationStatus(torsion_free=True, r1_zero=False,
                                   witnesses={}),
        perpendicular=PerpendicularStatus(hom_zero=True, ext1_zero=True,
                                          witnesses={}),
        witnesses={})
    assert not broken.consistent
    monkeypatch.setattr(sheaves, "sheaf_verdict",
                        lambda cat, j, v: broken)
    code, text = run(["sheaf", "check", "--category", "quiver2",
                      "--topology", "dense", "--module", SHEAF])
    assert code == 1
    assert "INCONSISTENT" in text


def test_torsion_classify_table():
    code, text = run(["torsion", "classify", "--category", "quiver2",
                      "--topology", "dense", "--module", P_Y])
    assert code == 0
    assert "torsion_free" in text


def test_torsion_submodule_json():
    code, text = run(["--format", "json", "torsion", "submodule",
                      "--category", "quiver2", "--topology", "maximal",
                      "--module", SHEAF])
    assert code == 0
    doc = json.loads(text)
    assert doc["dims"] == {"x": 2, "y": 1}
    assert doc["module_dims"] == {"x": 2, "y": 1}


def test_torsion_pair_and_roundtrip():
    code, text = run(["--format", "json", "torsion", "pair", "--category",
                      "quiver2", "--topology", "dense", "--samples", "5"])
    assert code == 0
    assert json.loads(text)["passed"] is True
    code, text = run(["--format", "json", "torsion", "roundtrip",
                      "--category", "quiver2", "--topology", "dense",
                      "--field", "Fp:2"])
    assert code == 0
    assert json.loads(text)["agrees"] is True


def test_sheafify_collapses_representable():
    # the rule covering y with the empty sieve wipes out everything above x
    topo = {"covers": {"x": [["1_x", "f", "g"]],
                       "y": [[], ["1_y"]]}}
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as h:
        json.dump(topo, h)
        path = h.name
    try:
        code, text = run(["--format", "json", "sheaf", "sheafify",
                          "--category", "quiver2", "--topology", path,
                          "--module", P_Y])
        assert code == 0
        doc = json.loads(text)
        assert doc["module"]["dims"] == {"x": 0, "y": 0}
    finally:
        os.unlink(path)


def test_rigidity_exit_codes():
    code, text = run(["--format", "json", "topology", "rigidity",
                      "--category", "quiver2", "--topology", "dense"])
    assert code == 0
    assert json.loads(text)["irreducibles"] == ["y"]
    code, text = run(["--format", "json", "topology", "rigidity",
                      "--category", "idem_monoid", "--topology", "dense"])
    assert code == 1
    assert json.loads(text)["rigid"] is False


def test_equivalence_command():
    code, text = run(["--format", "json", "sheaf", "equivalence",
                      "--category", "quiver2", "--topology", "dense",
                      "--samples", "4"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True and doc["irreducibles"] == ["y"]
    # a non-rigid rule is a precondition failure, not a verdict
    code, _ = run(["sheaf", "equivalence", "--category", "idem_monoid",
                   "--topology", "dense"])
    assert code == 1


def test_typen_census_output():
    code, text = run(["typen", "census", "--horizon", "3"])
    assert code == 0
    assert text == "generic: 8, nongeneric: 8\n"
    code, text = run(["--format", "json", "typen", "census",
                      "--horizon", "1"])
    doc = json.loads(text)
    assert doc["generic_count"] == 2 and doc["nongeneric_count"] == 2
    assert doc["generic"][0] == {"indicator": [0], "kind": "generic",
                                 "tail": 0}


def test_typen_validate_short_horizon_is_malformed():
    spec = '{"kind": "nongeneric", "indicator": [1], "cutoff": 1}'
    code, text = run(["typen", "validate", "--spec", spec])
    assert code == 1
    assert "1 must be followed by 0, got -inf" in text
    code, text = run(["typen", "validate", "--spec", spec, "--horizon", "1"])
    assert code == 2
    assert "MalformedInput" in text


def test_typen_validate_reports_rigidity():
    code, text = run(["--format", "json", "typen", "validate",
                      "--spec", SPEC_110])
    assert code == 0
    doc = json.loads(text)
    assert doc["valid"] is True and doc["rigid"] is True
    code, text = run(["--format", "json", "typen", "validate", "--spec",
                      '{"kind": "generic", "indicator": [], "tail": 1}'])
    assert code == 0
    assert json.loads(text)["rigid"] is False


def test_typen_crosscheck_command():
    code, text = run(["--format", "json", "typen", "crosscheck",
                      "--spec", SPEC_110, "--horizon", "3"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["transitivity"] == "skipped"


def test_category_build_roundtrips(tmp_path):
    code, text = run(["--format", "json", "category", "build",
                      "--kind", "trunc_fi", "--params", '{"n": 2}'])
    assert code == 0
    doc = json.loads(text)
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(doc))
    code, text = run(["--format", "json", "category", "validate",
                      "--category", str(path)])
    assert code == 0
    assert json.loads(text)["ok"] is True


def test_category_validate_reports_violations(tmp_path):
    doc = json.load(open(QUIVER))
    doc["compose"] = [row for row in doc["compose"]
                      if row != ["1_y", "f", "f"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, text = run(["--format", "json", "category", "validate",
                      "--category", str(path)])
    assert code == 1
    parsed = json.loads(text)
    assert parsed["ok"] is False
    assert parsed["violations"]


@pytest.mark.parametrize("error", (KeyError, ValueError))
def test_library_bug_is_not_an_input_error(monkeypatch, error):
    # a builtin raised inside a library call is a bug, not bad input: it
    # propagates instead of becoming exit 2
    def broken(cat, j, v):
        raise error("internal")

    monkeypatch.setattr(torsion, "torsion_class", broken)
    with pytest.raises(error):
        run(["torsion", "classify", "--category", "quiver2",
             "--topology", "dense", "--module", SHEAF])


@pytest.mark.parametrize("patched, argv", (
    ("check_stability_only",
     ["typen", "crosscheck", "--spec", SPEC_110, "--horizon", "2"]),
    ("validate_spec", ["typen", "census", "--horizon", "2"]),
    ("validate_d_sequence",
     ["typen", "validate", "--spec", SPEC_110, "--horizon", "4"])))
def test_typen_library_bug_is_not_an_input_error(monkeypatch, patched, argv):
    # only the horizon is input; a KeyError inside the library call is a bug
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(typen, patched, broken)
    with pytest.raises(KeyError):
        run(argv)
    code, text = run([*argv[:-1], "-1"])
    assert code == 2
    assert text == "error: horizon: MalformedInput: horizon must be natural\n"


TRUNC_FI2_SHEAF_CHECK = [
    "sheaf", "check", "--category", os.path.join(DATA, "trunc_fi2.json"),
    "--topology", os.path.join(DATA, "trunc_fi2_rule.json"),
    "--module", os.path.join(DATA, "trunc_fi2_module.json")]


def test_module_check_bug_is_not_an_input_error(monkeypatch, tmp_path):
    # the module document is input, but an error raised while checking the
    # module's identities and functoriality is a bug
    assert run(TRUNC_FI2_SHEAF_CHECK)[0] == 0

    def broken(*args):
        raise IndexError("internal")

    monkeypatch.setattr(linalg, "matmul", broken)
    with pytest.raises(IndexError) as caught:
        run(TRUNC_FI2_SHEAF_CHECK)
    assert any(entry.name == "_module_violations"
               for entry in caught.traceback)
    monkeypatch.undo()
    with open(TRUNC_FI2_SHEAF_CHECK[-1], encoding="utf-8") as fh:
        doc = json.load(fh)
    for broken_doc, text in (
            ({k: v for k, v in doc.items() if k != "field"},
             "missing key 'field'"),
            (dict(doc, dims=dict(doc["dims"], **{"0": "x"})),
             "invalid literal for int() with base 10: 'x'"),
            (dict(doc, field={"Fp": 4}), "field order must be prime, got 4")):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(broken_doc))
        code, out = run([*TRUNC_FI2_SHEAF_CHECK[:-1], str(path)])
        assert (code, out) == (2, f"error: module: MalformedInput: {text}\n")


def test_category_check_bug_is_not_an_input_error(monkeypatch, tmp_path):
    # the category document is input, but an error raised while checking
    # the category's axioms is a bug
    argv = ["topology", "check", "--category",
            os.path.join(DATA, "trunc_fi2.json"), "--topology", "dense"]
    assert run(argv)[0] == 0

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(fincat, "_collect_violations", broken)
    with pytest.raises(KeyError):
        run(argv)
    monkeypatch.undo()
    with open(argv[3], encoding="utf-8") as fh:
        doc = json.load(fh)
    for broken_doc, text in (
            ({k: v for k, v in doc.items() if k != "compose"},
             "missing key 'compose'"),
            (dict(doc, objects=7), "'int' object is not iterable"),
            (dict(doc, compose=[["a", "b"]]),
             "not enough values to unpack (expected 3, got 2)")):
        path = tmp_path / "category.json"
        path.write_text(json.dumps(broken_doc))
        code, out = run([*argv[:3], str(path), *argv[4:]])
        assert (code, out) == (2, f"error: category: MalformedInput: {text}\n")


@pytest.mark.parametrize("name", ["trunc_fi:2", "trunc_vi:2:1", "chain3",
                                  "quiver2", "diamond", "orbit:C2"])
def test_builtin_category_bug_is_not_an_input_error(monkeypatch, name):
    # a stock category's name is input, but an error raised while building
    # or checking the category is a bug
    argv = ["topology", "check", "--category", name, "--topology", "dense"]
    assert run(argv)[0] == 0

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(fincat, "_collect_violations", broken)
    with pytest.raises(KeyError):
        run(argv)


@pytest.mark.parametrize(("name", "text"), [
    ("trunc_vi:4:2", "field order must be prime, got 4"),
    ("trunc_vi:4:x", "invalid literal for int() with base 10: 'x'"),
    ("trunc_vi:2", "not enough values to unpack (expected 3, got 2)"),
    ("trunc_fi:", "invalid literal for int() with base 10: ''"),
    ("chain-1", "chain length must be natural, got -1"),
    ("trunc_fi:-1", "truncation size must be natural, got -1"),
    ("trunc_vi:2:-1", "truncation size must be natural, got -1"),
    ("nowhere", "unknown builtin category 'nowhere'"),
])
def test_bad_builtin_names_are_input_errors(name, text):
    code, out = run(["topology", "enumerate", "--category", name])
    assert (code, out) == (2, f"error: category: MalformedInput: {text}\n")


def test_category_build_bug_is_not_an_input_error(monkeypatch):
    # the params are input, but an error raised while building or checking
    # the category they describe is a bug
    argv = ["category", "build", "--kind", "trunc_fi", "--params", '{"n": 2}']
    assert run(argv)[0] == 0

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(fincat, "_collect_violations", broken)
    with pytest.raises(KeyError):
        run(argv)


@pytest.mark.parametrize(("kind", "params", "text"), [
    ("trunc_fi", '{"n": -1}', "truncation size must be natural, got -1"),
    ("trunc_vi", '{"q": 2, "n": -2}', "truncation size must be natural, got -2"),
    ("trunc_vi", '{"q": 4, "n": 1}', "field order must be prime, got 4"),
    ("trunc_fi", '{}', "missing key 'n'"),
    ("poset", '{"objects": ["a", 1]}', "expected strings for objects, got ['a', 1]"),
    ("poset", '{"objects": [["a"]]}', "expected strings for objects, got [['a']]"),
    ("poset", '{"objects": ["a", "b"], "leq": [["a"]]}',
     "expected 2 entries for a leq pair, got ['a']"),
    ("free_acyclic_quiver", '{"vertices": ["x"], "arrows": [["f", "x"]]}',
     "expected 3 entries for an arrow (id, source, target),"
     " got ['f', 'x']"),
    ("orbit", '{"group": [[0, 1], [1, 0]], "subgroups": [[0, 2]]}',
     "group elements must be indices into the table"),
    ("orbit", '{"group": [[0, 1], [1, -1]]}',
     "group elements must be indices into the table"),
    ("poset", '{"objects": [], "name": 5}', "expected strings for the name, got [5]"),
    ("orbit", '{"group": "C2", "subgroups": [["0", "x"]]}',
     "invalid literal for int() with base 10: 'x'"),
])
def test_bad_category_params_are_input_errors(kind, params, text):
    code, out = run(["category", "build", "--kind", kind, "--params", params])
    assert (code, out) == (2, f"error: params: MalformedInput: {text}\n")


def test_long_chain_is_refused_before_its_closure():
    # the poset builder checks the object budget before it reads a pair:
    # the transitive closure of chain99999 would hold about 5e9 pairs
    def pairs():
        raise AssertionError("the closure started")
        yield

    with pytest.raises(SizeBudgetExceeded, match="65 objects exceeds"):
        fincat.build_poset_category([str(i) for i in range(65)], pairs())
    assert run(["topology", "enumerate", "--category", "chain65"]) == (
        3, "SizeBudgetExceeded: 65 objects exceeds budget 64\n")


def test_topology_check_bug_is_not_an_input_error(monkeypatch, tmp_path):
    # likewise the topology document: a builtin raised while making its
    # sieves is a bug, not bad input
    argv = ["topology", "check", *TRUNC_FI2_SHEAF_CHECK[2:-2]]
    assert run(argv)[0] == 0

    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(topology, "make_sieve", broken)
    with pytest.raises(KeyError):
        run(argv)
    monkeypatch.undo()
    for broken_doc, text in (({}, "missing key 'covers'"),
                             ({"covers": {"0": 5}},
                              "'int' object is not iterable")):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(broken_doc))
        code, out = run([*argv[:-1], str(path)])
        assert (code, out) == (2, f"error: topology: MalformedInput: {text}\n")


def test_wrongly_shaped_documents_are_exit_2(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    dims_listed = tmp_path / "dims.json"
    dims_listed.write_text(json.dumps({"field": "Q", "dims": [1]}))
    for argv in (
            ["category", "validate", "--category", str(listed)],
            ["topology", "check", "--category", "quiver2",
             "--topology", str(listed)],
            ["sheaf", "check", "--category", "quiver2", "--topology", "dense",
             "--module", str(dims_listed)],
            ["typen", "validate", "--spec", str(listed)],
            ["category", "build", "--kind", "poset", "--params", "[1]"],
            ["torsion", "pair", "--category", "quiver2", "--topology", "dense",
             "--field", "Fp:4"]):
        code, text = run(argv)
        assert code == 2, (argv, text)
        assert text.startswith("error: ") and "MalformedInput" in text, text


_IMPORT_GUARD = """
import sys
import finsite.cli
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, name + " imported"
made = [f"{mod}.{key}" for mod, m in list(sys.modules.items())
        if mod.split(".")[0] == "finsite" for key, value in vars(m).items()
        if isinstance(value, type) and hasattr(value, "__dataclass_fields__")]
assert not made, made
"""


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI call pays this import: a frozen dataclass generates its
    # methods by exec at each interpreter start, and importing dataclasses
    # also imports inspect. -S keeps site's own imports out of the check.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(finsite.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORT_GUARD],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
