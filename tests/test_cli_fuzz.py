"""Malformed CLI documents are unusable input, never a traceback.

Each example breaks one of the three documents that `sheaf check` reads
(the category, the topology and the module, all on quiver2) in one way
that leaves it unusable: truncated JSON, a value of the wrong type, an
unknown object or morphism, a sieve that is not closed under
postcomposition, or a ragged matrix. `cli.run` must answer exit 2 with an
`error:` message; any exception escaping it is a library bug.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.cli import run

DATA = os.path.join(os.path.dirname(__file__), "data")


def _read(name: str):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return json.load(handle)


VALID = {
    "category": _read("quiver2.json"),
    "topology": {"covers": {"x": [["f", "g"], ["1_x", "f", "g"]],
                            "y": [["1_y"]]}},
    "module": _read("dense_sheaf.json"),
}
OUTS = {"x": ("1_x", "f", "g"), "y": ("1_y",)}
SUCCESSORS = {"1_x": {"f", "g"}, "f": set(), "g": set(), "1_y": set()}
UNCLOSED = [list(s) for r in range(1, 4)
            for s in itertools.combinations(OUTS["x"], r)
            if not all(SUCCESSORS[m] <= set(s) for m in s)]

# values that no reader accepts where a list, object or count belongs
NOT_A_CONTAINER = st.sampled_from([None, 0, 7, 1.5, True])
NOT_A_NAME = st.one_of(NOT_A_CONTAINER, st.sampled_from([[], {}, "zz", "1_z"]))


@st.composite
def malformed(draw):
    """(document name, text of a broken document)."""
    kind = draw(st.sampled_from(
        ["truncated", "not an object", "wrong type", "unknown object",
         "unknown morphism", "unclosed sieve", "ragged matrix"]))
    name = draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[name])
    if kind == "truncated":
        text = json.dumps(doc)
        return name, text[:draw(st.integers(0, len(text) - 1))]
    if kind == "not an object":
        return name, json.dumps(draw(st.one_of(
            NOT_A_CONTAINER, st.sampled_from(["text", [], [1, 2]]))))
    if kind == "wrong type":
        if name == "category":
            where = draw(st.sampled_from(["document", "morphism", "composite"]))
            if where == "document":
                doc[draw(st.sampled_from(
                    ["objects", "morphisms", "compose", "identities"]))] = \
                    draw(NOT_A_CONTAINER)
            elif where == "morphism":
                i = draw(st.integers(0, len(doc["morphisms"]) - 1))
                doc["morphisms"][i][draw(st.sampled_from(
                    ["id", "dom", "cod"]))] = draw(NOT_A_NAME)
            else:
                i = draw(st.integers(0, len(doc["compose"]) - 1))
                doc["compose"][i][draw(st.integers(0, 2))] = draw(NOT_A_NAME)
        elif name == "topology":
            x = draw(st.sampled_from(sorted(doc["covers"])))
            where = draw(st.sampled_from(["covers", "sieves", "sieve",
                                          "member"]))
            if where == "covers":
                doc["covers"] = draw(NOT_A_CONTAINER)
            elif where == "sieves":
                doc["covers"][x] = draw(NOT_A_CONTAINER)
            elif where == "sieve":
                doc["covers"][x][0] = draw(NOT_A_CONTAINER)
            else:
                doc["covers"][x][-1][0] = draw(NOT_A_NAME)
        else:
            where = draw(st.sampled_from(["field", "dims", "action",
                                          "matrix", "entry"]))
            if where == "field":
                doc["field"] = draw(NOT_A_NAME)
            elif where == "dims":
                doc["dims"]["x"] = draw(st.sampled_from([None, [], {}, "two"]))
            elif where == "action":
                doc["action"] = draw(st.sampled_from([None, 0, [1], "f"]))
            elif where == "matrix":
                doc["action"]["f"] = draw(NOT_A_CONTAINER)
            else:
                doc["action"]["1_x"][1][0] = draw(st.sampled_from(
                    [None, [], {}, "zz", "1/0"]))
        return name, json.dumps(doc)
    # the remaining kinds break the topology or the module by name
    name = "module" if kind == "ragged matrix" else (
        "topology" if kind == "unclosed sieve"
        else draw(st.sampled_from(["topology", "module"])))
    doc = copy.deepcopy(VALID[name])
    if kind == "unknown object":
        stray = draw(st.sampled_from(["z", "xx", "0", ""]))
        if name == "module":
            doc["dims"][stray] = 1
        else:
            doc["covers"][stray] = []
    elif kind == "unknown morphism":
        stray = draw(st.sampled_from(["h", "1_z", "f.g", ""]))
        if name == "module":
            doc["action"][stray] = [["1", "0"]]
        else:
            doc["covers"]["x"].append(["1_x", "f", "g", stray])
    elif kind == "unclosed sieve":
        doc["covers"]["x"].append(draw(st.sampled_from(UNCLOSED)))
    else:
        f = draw(st.sampled_from(sorted(doc["action"])))
        rows = doc["action"][f]
        how = draw(st.sampled_from(["long row", "short row", "extra row",
                                    "missing row"]))
        if how == "long row":
            rows[-1].append("0")
        elif how == "short row":
            rows[-1].pop()
        elif how == "extra row":
            rows.append(["0"] * (len(rows[0]) + draw(st.integers(0, 1))))
        else:
            rows.pop()
    return name, json.dumps(doc)


def sheaf_check(texts: dict[str, str]) -> tuple[int, str]:
    """Run `sheaf check` on the three documents, given as JSON texts."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        return run(["sheaf", "check", "--category", paths["category"],
                    "--topology", paths["topology"],
                    "--module", paths["module"]])


def test_the_unbroken_documents_are_usable():
    code, out = sheaf_check({name: json.dumps(doc)
                             for name, doc in VALID.items()})
    assert code == 0, out


@settings(max_examples=300, deadline=None)
@given(malformed())
def test_malformed_documents_exit_2(broken):
    name, text = broken
    texts = {other: json.dumps(doc) for other, doc in VALID.items()}
    texts[name] = text
    code, out = sheaf_check(texts)
    assert code == 2, (name, text, code, out)
    assert out.startswith("error:"), out
