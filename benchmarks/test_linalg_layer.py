"""Microbenchmarks of the linalg layer at the sizes the system sees.

The sheaf and torsion checks solve thousands of tiny exact systems, so the
per-call cost of building a `Mat` and of the kernels on 2x2 to 6x9
matrices is what these measure, over F2, F3 and Q. More than half of the
matrices a sheaf check builds have a zero dimension, so the empty shapes
get rows of their own. They are not part of the tier-1 suite (`testpaths`
lists only `tests`); run them with

    python -m pytest benchmarks --benchmark-only

Inputs are drawn from a fixed seed, so every run times the same matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from finsite import linalg
from finsite.linalg import GF, QQ, Mat

FIELDS = {"F2": GF(2), "F3": GF(3), "Q": QQ}
SHAPES = ((2, 2), (3, 3), (6, 9))

shaped = pytest.mark.parametrize(
    "label,shape", [(f, s) for f in FIELDS for s in SHAPES],
    ids=[f"{f}-{r}x{c}" for f in FIELDS for r, c in SHAPES])


def _entries(field, rows, cols, seed):
    rng = random.Random(seed)

    def draw():
        if field.p is None:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(field.p)

    return tuple(tuple(draw() for _ in range(cols)) for _ in range(rows))


def _mat(field, rows, cols, seed):
    return Mat(rows, cols, _entries(field, rows, cols, seed))


@shaped
def test_mat_construction(benchmark, label, shape):
    rows, cols = shape
    entries = _entries(FIELDS[label], rows, cols, 1)
    benchmark(Mat, rows, cols, entries)


@shaped
def test_matmul(benchmark, label, shape):
    field = FIELDS[label]
    rows, cols = shape
    a, b = _mat(field, rows, cols, 1), _mat(field, cols, rows, 2)
    benchmark(linalg.matmul, field, a, b)


@shaped
def test_rref(benchmark, label, shape):
    field = FIELDS[label]
    benchmark(linalg.rref, field, _mat(field, *shape, 1))


@shaped
def test_solve_matrix(benchmark, label, shape):
    field = FIELDS[label]
    rows, cols = shape
    a = _mat(field, rows, cols, 1)
    b = linalg.matmul(field, a, _mat(field, cols, 2, 2))  # a solvable system
    assert benchmark(linalg.solve_matrix, field, a, b) is not None


zeros = linalg.zeros
EMPTY_CASES = {
    "Mat-0x0": lambda field: (Mat, 0, 0, ()),
    "matmul-0x0.0x0": lambda field: (linalg.matmul, field, zeros(field, 0, 0),
                                     zeros(field, 0, 0)),
    "matmul-2x0.0x3": lambda field: (linalg.matmul, field, zeros(field, 2, 0),
                                     zeros(field, 0, 3)),
    "rref-0x3": lambda field: (linalg.rref, field, zeros(field, 0, 3)),
    "rref-3x0": lambda field: (linalg.rref, field, zeros(field, 3, 0)),
}


@pytest.mark.parametrize("label", FIELDS)
@pytest.mark.parametrize("case", EMPTY_CASES)
def test_empty_shapes(benchmark, label, case):
    benchmark(*EMPTY_CASES[case](FIELDS[label]))
