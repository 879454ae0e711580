from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import linalg
from finsite.linalg import GF, QQ, Mat, from_cols, from_rows


def F(*args) -> Fraction:
    return Fraction(*args)


def test_field_arithmetic_rationals():
    assert QQ.add(F(1, ), F(2)) == F(3)
    assert QQ.inv(F(-3, )) == F(-1, 3)
    assert QQ.parse("-3/7") == Fraction(-3, 7)
    assert QQ.fmt(Fraction(-3, 7)) == "-3/7"


def test_field_arithmetic_mod_p():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.of(-1) == 4
    assert f5.parse("-1") == 4
    assert f5.elements() == [0, 1, 2, 3, 4]


def test_nonprime_field_rejected():
    with pytest.raises(ValueError):
        GF(6)


def test_rref_and_rank():
    a = from_rows([[F(1), F(2)], [F(2), F(4)]])
    r, pivots = linalg.rref(QQ, a)
    assert pivots == (0,)
    assert r.entries == ((F(1), F(2)), (F(0), F(0)))
    assert linalg.rank(QQ, a) == 1


def test_kernel_basis_canonical():
    a = from_rows([[F(1), F(2), F(3)]])
    basis = linalg.kernel_basis(QQ, a)
    assert basis == [(F(-2), F(1), F(0)), (F(-3), F(0), F(1))]
    for v in basis:
        assert linalg.matmul(QQ, a, from_cols([v])).entries == ((F(0),),)


def test_solve_and_inverse():
    a = from_rows([[F(2), F(1)], [F(1), F(1)]])
    x = linalg.solve(QQ, a, (F(3), F(2)))
    assert x == (F(1), F(1))
    inv = linalg.inverse(QQ, a)
    assert linalg.matmul(QQ, a, inv).entries == linalg.identity(QQ, 2).entries
    singular = from_rows([[F(1), F(1)], [F(1), F(1)]])
    assert linalg.inverse(QQ, singular) is None
    assert linalg.solve(QQ, singular, (F(0), F(1))) is None


def test_zero_shape_matrices():
    a = linalg.zeros(QQ, 0, 3)
    assert linalg.kernel_basis(QQ, a) == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    b = linalg.zeros(QQ, 3, 0)
    assert linalg.rank(QQ, b) == 0
    assert linalg.kernel_basis(QQ, b) == []
    assert linalg.matmul(QQ, a, linalg.zeros(QQ, 3, 2)).rows == 0


def test_span_intersection():
    e1, e2, e3 = (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))
    plane12 = [e1, e2]
    plane23 = [e2, e3]
    meet = linalg.intersect_spans(QQ, plane12, plane23, 3)
    assert len(meet) == 1
    assert linalg.in_span(QQ, [e2], meet[0], 3)


def test_serialization_roundtrip():
    a = from_rows([[F(1, 2), F(-3)], [F(0), F(5, 7)]])
    s = linalg.mat_to_strings(QQ, a)
    assert s == [["1/2", "-3"], ["0", "5/7"]]
    back = linalg.mat_from_strings(QQ, s, (2, 2))
    assert back == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_kernel_vectors_annihilate(rows):
    a = from_rows([[F(x) for x in r] for r in rows])
    for v in linalg.kernel_basis(QQ, a):
        prod = linalg.matmul(QQ, a, from_cols([v]))
        assert linalg.mat_eq_zero(prod)
    assert linalg.rank(QQ, a) + len(linalg.kernel_basis(QQ, a)) == a.cols


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_nullity_mod_p(rows):
    f3 = GF(3)
    a = from_rows(rows)
    assert linalg.rank(f3, a) + len(linalg.kernel_basis(f3, a)) == a.cols


FIELDS = (GF(2), GF(3), QQ)


@st.composite
def systems(draw):
    """(field, a, b): shapes from 0 up, half of them with b = a x."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols, rhs = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-2, 2).map(field.of)

    def matrix(r, c):
        return Mat(r, c, tuple(tuple(draw(entry) for _ in range(c))
                               for _ in range(r)))

    a = matrix(rows, cols)
    b = (linalg.matmul(field, a, matrix(cols, rhs)) if draw(st.booleans())
         else matrix(rows, rhs))
    return field, a, b


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matrix_matches_per_column_solve(system):
    field, a, b = system
    per_column = [linalg.solve(field, a, b.col(j)) for j in range(b.cols)]
    got = linalg.solve_matrix(field, a, b)
    if any(x is None for x in per_column):
        assert got is None
    else:
        assert got == from_cols(per_column, rows=a.cols)


@pytest.mark.parametrize("field", FIELDS)
def test_solve_matrix_degenerate_shapes(field):
    def zeros(r, c):
        return linalg.zeros(field, r, c)

    assert linalg.solve_matrix(field, zeros(0, 3), zeros(0, 2)) == zeros(3, 2)
    assert linalg.solve_matrix(field, zeros(2, 0), zeros(2, 3)) == zeros(0, 3)
    unsolvable = from_rows([[field.one()], [field.zero()]])
    assert linalg.solve_matrix(field, zeros(2, 0), unsolvable) is None
    identity = linalg.identity(field, 2)
    assert linalg.solve_matrix(field, identity, zeros(2, 0)) == zeros(2, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.data())
def test_complement_indices_match_in_span_scan(field, dim, data):
    entry = st.integers(-2, 2).map(field.of)
    vectors = data.draw(st.lists(st.tuples(*[entry] * dim), max_size=4))
    units = [linalg.identity(field, dim).col(i) for i in range(dim)]
    picked: list[int] = []
    span = list(vectors)
    for i, e in enumerate(units):
        if not linalg.in_span(field, span, e, dim):
            picked.append(i)
            span.append(e)
    got = linalg.complement_indices(field, vectors, dim)
    assert got == picked
    rank = len(linalg.span_basis(field, vectors, dim))
    assert rank + len(got) == dim
