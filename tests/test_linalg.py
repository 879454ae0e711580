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
    singular = from_rows([[F(1), F(1)], [F(1), F(1)]])
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


# ---------------------------------------------------------------------------
# per-field kernels and Echelon against FieldSpec-dispatch references: the
# generic scalar-at-a-time code the kernels replaced, kept here as oracles

def ref_matmul(field, a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = field.zero()
            for k in range(a.cols):
                acc = field.add(acc, field.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return Mat(a.rows, b.cols, tuple(out))


def ref_mat_vec(field, a, v):
    return ref_matmul(field, a, from_cols([v], rows=a.cols)).col(0)


def ref_mat_add(field, a, b):
    return Mat(a.rows, a.cols, tuple(
        tuple(field.add(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a.entries, b.entries)))


def ref_mat_scale(field, c, a):
    return Mat(a.rows, a.cols, tuple(tuple(field.mul(c, x) for x in r)
                                     for r in a.entries))


def ref_rref(field, a):
    m = [list(r) for r in a.entries]
    pivots = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        pr = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Mat(a.rows, a.cols, tuple(tuple(row) for row in m)), tuple(pivots)


def ref_span_basis(field, vectors, dim):
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    m = from_cols(vecs, rows=dim)
    return [m.col(j) for j in ref_rref(field, m)[1]]


def ref_in_span(field, basis, v, dim):
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    aug = from_cols(list(basis) + [v], rows=dim)
    return len(basis) not in ref_rref(field, aug)[1]


def ref_complement_indices(field, vectors, dim):
    k = len(vectors)
    stacked = linalg.hstack([from_cols(vectors, rows=dim),
                             linalg.identity(field, dim)], rows=dim)
    return [p - k for p in ref_rref(field, stacked)[1] if p >= k]


ALL_FIELDS = (GF(2), GF(3), GF(5), QQ)


def entries(field):
    if field.is_finite:
        return st.integers(0, field.p - 1)
    return st.fractions(-3, 3, max_denominator=3)


@st.composite
def kernel_inputs(draw):
    """(field, a, b, c, v, scalar): a and c r x k, b k x n, v of length k,
    every dimension from 0 up."""
    field = draw(st.sampled_from(ALL_FIELDS))
    r, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    entry = entries(field)

    def matrix(rows, cols):
        return Mat(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                     for _ in range(rows)))

    v = tuple(draw(entry) for _ in range(k))
    return field, matrix(r, k), matrix(k, n), matrix(r, k), v, draw(entry)


@settings(max_examples=250, deadline=None)
@given(kernel_inputs())
def test_kernels_match_reference(inputs):
    field, a, b, c, v, s = inputs
    for got, want in (
            (linalg.matmul(field, a, b), ref_matmul(field, a, b)),
            (linalg.mat_add(field, a, c), ref_mat_add(field, a, c)),
            (linalg.mat_scale(field, s, a), ref_mat_scale(field, s, a)),
            (linalg.rref(field, a)[0], ref_rref(field, a)[0]),
            (linalg.rref(field, linalg.hstack([a, c], rows=a.rows))[0],
             ref_rref(field, linalg.hstack([a, c], rows=a.rows))[0])):
        assert got == want
        assert (linalg.mat_to_strings(field, got)
                == linalg.mat_to_strings(field, want))
    assert linalg.rref(field, a)[1] == ref_rref(field, a)[1]
    assert linalg.mat_vec(field, a, v) == ref_mat_vec(field, a, v)


@st.composite
def vector_families(draw):
    """(field, dim, vectors): drawn vectors followed by linear combinations
    of earlier ones, so dependent and zero vectors occur over every field."""
    field = draw(st.sampled_from(ALL_FIELDS))
    dim = draw(st.integers(0, 5))
    entry = entries(field)
    vectors = [tuple(draw(entry) for _ in range(dim))
               for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        if not vectors:
            break
        picks = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
        combo = [field.zero()] * dim
        for w in picks:
            c = draw(entry)
            combo = [field.add(x, field.mul(c, y)) for x, y in zip(combo, w)]
        vectors.insert(draw(st.integers(0, len(vectors))), tuple(combo))
    return field, dim, vectors


@settings(max_examples=250, deadline=None)
@given(vector_families(), st.data())
def test_echelon_matches_rref_oracles(family, data):
    field, dim, vectors = family
    span = linalg.Echelon(field, dim)
    kept = [span.add(v) for v in vectors]
    basis = ref_span_basis(field, vectors, dim)
    assert span.basis == basis
    assert [v for v, k in zip(vectors, kept) if k] == basis
    assert span.rank == len(basis)
    assert linalg.span_basis(field, vectors, dim) == basis
    entry = entries(field)
    probes = [tuple(data.draw(entry) for _ in range(dim)) for _ in range(3)]
    probes += list(vectors) + [linalg.identity(field, dim).col(i)
                               for i in range(dim)]
    for w in probes:
        want = ref_in_span(field, basis, w, dim)
        assert span.contains(w) == want
        assert linalg.in_span(field, vectors, w, dim) == want
    complement = ref_complement_indices(field, vectors, dim)
    assert linalg.complement_indices(field, vectors, dim) == complement
    assert span.missing_unit() == (complement[0] if complement else None)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_kernels_on_empty_shapes(field):
    zeros = linalg.zeros
    assert linalg.matmul(field, zeros(field, 2, 0), zeros(field, 0, 3)) \
        == zeros(field, 2, 3)
    assert linalg.matmul(field, zeros(field, 0, 2), zeros(field, 2, 3)) \
        == zeros(field, 0, 3)
    assert linalg.matmul(field, zeros(field, 2, 3), zeros(field, 3, 0)) \
        == zeros(field, 2, 0)
    assert linalg.mat_vec(field, zeros(field, 2, 0), ()) == (field.zero(),) * 2
    assert linalg.mat_vec(field, zeros(field, 0, 2), (field.one(),) * 2) == ()
    for shape in ((0, 3), (3, 0), (0, 0)):
        assert linalg.rref(field, zeros(field, *shape)) == (zeros(field, *shape), ())
        assert linalg.mat_add(field, zeros(field, *shape), zeros(field, *shape)) \
            == zeros(field, *shape)
    empty = linalg.Echelon(field, 0)
    assert not empty.add(()) and empty.contains(()) and empty.missing_unit() is None
    assert empty.basis == [] and linalg.complement_indices(field, [], 0) == []
