from __future__ import annotations

import copy
import itertools
import pickle
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import linalg, modrep
from finsite.errors import ShapeMismatch
from finsite.linalg import GF, QQ, Mat, from_cols, from_rows

from conftest import chain, hstack


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


def solve(field, a: Mat, b: tuple) -> tuple | None:
    """One solution of a x = b, or None; free variables 0. The
    one-right-hand-side reference that solve_matrix is tested against."""
    if len(b) != a.rows:
        raise ShapeMismatch("rhs length mismatch")
    aug = Mat(a.rows, a.cols + 1,
              tuple(r + (b[i],) for i, r in enumerate(a.entries)))
    r, pivots = linalg.rref(field, aug)
    if a.cols in pivots:
        return None
    x = [field.zero()] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.entries[i][a.cols]
    return tuple(x)


def test_solve_and_inverse():
    a = from_rows([[F(2), F(1)], [F(1), F(1)]])
    x = solve(QQ, a, (F(3), F(2)))
    assert x == (F(1), F(1))
    singular = from_rows([[F(1), F(1)], [F(1), F(1)]])
    assert solve(QQ, singular, (F(0), F(1))) is None


@pytest.mark.parametrize("field", (GF(2), GF(3), QQ))
def test_identity_is_built_once_per_field_and_size(field):
    for n in range(5):
        fresh = Mat(n, n, tuple(tuple(field.one() if i == j else field.zero()
                                      for j in range(n)) for i in range(n)))
        first = linalg.identity(field, n)
        assert first == fresh
        assert all(type(x) is type(field.one()) for r in first.entries
                   for x in r)
        assert linalg.identity(field, n) is first
        assert linalg._identities[field.p, n] is first


@pytest.mark.parametrize("field", (GF(2), GF(3), QQ))
def test_zeros_are_built_once_per_field_and_shape(field):
    for r, c in itertools.product(range(4), repeat=2):
        fresh = Mat(r, c, tuple(tuple(field.zero() for _ in range(c))
                                for _ in range(r)))
        first = linalg.zeros(field, r, c)
        assert first == fresh
        assert all(type(x) is type(field.zero()) for row in first.entries
                   for x in row)
        assert linalg.zeros(field, r, c) is first
        # a zero inner dimension gives that shared zero, with no arithmetic
        product = linalg.matmul(field, linalg.zeros(field, r, 0),
                                linalg.zeros(field, 0, c))
        assert product is first
        if r and c:
            continue
        # an empty shape holds no entries: one matrix serves every field,
        # and the builders that meet the shape hand it out too
        assert all(linalg.zeros(other, r, c) is first
                   for other in (GF(2), GF(3), QQ))
        assert from_cols([(field.zero(),) * r] * c, rows=r) is first
        assert linalg.vstack([first, linalg.zeros(field, 0, c)]) is first
        if not r:
            assert linalg.vstack([], cols=c) is first
    # maps between P(0) on chain2 and the zero module have empty components
    cat = chain(2)
    p = modrep.yoneda_module(cat, field, "0")
    zero = modrep.zero_module(cat, field)
    for m in (modrep.map_from_vector(p, zero, ()),
              modrep.map_from_vector(zero, p, ())):
        for comp in m.components.values():
            assert comp is linalg.zeros(GF(2), comp.rows, comp.cols)


def test_zero_shape_matrices():
    a = linalg.zeros(QQ, 0, 3)
    assert linalg.kernel_basis(QQ, a) == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    b = linalg.zeros(QQ, 3, 0)
    assert linalg.rank(QQ, b) == 0
    assert linalg.kernel_basis(QQ, b) == []
    assert linalg.matmul(QQ, a, linalg.zeros(QQ, 3, 2)).rows == 0


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
    per_column = [solve(field, a, b.col(j)) for j in range(b.cols)]
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
        if not linalg.Echelon(field, dim, span).contains(e):
            picked.append(i)
            span.append(e)
    # the greedy complement, grown in one Echelon
    grown = linalg.Echelon(field, dim, vectors)
    got = [i for i, e in enumerate(units) if grown.add(e)]
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
    stacked = hstack([from_cols(vectors, rows=dim),
                      linalg.identity(field, dim)], rows=dim)
    return [p - k for p in ref_rref(field, stacked)[1] if p >= k]


ALL_FIELDS = (GF(2), GF(3), GF(5), QQ)


def entries(field):
    if field.is_finite:
        return st.integers(0, field.p - 1)
    return st.fractions(-3, 3, max_denominator=3)


@st.composite
def kernel_inputs(draw):
    """(field, a, b, c, v): a and c r x k, b k x n, v of length k, every
    dimension from 0 up."""
    field = draw(st.sampled_from(ALL_FIELDS))
    r, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    entry = entries(field)

    def matrix(rows, cols):
        return Mat(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                     for _ in range(rows)))

    v = tuple(draw(entry) for _ in range(k))
    return field, matrix(r, k), matrix(k, n), matrix(r, k), v


@settings(max_examples=250, deadline=None)
@given(kernel_inputs())
def test_kernels_match_reference(inputs):
    field, a, b, c, v = inputs
    for got, want in (
            (linalg.matmul(field, a, b), ref_matmul(field, a, b)),
            (linalg.rref(field, a)[0], ref_rref(field, a)[0]),
            (linalg.rref(field, hstack([a, c], rows=a.rows))[0],
             ref_rref(field, hstack([a, c], rows=a.rows))[0])):
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
    complement = ref_complement_indices(field, vectors, dim)
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
    empty = linalg.Echelon(field, 0)
    assert not empty.add(()) and empty.contains(()) and empty.missing_unit() is None
    assert empty.basis == []


# ---------------------------------------------------------------------------
# the kernels as they were before empty operands returned at once, copied
# verbatim as oracles for the shapes with a zero dimension

def old_columns(b):
    return tuple(zip(*b.entries)) if b.rows else ((),) * b.cols


def old_matmul(field, a, b):
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = old_columns(b)
    p = field.p
    if p is None:
        zero = Fraction(0)
        out = tuple([tuple([sum(map(mul, row, col), zero) for col in cols])
                     for row in a.entries])
    else:
        out = tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                     for row in a.entries])
    return Mat(a.rows, b.cols, out)


def old_scaled(p, c, xs):
    if p is None:
        return tuple([c * x for x in xs])
    return tuple([c * x % p for x in xs])


def old_axpy(p, xs, c, ys):
    if p is None:
        return [x - c * y for x, y in zip(xs, ys)]
    return [(x - c * y) % p for x, y in zip(xs, ys)]


def old_rref(field, a):
    p = field.p
    m = [list(r) for r in a.entries]
    pivots = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        for pr in range(r, a.rows):
            if m[pr][c] != 0:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        tail = m[r][c:] = old_scaled(p, field.inv(m[r][c]), m[r][c:])
        for i in range(a.rows):
            f = m[i][c]
            if i != r and f != 0:
                m[i][c:] = old_axpy(p, m[i][c:], f, tail)
        pivots.append(c)
        r += 1
    return Mat(a.rows, a.cols, tuple(map(tuple, m))), tuple(pivots)


def old_kernel_basis(field, a):
    r, pivots = old_rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * a.cols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r.entries[i][fc])
        basis.append(tuple(v))
    return basis


def old_solve_matrix(field, a, b):
    if b.rows != a.rows:
        raise ShapeMismatch("rhs row mismatch")
    if b.cols == 0:
        return linalg.zeros(field, a.cols, 0)
    aug = Mat(a.rows, a.cols + b.cols,
              tuple(r + b.entries[i] for i, r in enumerate(a.entries)))
    r, pivots = old_rref(field, aug)
    if pivots and pivots[-1] >= a.cols:
        return None
    x = [[field.zero()] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        x[pc] = r.entries[i][a.cols:]
    return Mat(a.cols, b.cols, tuple(map(tuple, x)))


@st.composite
def empty_shaped(draw):
    """(field, a, b, c): a r x k, b k x n and c r x n with at least one of
    r, k, n zero, so each of 0 x n, n x 0, 0 x 0 and n x 0 . 0 x m occurs;
    c is a b half of the time, so solvable systems occur too."""
    field = draw(st.sampled_from(FIELDS))
    dims = [draw(st.integers(0, 4)) for _ in range(3)]
    dims[draw(st.integers(0, 2))] = 0
    r, k, n = dims
    entry = entries(field)

    def matrix(rows, cols):
        return Mat(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                     for _ in range(rows)))

    a, b = matrix(r, k), matrix(k, n)
    c = old_matmul(field, a, b) if draw(st.booleans()) else matrix(r, n)
    return field, a, b, c


@settings(max_examples=300, deadline=None)
@given(empty_shaped())
def test_kernels_on_empty_shapes_match_the_old_kernels(shaped):
    field, a, b, c = shaped
    assert linalg.matmul(field, a, b) == old_matmul(field, a, b)
    for m in (a, b, c):
        assert linalg.rref(field, m) == old_rref(field, m)
        assert linalg.kernel_basis(field, m) == old_kernel_basis(field, m)
    assert linalg.solve_matrix(field, a, c) == old_solve_matrix(field, a, c)
    if a.rows != b.cols:
        with pytest.raises(ShapeMismatch):
            linalg.matmul(field, b, a)


# ---------------------------------------------------------------------------
# the slotted Mat against the frozen dataclass it replaced, kept as an oracle

@dataclass(frozen=True)
class DataclassMat:
    rows: int
    cols: int
    entries: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatch(f"entries do not match shape {self.rows}x{self.cols}")

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


@st.composite
def shaped_entries(draw, field=None):
    """(field, rows, cols, entries), every dimension from 0 up."""
    if field is None:
        field = draw(st.sampled_from(ALL_FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = entries(field)
    return field, rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                    for _ in range(rows))


def _repr_of_dataclass(m):
    # the oracle's class has another name; the fields must print the same
    return repr(DataclassMat(m.rows, m.cols, m.entries)).replace(
        "DataclassMat(", "Mat(", 1)


@settings(max_examples=200, deadline=None)
@given(shaped_entries(), st.data())
def test_mat_value_semantics_match_dataclass(shaped, data):
    field, rows, cols, es = shaped
    m, ref = Mat(rows, cols, es), DataclassMat(rows, cols, es)
    assert repr(m) == _repr_of_dataclass(m)
    assert hash(m) == hash(ref)
    same = Mat(rows, cols, tuple(tuple(r) for r in list(es)))
    assert m == same and not m != same and hash(m) == hash(same)
    _, r2, c2, es2 = data.draw(shaped_entries(field))
    other, ref_other = Mat(r2, c2, es2), DataclassMat(r2, c2, es2)
    assert (m == other) == (ref == ref_other)
    assert (m != other) == (ref != ref_other)
    assert (m == ref) is False and (ref == m) is False
    assert (m == es) is False
    for i in range(rows):
        assert m.entries[i] == ref.row(i)
        for j in range(cols):
            assert m[i, j] == ref[i, j]
    for j in range(cols):
        assert m.col(j) == ref.col(j)


@settings(max_examples=200, deadline=None)
@given(shaped_entries(), st.data())
def test_mat_rejects_every_misshapen_entries(shaped, data):
    field, rows, cols, es = shaped
    extra_row = tuple(field.zero() for _ in range(cols))
    bad = [es + (extra_row,)]  # long
    if rows:
        bad.append(es[:-1])  # short
        i = data.draw(st.integers(0, rows - 1))
        bad.append(es[:i] + (es[i] + (field.one(),),) + es[i + 1:])  # ragged
        if cols:
            bad.append(es[:i] + (es[i][:-1],) + es[i + 1:])
    for wrong in bad:
        with pytest.raises(ShapeMismatch):
            DataclassMat(rows, cols, wrong)
        with pytest.raises(ShapeMismatch):
            Mat(rows, cols, wrong)


@settings(max_examples=100, deadline=None)
@given(shaped_entries())
def test_mat_is_immutable(shaped):
    _, rows, cols, es = shaped
    m = Mat(rows, cols, es)
    for name, value in (("rows", rows + 1), ("cols", cols + 1),
                        ("entries", ()), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert (m.rows, m.cols, m.entries) == (rows, cols, es)


@settings(max_examples=100, deadline=None)
@given(shaped_entries())
def test_mat_copies_and_pickles(shaped):
    _, rows, cols, es = shaped
    m = Mat(rows, cols, es)
    for twin in (copy.copy(m), copy.deepcopy(m),
                 pickle.loads(pickle.dumps(m)),
                 pickle.loads(pickle.dumps(m, protocol=0))):
        assert type(twin) is Mat
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert copy.deepcopy({"a": m})["a"] == m


@settings(max_examples=100, deadline=None)
@given(shaped_entries())
def test_mat_copies_and_pickles_are_shape_checked(shaped):
    # a Mat whose slot was forced out of shape cannot be copied or
    # unpickled: both rebuild through the checking constructor
    _, rows, cols, es = shaped
    m = Mat(rows, cols, es)
    Mat.rows.__set__(m, rows + 1)
    for twin in (copy.copy, copy.deepcopy,
                 lambda m: pickle.loads(pickle.dumps(m)),
                 lambda m: pickle.loads(pickle.dumps(m, protocol=0))):
        with pytest.raises(ShapeMismatch):
            twin(m)


# ---------------------------------------------------------------------------
# from_cols against the parent's row-by-row build, kept as the oracle

def old_from_cols(cols, rows=None):
    cols = [tuple(c) for c in cols]
    if rows is None:
        if not cols:
            raise ShapeMismatch("cannot infer row count of an empty matrix")
        rows = len(cols[0])
    return Mat(rows, len(cols),
               tuple(tuple(c[i] for c in cols) for i in range(rows)))


@settings(max_examples=200, deadline=None)
@given(shaped_entries(), st.booleans())
def test_from_cols_matches_the_old_build(shaped, give_rows):
    # 0 x n and n x 0 included; rows can be inferred only from a column
    field, rows, cols, es = shaped
    columns = [tuple(r[j] for r in es) for j in range(cols)]
    if give_rows or not columns:
        assert from_cols(columns, rows=rows) == old_from_cols(columns, rows)
    else:
        assert from_cols(columns) == old_from_cols(columns)
    assert from_cols([list(c) for c in columns], rows=rows).entries == es


def test_from_cols_refuses_ragged_columns():
    for cols, rows in ([(1, 2, 3)], 2), ([(1,)], 2), ([(1, 2), (3,)], None), \
            ([(1, 2), (3, 4, 5)], 2), ([(), (1,)], None):
        with pytest.raises(ShapeMismatch):
            from_cols(cols, rows=rows)
    with pytest.raises(ShapeMismatch):
        from_cols([])
    assert from_cols([], rows=3) == Mat(3, 0, ((), (), ()))
