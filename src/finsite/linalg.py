"""Exact dense linear algebra over the rationals or a prime field.

Entries are Fraction (rationals) or int in range(p) (prime fields); no
floating point anywhere. Every constructor keeps them so (`FieldSpec.of`,
`parse`, and the kernels' outputs), and the eliminations rely on it: over
F2 a row operation is XOR, and a pivot equal to 1 is not rescaled.
Matrices carry their shape explicitly so zero-row and zero-column cases
stay unambiguous. Elimination pivots on the first nonzero entry in
row-major order, so echelon forms, kernels, and selected bases are
reproducible across runs.

The matrices are tiny, so the cost is per-scalar Python overhead, and the
kernels branch on the field per call or per row, never per scalar. matmul
and mat_vec reduce with one local modulus over F_p. The eliminations
(rref, behind rank, kernel_basis and solve_matrix, and Echelon) share two
row helpers: `_monic` scales a pivot row to lead with 1 (one pow, or one
Fraction division, unless it leads with 1 already) and `_axpy` subtracts
a multiple of one row from another in one comprehension: x ^ y over F2,
(x - f y) % p over an odd prime, x - f y over Q. `Echelon` is the one
incremental subspace (span_basis wraps it): it grows one vector at a time
and tests membership with `contains`, without a fresh elimination. Each
kept row is zero before its pivot, 1 at it and 0 at every other kept
pivot, so a vector's residue is zero exactly when it lies in the span.
There is no separate inverse and no hstack: modrep._quotient builds
[B | I] row by row and reads a complement and its inverse off one rref of
it. `identity` and `zeros` build each identity and zero matrix once per
(field, shape) and hand out that one immutable value on every later call.

`Mat` and `FieldSpec` are records (`errors.Record`): their fields are their
annotations, and equality, hash, repr, copying and the refusal of
assignment come from the base, so a matrix is the value (rows, cols,
entries). `Mat` declares its three slots and its own constructor, which
takes the fields positionally and checks that the entries have the
declared shape on every construction, internal ones included, because a
mis-sized matrix would otherwise surface far from its cause, as an
IndexError inside an elimination or as a wrong verdict. A pass of the
sheaf benchmark builds about 62,000 matrices, so the check is one length
test and one plain loop over the rows, the slots are set through their
member descriptors, bound once below the class, and the kernels build
their outputs with list comprehensions. A matrix with a zero dimension
holds no entries: it is one shared value per shape, which `make_mat` (for
callers whose shape may be empty), `zeros`, `from_cols` and `vstack` hand
out. Such a result is fixed by its shape, so this module alone decides
it, with no arithmetic: matmul with any zero dimension, the inner one
included, returns the shared zero, rref of a matrix with no rows or no
columns returns it at once (kernel_basis reaches that through rref), and
solve_matrix with no columns on either side needs no elimination: with
none in b the solution is empty, and with none in a it is zero when b is
zero and does not exist otherwise. `FieldSpec` checks in its constructor
that a finite order is prime, by deterministic Miller-Rabin, and refuses
an order past the bound where that test is exact (SizeBudgetExceeded).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import Record, ShapeMismatch, SizeBudgetExceeded

# Miller-Rabin to bases 2..41 is exact below the bound (Sorenson-Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Primality of 2 <= n < _MR_BOUND, by deterministic Miller-Rabin."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    return n in _MR_BASES or all(
        pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
        for a in _MR_BASES)


class FieldSpec(Record):
    """Ground field: p=None means Q, otherwise the prime field F_p."""

    p: int | None = None

    def __init__(self, p: int | None = None) -> None:
        if p is not None:
            if p >= _MR_BOUND:
                raise SizeBudgetExceeded(
                    f"field order {p} is not below {_MR_BOUND}, where"
                    " primality is decided")
            if p < 2 or not _is_prime(p):
                raise ValueError(f"field order must be prime, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def of(self, n) :
        """Coerce an int, Fraction, or numeric string into the field."""
        if self.p is not None:
            if isinstance(n, str):
                n = int(n)
            if isinstance(n, Fraction):
                if n.denominator % self.p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {self.p}")
                return (n.numerator * pow(n.denominator, -1, self.p)) % self.p
            return int(n) % self.p
        return Fraction(n)

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def parse(self, s: str):
        """Parse a serialized entry: "2", "-3/7" (rationals allowed / only)."""
        s = s.strip()
        if self.p is not None:
            return self.of(int(s))
        return Fraction(s)

    def fmt(self, a) -> str:
        return str(a)

    def label(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = FieldSpec(None)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


Vector = tuple  # length-n tuple of field elements


class Mat(Record):
    """Immutable dense matrix with explicit shape.

    A slotted record: equality, hash and repr are those of the triple
    (rows, cols, entries), assignment raises, and copies and pickles
    rebuild through the constructor, so they are shape-checked too.
    """

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple[tuple, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[tuple, ...]) -> None:
        if len(entries) != rows:
            raise ShapeMismatch(f"entries do not match shape {rows}x{cols}")
        for r in entries:
            if len(r) != cols:
                raise ShapeMismatch(f"entries do not match shape {rows}x{cols}")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij: tuple[int, int]):
        return self.entries[ij[0]][ij[1]]


# the slots' own setters, which Record.__setattr__ does not intercept
_set_rows = Mat.rows.__set__
_set_cols = Mat.cols.__set__
_set_entries = Mat.entries.__set__


def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> Mat:
    rows = [tuple(r) for r in rows]
    if cols is None:
        if not rows:
            raise ShapeMismatch("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    return Mat(len(rows), cols, tuple(rows))


def from_cols(cols: Sequence[Sequence], rows: int | None = None) -> Mat:
    if rows is None:
        if not cols:
            raise ShapeMismatch("cannot infer row count of an empty matrix")
        rows = len(cols[0])
    for c in cols:
        if len(c) != rows:
            raise ShapeMismatch(f"column of length {len(c)} in a matrix "
                                f"of {rows} rows")
    if not rows or not cols:
        return _empty(rows, len(cols))
    return Mat(rows, len(cols), tuple(zip(*cols)))


# the zeros and identities built so far, by field order and shape: all
# the shapes a run meets (a zero shares one row), so nothing is evicted;
# a shape with a zero dimension holds no entries, so one serves every field
_empties: dict[tuple[int, int], Mat] = {}
_zeros: dict[tuple[int | None, int, int], Mat] = {}
_identities: dict[tuple[int | None, int], Mat] = {}


def _empty(rows: int, cols: int) -> Mat:
    """The shared rows x cols matrix, rows or cols being 0."""
    m = _empties.get((rows, cols))
    if m is None:
        m = _empties[rows, cols] = Mat(rows, cols, ((),) * rows)
    return m


def make_mat(rows: int, cols: int, entries: tuple[tuple, ...]) -> Mat:
    """Mat(rows, cols, entries), or the shared matrix when rows or cols is 0."""
    if rows and cols:
        return Mat(rows, cols, entries)
    if len(entries) != rows or any(entries):
        raise ShapeMismatch(f"entries do not match shape {rows}x{cols}")
    return _empty(rows, cols)


def zeros(field: FieldSpec, rows: int, cols: int) -> Mat:
    """The rows x cols zero matrix over field, shared like identity's."""
    if not rows or not cols:
        return _empty(rows, cols)
    m = _zeros.get((field.p, rows, cols))
    if m is None:
        m = _zeros[field.p, rows, cols] = Mat(
            rows, cols, ((field.zero(),) * cols,) * rows)
    return m


def identity(field: FieldSpec, n: int) -> Mat:
    """The n x n identity over field, built once per (field, n) and then
    shared: a Mat is immutable."""
    m = _identities.get((field.p, n))
    if m is None:
        z, o = field.zero(), field.one()
        m = _identities[field.p, n] = make_mat(
            n, n, tuple([tuple([o if i == j else z for j in range(n)])
                         for i in range(n)]))
    return m


def mat_eq_zero(m: Mat) -> bool:
    return all(x == 0 for r in m.entries for x in r)


def matmul(field: FieldSpec, a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if not a.rows or not a.cols or not b.cols:
        return zeros(field, a.rows, b.cols)
    cols = tuple(zip(*b.entries))
    p = field.p
    if p is None:
        zero = Fraction(0)
        out = tuple([tuple([sum(map(mul, row, col), zero) for col in cols])
                     for row in a.entries])
    else:
        out = tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                     for row in a.entries])
    return Mat(a.rows, b.cols, out)


def _monic(p: int | None, xs: list) -> list:
    """xs scaled so that its first entry, nonzero, is 1; xs itself when it
    is 1 already, as it always is over F2."""
    q = xs[0]
    if q == 1:
        return xs
    q = pow(q, -1, p) if p else 1 / q
    return [q * x % p for x in xs] if p else [q * x for x in xs]


def _axpy(p: int | None, f, xs, ys) -> list:
    """The entries of xs - f ys for f != 0: x ^ y over F2, where f is 1,
    reduced mod p over an odd prime, Fractions over Q."""
    if p == 2:
        return [x ^ y for x, y in zip(xs, ys)]
    if p:
        return [(x - f * y) % p for x, y in zip(xs, ys)]
    return [x - f * y for x, y in zip(xs, ys)]


def transpose(a: Mat) -> Mat:
    return make_mat(a.cols, a.rows,
                    tuple(tuple(a.entries[i][j] for i in range(a.rows))
                          for j in range(a.cols)))


def vstack(mats: Sequence[Mat], cols: int | None = None) -> Mat:
    if not mats:
        if cols is None:
            raise ShapeMismatch("vstack of nothing needs an explicit column count")
        return _empty(0, cols)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeMismatch("vstack column mismatch")
    return make_mat(sum(m.rows for m in mats), cols,
                    tuple(r for m in mats for r in m.entries))


def block_diag(field: FieldSpec, mats: Sequence[Mat]) -> Mat:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[field.zero()] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.entries[i][j]
        r0 += m.rows
        c0 += m.cols
    return make_mat(rows, cols, tuple(tuple(r) for r in out))


def rref(field: FieldSpec, a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, first-nonzero pivoting."""
    if not a.rows or not a.cols:
        return a, ()
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
        # rows r onwards are zero left of c, the pivot row among them, so
        # row operations need only the columns from c on
        tail = m[r][c:] = _monic(p, m[r][c:])
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f != 0:
                row[c:] = _axpy(p, f, row[c:], tail)
        pivots.append(c)
        r += 1
    return Mat(a.rows, a.cols, tuple(map(tuple, m))), tuple(pivots)


def rank(field: FieldSpec, a: Mat) -> int:
    return len(rref(field, a)[1])


def kernel_basis(field: FieldSpec, a: Mat) -> list[Vector]:
    """Basis of {x : a x = 0}, one vector per free column, canonical order."""
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    p, zero, one = field.p, field.zero(), field.one()
    basis = []
    for fc in free:
        v = [zero] * a.cols
        v[fc] = one
        for row, pc in zip(r.entries, pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(tuple(v))
    return basis


def solve_matrix(field: FieldSpec, a: Mat, b: Mat) -> Mat | None:
    """X with a X = b, or None if some column is unsolvable.

    One elimination of [a | b]; each column is the solution whose free
    variables are 0. A zero-column b needs no elimination.
    """
    if b.rows != a.rows:
        raise ShapeMismatch("rhs row mismatch")
    if b.cols == 0:
        return zeros(field, a.cols, 0)
    if a.cols == 0:
        return zeros(field, 0, b.cols) if mat_eq_zero(b) else None
    aug = Mat(a.rows, a.cols + b.cols,
              tuple(r + b.entries[i] for i, r in enumerate(a.entries)))
    r, pivots = rref(field, aug)
    if pivots and pivots[-1] >= a.cols:
        return None
    x = [[field.zero()] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        x[pc] = r.entries[i][a.cols:]
    return Mat(a.cols, b.cols, tuple(map(tuple, x)))


def is_invertible(field: FieldSpec, a: Mat) -> bool:
    return a.rows == a.cols and rank(field, a) == a.rows


class Echelon:
    """A subspace of k^dim, grown one vector at a time.

    `basis` holds the added vectors that were not in the span of those
    added before them, in order: the greedy selection span_basis makes.
    Behind it sits the reduced echelon form of that span, one row per
    pivot column (zero before the pivot, 1 at it, 0 at every other
    pivot), so membership is one pass of row subtractions.
    """

    def __init__(self, field: FieldSpec, dim: int,
                 vectors: Iterable[Vector] = ()) -> None:
        self.field = field
        self.dim = dim
        self.basis: list[Vector] = []
        self._rows: dict[int, list] = {}  # pivot column -> row from it on
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _residue(self, v: Vector) -> list:
        """v minus its part in the span: zero exactly when v is inside."""
        p = self.field.p
        w = list(v)
        for c, row in self._rows.items():
            f = w[c]
            if f != 0:
                w[c:] = _axpy(p, f, w[c:], row)
        return w

    def contains(self, v: Vector) -> bool:
        return not any(x != 0 for x in self._residue(v))

    def add(self, v: Vector) -> bool:
        """Add v to the span; True when it was outside (and is now kept)."""
        w = self._residue(v)
        c = next((i for i, x in enumerate(w) if x != 0), None)
        if c is None:
            return False
        p = self.field.p
        row = _monic(p, w[c:])
        for pc, other in self._rows.items():
            f = other[c - pc] if pc < c else 0
            if f != 0:
                other[c - pc:] = _axpy(p, f, other[c - pc:], row)
        self._rows[c] = row
        self.basis.append(tuple(v))
        return True

    def missing_unit(self) -> int | None:
        """Index i of the first standard vector e_i outside the span, or
        None when the span is all of k^dim. In reduced echelon form e_i is
        inside exactly when i is a pivot whose row is e_i itself."""
        for i in range(self.dim):
            row = self._rows.get(i)
            if row is None or any(x != 0 for x in row[1:]):
                return i
        return None


def span_basis(field: FieldSpec, vectors: Iterable[Vector], dim: int) -> list[Vector]:
    """Canonical basis of the span of `vectors` inside k^dim: each vector
    not in the span of the ones before it, in order."""
    return Echelon(field, dim, vectors).basis


def mat_vec(field: FieldSpec, a: Mat, v: Vector) -> Vector:
    if len(v) != a.cols:
        raise ShapeMismatch("vector length mismatch")
    p = field.p
    if p is None:
        zero = Fraction(0)
        return tuple([sum(map(mul, row, v), zero) for row in a.entries])
    return tuple([sum(map(mul, row, v)) % p for row in a.entries])


def mat_to_strings(field: FieldSpec, a: Mat) -> list[list[str]]:
    return [[field.fmt(x) for x in r] for r in a.entries]


def mat_from_strings(field: FieldSpec, rows: Sequence[Sequence[str]],
                     shape: tuple[int, int]) -> Mat:
    r, c = shape
    if len(rows) != r or any(len(row) != c for row in rows):
        raise ShapeMismatch(f"serialized matrix does not have shape {r}x{c}")
    return Mat(r, c, tuple(tuple(field.parse(x) for x in row) for row in rows))
