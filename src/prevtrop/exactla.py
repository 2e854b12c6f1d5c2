"""Exact integer and rational linear algebra over lattices.

Everything runs on Python's arbitrary-precision ints.  No floats, no
fixed-width arithmetic, no sparse formats: the matrices that show up in fan
and grading computations are tiny and dense, and exactness is non-negotiable
because downstream cone identities are decided by equality.

Hermite and Smith normal forms use unimodular integer row and column
operations.  Every question over Q (rank, linear solves, canonical bases of
row spaces) goes through one fraction-free elimination, _echelon: rational
input rows are scaled to integer rows on entry, and each update is an
integer cross multiplication divided by the content of the result.  No
elimination step computes with a fractions.Fraction: Fractions are only read
from rational input and returned as the result of solve_rational.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix (row-major entries)."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        for e in self.entries:
            if type(e) is not int:
                raise TypeError("IntMatrix entries must be plain ints, got %r" % (e,))

    @staticmethod
    def from_rows(rows, cols=None):
        """Build from an iterable of row iterables.

        Args:
          rows: iterable of rows; each row an iterable of ints.
          cols: required when rows is empty, otherwise inferred.
        """
        data = [tuple(operator.index(x) for x in r) for r in rows]
        if data:
            width = len(data[0])
            for r in data:
                if len(r) != width:
                    raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        flat = tuple(x for r in data for x in r)
        return IntMatrix(len(data), width, flat)

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector):
        """Matrix times integer/rational column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.row(i)[k] * vector[k] for k in range(self.cols))
                     for i in range(self.rows))

    def determinant(self):
        """Fraction-free Bareiss determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and self.determinant() in (1, -1)


@dataclass(frozen=True)
class Lattice:
    """A saturated sublattice of Z^ambient given by basis rows."""

    ambient: int
    basis: IntMatrix

    def __post_init__(self):
        if self.basis.cols != self.ambient:
            raise ValueError("basis width does not match ambient rank")

    @property
    def rank(self):
        return self.basis.rows

    def basis_rows(self):
        return [self.basis.row(i) for i in range(self.basis.rows)]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^free_rank + sum Z/m_k.

    Elements are int tuples of length free_rank + len(torsion); torsion
    coordinates are read modulo the corresponding invariant factor.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for m in self.torsion:
            if type(m) is not int or m < 2:
                raise ValueError("torsion invariant factors must be ints >= 2")

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, element):
        element = _integer_vector(element, self.ngens)
        free = element[:self.free_rank]
        tors = tuple(x % m for x, m in zip(element[self.free_rank:], self.torsion))
        return free + tors

    def is_zero(self, element):
        return all(x == 0 for x in self.reduce(element))


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _sub_row(m, i, j, q):
    """row_i -= q * row_j"""
    if q:
        mi, mj = m[i], m[j]
        for k in range(len(mi)):
            mi[k] -= q * mj[k]


def _neg_row(m, i):
    m[i] = [-x for x in m[i]]


def hermite_normal_form(matrix):
    """Row-style Hermite normal form.

    Args:
      matrix: IntMatrix.

    Returns:
      (H, U) with H = U @ matrix, U unimodular.  H is the canonical row HNF:
      row-echelon, positive pivots, entries above each pivot reduced into
      [0, pivot), zero rows at the bottom.
    """
    m, n = matrix.rows, matrix.cols
    h = matrix.row_lists()
    u = IntMatrix.identity(m).row_lists()
    pr = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pr, m) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != pr:
                _swap_rows(h, pr, i0)
                _swap_rows(u, pr, i0)
            if h[pr][col] < 0:
                _neg_row(h, pr)
                _neg_row(u, pr)
            clean = True
            for i in range(pr + 1, m):
                if h[i][col]:
                    q = h[i][col] // h[pr][col]
                    _sub_row(h, i, pr, q)
                    _sub_row(u, i, pr, q)
                    if h[i][col]:
                        clean = False
            if clean:
                break
        if pr < m and h[pr][col] > 0:
            for i in range(pr):
                q = h[i][col] // h[pr][col]
                _sub_row(h, i, pr, q)
                _sub_row(u, i, pr, q)
            pr += 1
        if pr == m:
            break
    return IntMatrix.from_rows(h, cols=n), IntMatrix.from_rows(u, cols=m)


def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns (D, P, Q) with D = P @ matrix @ Q, P and Q unimodular, D diagonal
    with non-negative entries d_1 | d_2 | ... (zeros trailing).
    """
    m, n = matrix.rows, matrix.cols
    d = matrix.row_lists()
    p = IntMatrix.identity(m).row_lists()
    # track Q by columns: store Q^T as rows for convenience
    qt = IntMatrix.identity(n).row_lists()

    def col_swap(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        _swap_rows(qt, j1, j2)

    def col_sub(j1, j2, q):
        # column j1 -= q * column j2
        if q:
            for row in d:
                row[j1] -= q * row[j2]
            _sub_row(qt, j1, j2, q)

    t = 0
    while True:
        # locate a nonzero entry in the remaining submatrix
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            _swap_rows(d, t, i0)
            _swap_rows(p, t, i0)
        if j0 != t:
            col_swap(t, j0)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    _sub_row(d, i, t, q)
                    _sub_row(p, i, t, q)
                    if d[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(p, t, i)
                        dirty = True
            # clear the pivot row
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m)) \
                    and all(d[t][j] == 0 for j in range(t + 1, n)):
                break
        if d[t][t] < 0:
            _neg_row(d, t)
            _neg_row(p, t)
        # enforce divisibility of the remaining block by the pivot
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            _sub_row(d, t, stray, -1)   # row_t += row_stray
            _sub_row(p, t, stray, -1)
            continue
        t += 1
        if t == min(m, n):
            break
    q_mat = IntMatrix.from_rows(qt, cols=n).transpose()
    return IntMatrix.from_rows(d, cols=n), IntMatrix.from_rows(p, cols=m), q_mat


def invert_unimodular(u):
    """Exact inverse of a unimodular integer matrix.

    The row HNF of a unimodular matrix is the identity, so its transform is
    the inverse; any other HNF means the matrix is singular or has
    determinant other than +-1.
    """
    if u.cols != u.rows:
        raise ValueError("not square")
    h, v = hermite_normal_form(u)
    if h != IntMatrix.identity(u.rows):
        raise ValueError("matrix is not unimodular")
    return v


def kernel_lattice(matrix):
    """Saturated integer kernel {v : matrix @ v = 0} with canonical HNF basis.

    The returned basis rows always span a direct summand of Z^cols: they are
    rows of a unimodular matrix by construction, then HNF-normalized.
    """
    h, u = hermite_normal_form(matrix.transpose())
    zero_rows = [i for i in range(h.rows) if all(x == 0 for x in h.row(i))]
    basis = [u.row(i) for i in zero_rows]
    if basis:
        hh, _ = hermite_normal_form(IntMatrix.from_rows(basis, cols=matrix.cols))
        basis = [hh.row(i) for i in range(hh.rows) if any(hh.row(i))]
    return Lattice(matrix.cols, IntMatrix.from_rows(basis, cols=matrix.cols))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    g = math.gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _integer_entry(x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
    elif not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("vector entry %r is not an integer" % (x,))


def _rational_entry(x):
    """x as a Fraction; only ints and Fractions are accepted, so a float or a
    bool is refused instead of being converted."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError("entry %r is not an int or a Fraction" % (x,))


def _integer_vector(v, n):
    """v as a tuple of ints of length n; no entry is ever rounded."""
    v = tuple(v)
    if not all(type(x) is int for x in v):
        v = tuple(_integer_entry(x) for x in v)
    if len(v) != n:
        raise ValueError("vector %r does not have length %d" % (list(v), n))
    return v


def _integer_row(row):
    """An integer multiple of a rational row by the lcm of its denominators."""
    row = tuple(row)
    if all(type(x) is int for x in row):
        return row
    row = [Fraction(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (den // x.denominator) for x in row)


def _cross(row, pivot_row, col):
    """row with its entry in col cancelled against pivot_row, made primitive."""
    b = row[col]
    if not b:
        return row
    a = pivot_row[col]
    return primitive([a * x - b * y for x, y in zip(row, pivot_row)])


def _echelon(rows, n):
    """Canonical primitive-integer reduced row echelon form of a row space.

    Returns a list of (pivot_col, row) pairs sorted by pivot column, with
    pivots taken among the first n columns; every row is a primitive integer
    vector with positive pivot and zeros in the other pivot columns.  Depends
    only on the row space, which makes it usable for canonical reduction
    modulo a subspace.  Fraction-free: rational rows are scaled to integer
    rows on entry, and every update is an integer cross multiplication
    divided by the content of its result.
    """
    work = [r for r in map(_integer_row, rows) if any(r)]
    basis = []
    for col in range(n):
        if not work:
            break
        i = next((i for i, r in enumerate(work) if r[col]), None)
        if i is None:
            continue
        p = work.pop(i)
        p = primitive(p if p[col] > 0 else [-x for x in p])
        basis = [(c, _cross(r, p, col)) for c, r in basis]
        basis.append((col, p))
        work = [r for r in (_cross(r, p, col) for r in work) if any(r)]
    return basis


def rational_rank(vectors, width=None):
    """Rank over Q of an iterable of integer/rational vectors."""
    rows = list(vectors)
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]) if width is None else width))


def solve_rational(rows, rhs):
    """Solve sum_j x_j * rows[j] ... i.e. the linear system rows @ x = rhs.

    Args:
      rows: list of coefficient rows (each an iterable of ints/Fractions).
      rhs: right-hand side, same length as rows.

    Returns:
      A tuple of Fractions (free variables pinned to 0), or None when
      inconsistent.
    """
    pairs = [(tuple(r), Fraction(v)) for r, v in zip(rows, rhs)]
    if not pairs:
        return ()
    n = len(pairs[0][0])
    den = math.lcm(*(v.denominator for _, v in pairs))
    reduced = _echelon([r + (v.numerator * (den // v.denominator),)
                        for r, v in pairs], n + 1)
    if reduced and reduced[-1][0] == n:
        return None
    x = [Fraction(0)] * n
    for col, row in reduced:
        x[col] = Fraction(row[n], row[col] * den)
    return tuple(x)


def cokernel_is_finite(matrix, target):
    """Decide finiteness of target / <columns of matrix>, with the index.

    Args:
      matrix: IntMatrix whose columns are elements of `target` (coordinates:
        free part first, then torsion coordinates).
      target: AbelianGroup.

    Returns:
      (True, index) when the column span has finite index in target,
      (False, None) otherwise.
    """
    k = target.ngens
    if matrix.rows != k:
        raise ValueError("column length does not match the target group")
    if k == 0:
        return True, 1
    cols = [list(matrix.column(j)) for j in range(matrix.cols)]
    for idx, m in enumerate(target.torsion):
        rel = [0] * k
        rel[target.free_rank + idx] = m
        cols.append(rel)
    stacked = IntMatrix.from_rows(cols, cols=k).transpose()
    d, _, _ = smith_normal_form(stacked)
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    if len(diag) < k or any(x == 0 for x in diag):
        return False, None
    index = 1
    for x in diag:
        index *= x
    return True, index
