"""Exact integer and rational linear algebra over lattices.

Everything runs on Python's arbitrary-precision ints.  No floats, no
fixed-width arithmetic, no sparse formats: the matrices that show up in fan
and grading computations are tiny and dense, and exactness is non-negotiable
because downstream cone identities are decided by equality.

Hermite and Smith normal forms use unimodular integer row and column
operations, each written once: the transforms ride along as identity blocks
beside the matrix and are split off at the end.  Every question over Q (rank, linear solves, canonical bases of
row spaces) goes through one fraction-free elimination, _echelon: rational
input rows are scaled to integer rows on entry, and each update is an
integer cross multiplication divided by the content of the result.  No
elimination step computes with a fractions.Fraction: Fractions are only read
from rational input and returned as the result of solve_rational.
"""

from __future__ import annotations

import functools
import math
import operator

from prevtrop import _lazy

__getattr__ = _lazy(globals(), "prevtrop.smith", (
    "smith_normal_form", "invert_unimodular", "solve_rational", "cokernel_is_finite"))


class _Value:
    """Base of the slotted value classes: two values are equal when they
    have the same class and equal _key(), and hash as their _key().
    Instances are never mutated."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class IntMatrix(_Value):
    """Immutable dense integer matrix (row-major entries)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def _key(self):
        return self.rows, self.cols, self.entries

    @staticmethod
    def from_rows(rows, cols=None):
        """Build from an iterable of row iterables.

        The one constructor that checks its entries: each must be an int or
        have __index__; a float or a bool raises TypeError instead of being
        converted.

        Args:
          rows: iterable of rows; each row an iterable of ints.
          cols: required when rows is empty, otherwise inferred; when given
            with rows, every row must have this width.
        """
        data = [tuple(map(_matrix_entry, r)) for r in rows]
        if data:
            width = len(data[0])
            for r in data:
                if len(r) != width:
                    raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("rows have width %d, expected %d"
                                 % (width, cols))
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        return _matrix(data, width)

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
        return tuple(sum(a * x for a, x in zip(self.row(i), vector))
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


class Lattice(_Value):
    """A saturated sublattice of Z^ambient given by basis rows."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient, basis):
        if basis.cols != ambient:
            raise ValueError("basis width does not match ambient rank")
        self.ambient = ambient
        self.basis = basis

    def _key(self):
        return self.ambient, self.basis

    @property
    def rank(self):
        return self.basis.rows

    def basis_rows(self):
        return [self.basis.row(i) for i in range(self.basis.rows)]


class AbelianGroup(_Value):
    """Finitely generated abelian group Z^free_rank + sum Z/m_k.

    Elements are int tuples of length free_rank + len(torsion); torsion
    coordinates are read modulo the corresponding invariant factor.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        for m in torsion:
            if type(m) is not int or m < 2:
                raise ValueError("torsion invariant factors must be ints >= 2")
        self.free_rank = free_rank
        self.torsion = torsion

    def _key(self):
        return self.free_rank, self.torsion

    def __repr__(self):
        return "AbelianGroup(free_rank=%r, torsion=%r)" % (self.free_rank,
                                                           self.torsion)

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    def reduce(self, element):
        element = _integer_vector(element, self.ngens)
        free = element[:self.free_rank]
        tors = tuple(x % m for x, m in zip(element[self.free_rank:], self.torsion))
        return free + tors


def _matrix_entry(x):
    if isinstance(x, bool):
        raise TypeError("IntMatrix entries must be ints, got %r" % (x,))
    return operator.index(x)


def _matrix(rows, cols):
    """IntMatrix from row lists of plain ints computed here (unchecked)."""
    return IntMatrix(len(rows), cols, tuple(x for r in rows for x in r))


def _with_identity(rows):
    """Each row followed by the matching row of an identity block."""
    m = len(rows)
    return [list(r) + [0] * i + [1] + [0] * (m - 1 - i) for i, r in enumerate(rows)]


def _sub_row(m, i, j, q):
    """row_i -= q * row_j"""
    if q:
        mi, mj = m[i], m[j]
        for k in range(len(mi)):
            mi[k] -= q * mj[k]


def _hnf(h, n):
    """Row Hermite normal form of the first n columns of the row lists h, in
    place.  Every row operation acts on whole rows, so on [A | I] the right
    block ends as the transform U with H = U @ A."""
    m = len(h)
    pr = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pr, m) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            h[pr], h[i0] = h[i0], h[pr]
            if h[pr][col] < 0:
                h[pr] = [-x for x in h[pr]]
            clean = True
            for i in range(pr + 1, m):
                if h[i][col]:
                    _sub_row(h, i, pr, h[i][col] // h[pr][col])
                    if h[i][col]:
                        clean = False
            if clean:
                break
        if pr < m and h[pr][col] > 0:
            for i in range(pr):
                _sub_row(h, i, pr, h[i][col] // h[pr][col])
            pr += 1
        if pr == m:
            break
    return h


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
    hu = _hnf(_with_identity(matrix.row_lists()), n)
    return _matrix([r[:n] for r in hu], n), _matrix([r[n:] for r in hu], m)


def kernel_lattice(matrix):
    """Saturated integer kernel {v : matrix @ v = 0} with canonical HNF basis.

    One _echelon of the rows with their columns reversed finds the set N of
    columns independent of every later column.  When every pivot entry is 1,
    each column j outside N is an integer combination of the later columns
    in N, read off the echelon; the rows e_j minus those coordinates, placed
    at N, span the integer kernel (an integer choice of the entries outside
    N fixes integer entries at N), have pivot 1 at j and zeros in every other
    pivot column, so they are the kernel's unique row HNF.  Otherwise the
    basis is read off the unimodular transform of the transpose's HNF, then
    HNF-normalized; its rows span a direct summand of Z^cols either way.
    """
    m, n = matrix.rows, matrix.cols
    echelon = _echelon([matrix.row(i)[::-1] for i in range(m)], n)
    if all(r[c] == 1 for c, r in echelon):
        coords = {n - 1 - c: r[::-1] for c, r in echelon}
        basis = []
        for j in range(n):
            if j not in coords:
                row = [0] * n
                row[j] = 1
                for k, r in coords.items():
                    row[k] = -r[j]
                basis.append(row)
        return Lattice(n, _matrix(basis, n))
    hu = _hnf(_with_identity([matrix.column(j) for j in range(n)]), m)
    basis = [r[m:] for r in hu if not any(r[:m])]
    if basis:
        basis = [r for r in _hnf(basis, n) if any(r)]
    return Lattice(n, _matrix(basis, n))


def primitive(v):
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    g = math.gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


@functools.cache
def _fraction():
    """fractions.Fraction, imported only off the int path."""
    from fractions import Fraction
    return Fraction


def _integer_entry(x):
    if type(x) is int:
        return x
    if isinstance(x, _fraction()):
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
    fraction = _fraction()
    if isinstance(x, (int, fraction)) and not isinstance(x, bool):
        return fraction(x)
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
    row = list(map(_fraction(), row))
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
