"""Smith normal forms, unimodular inverses, rational solves and cokernel
indices, loaded on first use through the names prevtrop.exactla exports."""

import math
from fractions import Fraction

from prevtrop.exactla import _echelon, _hnf, _matrix, _sub_row, _with_identity


def _swap_cols(m, j1, j2):
    for row in m:
        row[j1], row[j2] = row[j2], row[j1]


def _smith(w, m, n):
    """Smith normal form of the top-left m x n block of the row lists w, in
    place.  Row operations act on whole rows among the first m, and column
    operations on the first n entries of every row, so the block
    [[A, I_m], [I_n]] ends as [[D, P], [Q]] with D = P @ A @ Q."""
    t = 0
    while t < min(m, n):
        # the first nonzero entry of least size in the remaining submatrix
        nonzero = [(abs(w[i][j]), i, j) for i in range(t, m) for j in range(t, n)
                   if w[i][j]]
        if not nonzero:
            break
        _, i0, j0 = min(nonzero)
        w[t], w[i0] = w[i0], w[t]
        if j0 != t:
            _swap_cols(w, t, j0)
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if w[i][t]:
                    _sub_row(w, i, t, w[i][t] // w[t][t])
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        dirty = True
            # clear the pivot row
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
                    if w[t][j]:
                        _swap_cols(w, t, j)
                        dirty = True
            if not dirty:   # both passes ended without a swap: all cleared
                break
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        # enforce divisibility of the remaining block by the pivot
        stray = next((i for i in range(t + 1, m)
                      if any(w[i][j] % w[t][t] for j in range(t + 1, n))), None)
        if stray is not None:
            _sub_row(w, t, stray, -1)   # row_t += row_stray
            continue
        t += 1
    return w


def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns (D, P, Q) with D = P @ matrix @ Q, P and Q unimodular, D diagonal
    with non-negative entries d_1 | d_2 | ... (zeros trailing).
    """
    m, n = matrix.rows, matrix.cols
    # [[A, I_m], [I_n]]: the bottom rows are n empty rows followed by I_n
    w = _smith(_with_identity(matrix.row_lists()) + _with_identity([()] * n), m, n)
    return (_matrix([r[:n] for r in w[:m]], n), _matrix([r[n:] for r in w[:m]], m),
            _matrix(w[m:], n))


def invert_unimodular(u):
    """Exact inverse of a unimodular integer matrix.

    The row HNF of a unimodular matrix is the identity, so its transform is
    the inverse; any other HNF means the matrix is singular or has
    determinant other than +-1.
    """
    n = u.rows
    if u.cols != n:
        raise ValueError("not square")
    hv = _hnf(_with_identity(u.row_lists()), n)
    # an echelon square matrix with unit diagonal and reduced entries above
    # its pivots is the identity
    if any(hv[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return _matrix([r[n:] for r in hv], n)


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
    f = target.free_rank
    n = matrix.cols + len(target.torsion)
    d = _smith([list(matrix.row(i)) + [t if i == f + idx else 0
                                       for idx, t in enumerate(target.torsion)]
                for i in range(k)], k, n)
    diag = [d[i][i] for i in range(min(k, n))]
    if len(diag) < k or 0 in diag:
        return False, None
    return True, math.prod(diag)
