import math
import random
from fractions import Fraction

import pytest
from sympy import Matrix as SymMatrix
from sympy import Rational
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from prevtrop import exactla
from prevtrop.cone import Cone, hilbert_basis
from prevtrop.exactla import (
    AbelianGroup,
    IntMatrix,
    _echelon,
    cokernel_is_finite,
    hermite_normal_form,
    invert_unimodular,
    kernel_lattice,
    rational_rank,
    smith_normal_form,
    solve_rational,
)

from conftest import fresh_rng


# ---------------------------------------------------------------------------
# oracles (independent implementations used to pin expected values)
# ---------------------------------------------------------------------------

def oracle_row_hnf(rows, ncols):
    """Row HNF by explicit Bezout pair elimination.

    Deliberately a different elimination strategy from the package (extended
    gcd combinations instead of repeated floor division), used to derive the
    frozen expected matrices below and to cross-check random inputs.
    """
    h = [list(r) for r in rows]
    m = len(h)
    pr = 0
    for col in range(ncols):
        for i in range(pr + 1, m):
            a, b = h[pr][col], h[i][col]
            if b == 0:
                continue
            if a == 0:
                h[pr], h[i] = h[i], h[pr]
                continue
            g = math.gcd(a, b)
            x, y = _bezout(a, b)
            new_pr = [x * p + y * q for p, q in zip(h[pr], h[i])]
            new_i = [(-b // g) * p + (a // g) * q for p, q in zip(h[pr], h[i])]
            h[pr], h[i] = new_pr, new_i
        if h[pr][col] != 0:
            if h[pr][col] < 0:
                h[pr] = [-x for x in h[pr]]
            for i in range(pr):
                q = h[i][col] // h[pr][col]
                h[i] = [p - q * r for p, r in zip(h[i], h[pr])]
            pr += 1
            if pr == m:
                break
    return h


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def oracle_invariant_factors(rows, ncols):
    """Invariant factors via determinantal divisors: d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    from itertools import combinations

    m = len(rows)
    factors = []
    prev = 1
    for k in range(1, min(m, ncols) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(ncols), k):
                sub = IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri], cols=k)
                g = math.gcd(g, sub.determinant())
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _oracle_sub_row(m, i, j, q):
    if q:
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]


def _oracle_swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _oracle_neg_row(m, i):
    m[i] = [-x for x in m[i]]


def _oracle_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_paired_hnf(rows, ncols):
    """Row HNF with its transform kept as a separate matrix: every row
    operation is written twice, once for H and once for U.  The operation
    sequence is the package's, so (H, U) must agree entry for entry."""
    h = [list(r) for r in rows]
    m = len(h)
    u = _oracle_identity(m)
    pr = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, m) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != pr:
                _oracle_swap_rows(h, pr, i0)
                _oracle_swap_rows(u, pr, i0)
            if h[pr][col] < 0:
                _oracle_neg_row(h, pr)
                _oracle_neg_row(u, pr)
            clean = True
            for i in range(pr + 1, m):
                if h[i][col]:
                    q = h[i][col] // h[pr][col]
                    _oracle_sub_row(h, i, pr, q)
                    _oracle_sub_row(u, i, pr, q)
                    if h[i][col]:
                        clean = False
            if clean:
                break
        if pr < m and h[pr][col] > 0:
            for i in range(pr):
                q = h[i][col] // h[pr][col]
                _oracle_sub_row(h, i, pr, q)
                _oracle_sub_row(u, i, pr, q)
            pr += 1
        if pr == m:
            break
    return h, u


def oracle_paired_snf(rows, ncols):
    """Smith normal form with P and Q kept as separate matrices (Q as its
    transpose, by rows): every operation is written twice.  The operation
    sequence is the package's, so (D, P, Q) must agree entry for entry."""
    d = [list(r) for r in rows]
    m, n = len(d), ncols
    p = _oracle_identity(m)
    qt = _oracle_identity(n)

    def col_swap(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        _oracle_swap_rows(qt, j1, j2)

    def col_sub(j1, j2, q):
        if q:
            for row in d:
                row[j1] -= q * row[j2]
            _oracle_sub_row(qt, j1, j2, q)

    t = 0
    while True:
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
            _oracle_swap_rows(d, t, i0)
            _oracle_swap_rows(p, t, i0)
        if j0 != t:
            col_swap(t, j0)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    _oracle_sub_row(d, i, t, q)
                    _oracle_sub_row(p, i, t, q)
                    if d[i][t]:
                        _oracle_swap_rows(d, t, i)
                        _oracle_swap_rows(p, t, i)
                        dirty = True
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
            _oracle_neg_row(d, t)
            _oracle_neg_row(p, t)
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            _oracle_sub_row(d, t, stray, -1)
            _oracle_sub_row(p, t, stray, -1)
            continue
        t += 1
        if t == min(m, n):
            break
    return d, p, [list(c) for c in zip(*qt)]


def oracle_paired_kernel(rows, ncols):
    """Kernel basis rows from oracle_paired_hnf: the transform rows that
    send the transpose to zero, HNF-normalized."""
    h, u = oracle_paired_hnf([[r[j] for r in rows] for j in range(ncols)], len(rows))
    basis = [ur for hr, ur in zip(h, u) if not any(hr)]
    if basis:
        basis = [r for r in oracle_paired_hnf(basis, ncols)[0] if any(r)]
    return basis


def random_matrix(rng, max_dim=4, bound=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], cols=n)


# ---------------------------------------------------------------------------
# IntMatrix basics
# ---------------------------------------------------------------------------

def test_matrix_construction_rejects_junk():
    pytest.raises(TypeError, lambda: IntMatrix.from_rows([[1.5]]))
    pytest.raises(TypeError, lambda: IntMatrix.from_rows([[True, 2]]))
    pytest.raises(ValueError, lambda: IntMatrix.from_rows([[1, 2], [3]]))
    pytest.raises(ValueError, lambda: IntMatrix.from_rows([]))
    assert IntMatrix.from_rows([], cols=3).rows == 0


def test_from_rows_checks_an_explicit_width():
    with pytest.raises(ValueError, match="width 2, expected 3"):
        IntMatrix.from_rows([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="width 0, expected 1"):
        IntMatrix.from_rows([[]], cols=1)
    m = IntMatrix.from_rows([[1, 2], [3, 4]], cols=2)
    assert (m.rows, m.cols, m.entries) == (2, 2, (1, 2, 3, 4))


def test_matmul_and_transpose():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).row_lists() == [[2, 1], [4, 3]]
    assert a.transpose().row_lists() == [[1, 3], [2, 4]]
    assert a.apply((1, 1)) == (3, 7)


def test_determinant_bareiss():
    assert IntMatrix.from_rows([[1, 1], [1, -1]]).determinant() == -2
    assert IntMatrix.identity(5).determinant() == 1
    assert IntMatrix.from_rows([[2, 0], [0, 0]]).determinant() == 0
    m = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
    assert m.determinant() == int(round(SymMatrix(m.row_lists()).det()))


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def test_hnf_identity_fixed_point():
    h, u = hermite_normal_form(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    assert u == IntMatrix.identity(3)


def test_hnf_frozen_example():
    # expected value derived with oracle_row_hnf
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    h, u = hermite_normal_form(a)
    assert h.row_lists() == [[1, 1], [0, 2]]
    assert h.row_lists() == oracle_row_hnf([[1, 1], [1, -1]], 2)
    assert u @ a == h
    assert u.is_unimodular()


def _assert_canonical_hnf(h):
    pivots = []
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            # all remaining rows must be zero
            for k in range(i, h.rows):
                assert not any(h.row(k))
            break
        j = nz[0]
        assert j > last, "pivots must move right"
        assert row[j] > 0
        for above in range(i):
            assert 0 <= h[above, j] < row[j]
        pivots.append(j)
        last = j


def test_hnf_random_properties():
    rng = fresh_rng(1)
    for _ in range(300):
        a = random_matrix(rng)
        h, u = hermite_normal_form(a)
        assert u.is_unimodular()
        assert u @ a == h
        _assert_canonical_hnf(h)
        assert h.row_lists() == oracle_row_hnf(a.row_lists(), a.cols)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_frozen_example():
    # d1 = gcd of entries = 1, d1*d2 = |det| = 2, so diag(1, 2)
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    d, p, q = smith_normal_form(a)
    assert d.row_lists() == [[1, 0], [0, 2]]
    assert p @ a @ q == d
    assert p.is_unimodular() and q.is_unimodular()
    assert oracle_invariant_factors([[1, 1], [1, -1]], 2) == [1, 2]


def test_snf_random_properties():
    rng = fresh_rng(2)
    for _ in range(300):
        a = random_matrix(rng)
        d, p, q = smith_normal_form(a)
        assert p.is_unimodular() and q.is_unimodular()
        assert p @ a @ q == d
        diag = [d[i, i] for i in range(min(d.rows, d.cols))]
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i, j] == 0
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        assert diag[:len(nz)] == nz, "zeros must trail"
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert nz == oracle_invariant_factors(a.row_lists(), a.cols)


def test_snf_matches_sympy_spot_checks():
    rng = fresh_rng(3)
    for _ in range(25):
        a = random_matrix(rng, max_dim=3, bound=6)
        d, _, _ = smith_normal_form(a)
        sd = sympy_snf(SymMatrix(a.row_lists()))
        mine = sorted(x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x)
        theirs = sorted(abs(int(x)) for x in sd if int(x) != 0)
        assert mine == theirs


def test_normal_forms_match_the_paired_transform_oracle():
    # sizes stop at 5x5: from 6x6 on, SNF's transforms can grow past 64 bits
    # and one matrix can take seconds (ROADMAP item 3)
    rng = fresh_rng(12)
    for trial in range(2100):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if trial % 3 == 0 and m >= 2:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[-2])]
        a = IntMatrix.from_rows(rows, cols=n)
        h, u = hermite_normal_form(a)
        assert (h.row_lists(), u.row_lists()) == oracle_paired_hnf(rows, n)
        d, p, q = smith_normal_form(a)
        assert (d.row_lists(), p.row_lists(), q.row_lists()) == oracle_paired_snf(rows, n)
        assert kernel_lattice(a).basis.row_lists() == oracle_paired_kernel(rows, n)


def test_kernel_fast_path_matches_the_general_path(monkeypatch):
    # the unit-pivot read-off and the HNF fallback, told apart by whether
    # _hnf ran, each against the paired-transform oracle
    raw = exactla._hnf
    calls = [0]

    def counted(h, n):
        calls[0] += 1
        return raw(h, n)

    monkeypatch.setattr(exactla, "_hnf", counted)
    rng = fresh_rng(13)
    cases = [([], 3), ([[0, 0, 0]], 3), ([[0] * 4] * 3, 4)]
    for trial in range(600):
        m, n = rng.randint(0, 4), rng.randint(1, 7)
        rows = [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        if trial % 3 == 0 and m >= 2:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[-2])]
        cases.append((rows, n))
    while len(cases) < 800:
        k = rng.randint(2, 3)
        rays = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if rational_rank(rays) == k:
            gens = hilbert_basis(Cone.from_rays(rays, k)).generators
            cases.append(([[g[j] for g in gens] for j in range(k)], len(gens)))
    branches = {"fast": 0, "fallback": 0}
    for rows, n in cases:
        before = calls[0]
        basis = kernel_lattice(IntMatrix.from_rows(rows, cols=n)).basis.row_lists()
        branches["fallback" if calls[0] > before else "fast"] += 1
        assert basis == oracle_paired_kernel(rows, n), rows
    assert min(branches.values()) >= 100, branches


# ---------------------------------------------------------------------------
# kernels and cokernels
# ---------------------------------------------------------------------------

def test_kernel_frozen_examples():
    k = kernel_lattice(IntMatrix.from_rows([[1, -1]]))
    assert k.basis_rows() == [(1, 1)]
    k = kernel_lattice(IntMatrix.from_rows([[1, 1]]))
    assert k.basis_rows() == [(1, -1)]
    k = kernel_lattice(IntMatrix.from_rows([[1, 1, 1]]))
    assert k.basis_rows() == [(1, 0, -1), (0, 1, -1)]


def test_kernel_is_saturated_and_complete():
    rng = fresh_rng(4)
    for _ in range(150):
        a = random_matrix(rng, max_dim=3, bound=3)
        lat = kernel_lattice(a)
        assert lat.rank == a.cols - rational_rank([a.row(i) for i in range(a.rows)])
        for b in lat.basis_rows():
            assert all(x == 0 for x in a.apply(b))
        if lat.rank:
            d, _, _ = smith_normal_form(lat.basis)
            assert all(d[i, i] == 1 for i in range(lat.rank)), "kernel basis must be saturated"
        # every small integer kernel vector is an integer combination of the basis
        span_rows = lat.basis_rows()
        from itertools import product as iproduct
        if a.cols <= 3:
            for v in iproduct(range(-2, 3), repeat=a.cols):
                if any(a.apply(v)):
                    continue
                sol = solve_rational(list(zip(*span_rows)) if span_rows else [[] for _ in range(a.cols)],
                                     v)
                if lat.rank == 0:
                    assert all(x == 0 for x in v)
                else:
                    assert sol is not None
                    assert all(x.denominator == 1 for x in sol)


def test_cokernel_frozen_example():
    # index derived with the determinantal-divisor oracle: gcd of 2-minors of
    # [[2,0],[0,2]] is 4
    g = AbelianGroup(2)
    cols = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert cokernel_is_finite(cols, g) == (True, 4)
    assert cokernel_is_finite(IntMatrix.from_rows([[1], [0]]), g) == (False, None)


def test_cokernel_torsion_counts():
    # Z + Z/2, single column (1, 1): quotient generated by the column plus the
    # torsion relation has index gcd of 2-minors of [[1,0],[1,2]] = 2
    g = AbelianGroup(1, (2,))
    ok, idx = cokernel_is_finite(IntMatrix.from_rows([[1], [1]]), g)
    assert (ok, idx) == (True, 2)
    # no columns at all: Z/2 part survives, index 2; free part makes it infinite
    ok, idx = cokernel_is_finite(IntMatrix.from_rows([[]], cols=0), AbelianGroup(0, (2,)))
    assert (ok, idx) == (True, 2)
    assert cokernel_is_finite(IntMatrix.from_rows([[]], cols=0), AbelianGroup(1))[0] is False


def test_cokernel_trivial_target():
    assert cokernel_is_finite(IntMatrix.from_rows([], cols=0), AbelianGroup(0)) == (True, 1)


def test_cokernel_vs_minor_oracle_random():
    rng = fresh_rng(5)
    for _ in range(200):
        k = rng.randint(1, 3)
        ncols = rng.randint(0, 4)
        cols = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(ncols)]
        mat = IntMatrix.from_rows(cols, cols=k).transpose()
        ok, idx = cokernel_is_finite(mat, AbelianGroup(k))
        fac = oracle_invariant_factors(cols, k) if cols else []
        full = len(fac) == k
        assert ok == full
        if full:
            expect = 1
            for f in fac:
                expect *= f
            assert idx == expect


# ---------------------------------------------------------------------------
# misc helpers
# ---------------------------------------------------------------------------

def test_invert_unimodular_round_trip():
    rng = fresh_rng(6)
    pick = fresh_rng(8)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, max_dim=1, bound=5)
        # build a guaranteed-unimodular matrix from random row operations
        u = IntMatrix.identity(n).row_lists()
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                u[i] = [a_ + q * b_ for a_, b_ in zip(u[i], u[j])]
        um = IntMatrix.from_rows(u, cols=n)
        assert um.is_unimodular()
        inv = invert_unimodular(um)
        assert um @ inv == IntMatrix.identity(n)
        # doubling a row gives determinant +-2, repeating one gives 0
        k = pick.randrange(n)
        doubled = [row if i != k else [2 * x for x in row]
                   for i, row in enumerate(u)]
        pytest.raises(ValueError, invert_unimodular,
                      IntMatrix.from_rows(doubled, cols=n))
        if n > 1:
            repeated = [row if i != k else u[(k + 1) % n]
                        for i, row in enumerate(u)]
            pytest.raises(ValueError, invert_unimodular,
                          IntMatrix.from_rows(repeated, cols=n))
    pytest.raises(ValueError, invert_unimodular,
                  IntMatrix.from_rows([[1, 1], [1, -1]]))
    pytest.raises(ValueError, invert_unimodular, IntMatrix.zero(2, 2))
    pytest.raises(ValueError, invert_unimodular, IntMatrix.zero(2, 3))


def test_rational_rank_and_solve():
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(1, 0), (0, 1)]) == 2
    assert rational_rank([], width=3) == 0
    assert solve_rational([(1, 0), (0, 1)], (5, 7)) == (5, 7)
    assert solve_rational([(1, 1), (2, 2)], (1, 3)) is None


def _random_rational_matrix(rng):
    """An m x n matrix of ints or Fractions of rank at most r <= min(m, n).

    Rows are random integer combinations of r random base rows, so about
    half the matrices are rank deficient.
    """
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    rank = rng.randint(0, min(m, n))
    fractional = rng.random() < 0.5

    def entry():
        x = rng.randint(-5, 5)
        return Fraction(x, rng.randint(1, 4)) if fractional else x

    base = [[entry() for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), 0)
                     for j in range(n)])
    return rows


def _sym(rows):
    return SymMatrix([[Rational(x.numerator, x.denominator)
                       if isinstance(x, Fraction) else x for x in r]
                      for r in rows])


def test_elimination_matches_sympy():
    rng = fresh_rng(7)
    inconsistent = 0
    for _ in range(150):
        rows = _random_rational_matrix(rng)
        n = len(rows[0])
        a = _sym(rows)
        assert rational_rank(rows) == a.rank()
        # echelon rows are sympy's RREF rows scaled to primitive integers
        rref, pivots = a.rref()
        reduced = _echelon(rows, n)
        assert [col for col, _ in reduced] == list(pivots)
        for k, (col, row) in enumerate(reduced):
            assert all(type(x) is int for x in row)
            assert row[col] > 0 and math.gcd(*row) == 1
            assert [Fraction(x, row[col]) for x in row] \
                == [Fraction(int(x.p), int(x.q)) for x in rref.row(k)]
        if rng.random() < 0.5:
            xs = [rng.randint(-3, 3) for _ in range(n)]
            rhs = [sum(x * y for x, y in zip(r, xs)) for r in rows]
        else:
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in rows]
        got = solve_rational(rows, rhs)
        try:
            sol, params = a.gauss_jordan_solve(_sym([rhs]).T)
        except ValueError:
            inconsistent += 1
            assert got is None
            continue
        want = sol.subs({p: 0 for p in params})
        assert got == tuple(Fraction(int(x.p), int(x.q)) for x in want)
    assert inconsistent > 10
