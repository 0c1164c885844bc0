"""Exact elimination kernels: psd_witness, rref and nullspace.

The integer kernels must return exactly what Gauss elimination over Q
returns.  The Fraction implementations below are the references.
"""

import random
from fractions import Fraction

import pytest

from ospuir.linalg import in_span, nullspace, psd_witness, rref


# ------------------------------------------------------ Fraction references

def _ref_rref(m):
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _ref_nullspace(m, cols):
    if not m:
        return [[Fraction(1 if i == j else 0) for i in range(cols)] for j in range(cols)]
    red, pivots = _ref_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _ref_psd_witness(gram):
    m = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    basis = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    active = list(range(m))
    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            return basis[neg]
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is not None:
            active.remove(piv)
            p = a[piv][piv]
            for i in active:
                f = a[i][piv] / p
                if f == 0:
                    continue
                basis[i] = [x - f * y for x, y in zip(basis[i], basis[piv])]
                for j in active:
                    a[i][j] -= f * a[piv][j]
            for i in active:
                a[i][piv] = Fraction(0)
                a[piv][i] = Fraction(0)
            continue
        for i in active:
            for j in active:
                if j > i and a[i][j] != 0:
                    s = 1 if a[i][j] > 0 else -1
                    return [x - s * y for x, y in zip(basis[i], basis[j])]
        return None
    return None


def _norm(gram, v):
    m = len(gram)
    return sum(v[i] * Fraction(gram[i][j]) * v[j] for i in range(m) for j in range(m))


# ------------------------------------------------------------- hand cases

def test_psd_witness_positive_definite():
    assert psd_witness([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) is None


def test_psd_witness_singular_psd():
    # B^T B with B = [[1, 1, 2]]: rank one
    assert psd_witness([[1, 1, 2], [1, 1, 2], [2, 2, 4]]) is None


def test_psd_witness_negative_diagonal():
    # pivot on e_0, then the Schur complement of e_1 is 1 - 4 = -3
    g = [[1, 2], [2, 1]]
    assert psd_witness(g) == [Fraction(-2), Fraction(1)]
    assert psd_witness([[3, 0], [0, -1]]) == [Fraction(0), Fraction(1)]


def test_psd_witness_zero_diagonal_two_term():
    assert psd_witness([[0, 1], [1, 0]]) == [Fraction(1), Fraction(-1)]
    assert psd_witness([[0, -2], [-2, 0]]) == [Fraction(1), Fraction(1)]
    # after one pivot: e_1 and e_2 become orthogonal to e_0, with zero norms
    g = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    v = psd_witness(g)
    assert v == [Fraction(0), Fraction(1), Fraction(-1)]
    assert _norm(g, v) == -2


def test_psd_witness_zero_and_empty():
    assert psd_witness([]) is None
    assert psd_witness([[0, 0], [0, 0]]) is None


def test_psd_witness_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        psd_witness([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        psd_witness([[1, 2], [3, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        psd_witness([[1, Fraction(1, 2)], [Fraction(1, 3), 1]])


def test_int_and_fraction_inputs_agree():
    g = [[4, -2, 1], [-2, 1, 3], [1, 3, -1]]
    gf = [[Fraction(x) for x in row] for row in g]
    v = psd_witness(g)
    assert v is not None and v == psd_witness(gf)
    assert all(type(x) is Fraction for x in v)
    m = [[2, 4, 1], [1, 2, 0]]
    assert rref(m) == rref([[Fraction(x) for x in row] for row in m])
    assert nullspace(m) == nullspace([[Fraction(x) for x in row] for row in m])


def test_rref_examples():
    red, pivots = rref([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    assert all(type(x) is Fraction for row in red for x in row)
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert in_span(red, [2, 1, 0]) and not in_span(red, [0, 0, 1])


# --------------------------------------------------------- property tests

def _entry(rng, denominators):
    num = rng.randint(-4, 4)
    return Fraction(num, rng.choice((1, 2, 3, 6))) if denominators else num


def _random_matrix(rng, rows, cols, rank, denominators):
    """rows x cols matrix of rank at most `rank`, as a product of factors."""
    left = [[_entry(rng, denominators) for _ in range(rank)] for _ in range(rows)]
    right = [[_entry(rng, denominators) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


def _gram(b):
    """B^T B: positive semidefinite, of rank rank(B)."""
    cols = len(b[0])
    return [[sum(row[i] * row[j] for row in b) for j in range(cols)] for i in range(cols)]


def _hyperbolic_tail(rng, size, denominators):
    """L H L^T with L unit lower triangular and H = diag(positive, [[0, s], [s, 0]]):
    elimination pivots on the leading coordinates and then meets a zero
    diagonal with a nonzero off-diagonal entry."""
    k = size - 2
    h = [[Fraction(0)] * size for _ in range(size)]
    for i in range(k):
        h[i][i] = Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)) if denominators else 1)
    h[k][k + 1] = h[k + 1][k] = Fraction(rng.choice((-3, -1, 1, 2)))
    lo = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(min(i, k)):
            lo[i][j] = Fraction(_entry(rng, denominators))
    return [[sum(lo[i][p] * h[p][q] * lo[j][q] for p in range(size) for q in range(size))
             for j in range(size)] for i in range(size)]


def _symmetric_cases(rng):
    for t in range(360):
        denominators = t % 3 == 0
        size = rng.randint(1, 7)
        family = t % 4
        if family == 0:
            g = [[None] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    g[i][j] = g[j][i] = _entry(rng, denominators)
        elif family == 1:
            g = _gram(_random_matrix(rng, rng.randint(1, size), size,
                                     rng.randint(1, size), denominators))
        elif family == 2:
            # PSD with one diagonal entry lowered: negatives appear late
            g = _gram(_random_matrix(rng, size, size, size, denominators))
            i = rng.randrange(size)
            g[i][i] -= rng.randint(1, 3)
        else:
            g = _hyperbolic_tail(rng, max(size, 2), denominators)
        yield g


def test_psd_witness_matches_fraction_reference():
    rng = random.Random(20261017)
    outcomes = {"psd": 0, "witness": 0}
    for g in _symmetric_cases(rng):
        before = [list(row) for row in g]
        got = psd_witness(g)
        assert got == _ref_psd_witness(g), g
        assert g == before
        if got is None:
            outcomes["psd"] += 1
        else:
            assert all(type(x) is Fraction for x in got)
            assert _norm(g, got) < 0
            outcomes["witness"] += 1
    # both verdicts, and full eliminations, are exercised
    assert outcomes["psd"] >= 80 and outcomes["witness"] >= 80


def test_rref_and_nullspace_match_fraction_reference():
    rng = random.Random(20261018)
    for t in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        m = _random_matrix(rng, rows, cols, rank, denominators=t % 2 == 0)
        red, pivots = rref(m)
        assert (red, pivots) == _ref_rref(m), m
        assert len(pivots) <= rank
        assert all(type(x) is Fraction for row in red for x in row)
        assert nullspace(m) == _ref_nullspace(m, cols)
    assert nullspace([], cols=3) == _ref_nullspace([], 3)
