"""Exact elimination kernels: psd_witness, packed_psd, rref and nullspace.

The integer kernels must return exactly what Gauss elimination over Q
returns.  The Fraction implementations below are the references.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from ospuir import linalg
from ospuir.linalg import in_span, nullspace, packed_psd, psd_witness, rref


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
    # elimination that pivots in the middle of the active set, and blocks
    # whose rows and columns are interleaved
    for t in range(120):
        denominators = t % 3 == 0
        if t % 2:
            yield _leading_zero_diagonals(rng, rng.randint(1, 5), denominators)
        else:
            yield _permuted_block_diagonal(rng, denominators)


def _nonzero(rng, denominators):
    return _entry(rng, denominators) or 1


def _leading_zero_diagonals(rng, size, denominators):
    """One or two zero diagonal entries ahead of a PSD block, so the first
    pivot lies past them.  The leading rows stay zero, meet a later
    column (a negative diagonal after the pivots), or, when there are two,
    meet each other only (the two-term zero-diagonal witness after the
    pivots)."""
    z = rng.randint(1, 2)
    inner = _gram(_random_matrix(rng, size, size, rng.randint(1, size), denominators))
    m = z + size
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(size):
        for j in range(size):
            g[z + i][z + j] = Fraction(inner[i][j])
    kind = rng.randrange(3)
    if kind == 1:
        i, j = rng.randrange(z), rng.randrange(z, m)
        g[i][j] = g[j][i] = Fraction(_nonzero(rng, denominators))
    elif kind == 2 and z == 2:
        g[0][1] = g[1][0] = Fraction(_nonzero(rng, denominators))
    return g


def _permuted_block_diagonal(rng, denominators):
    """Two or three symmetric blocks of the other families on the diagonal,
    then one permutation applied to rows and columns alike."""
    blocks = []
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(1, 3)
        family = rng.randrange(3)
        if family == 0:
            b = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    b[i][j] = b[j][i] = Fraction(_entry(rng, denominators))
        elif family == 1:
            b = _gram(_random_matrix(rng, size, size, rng.randint(1, size), denominators))
        else:
            b = _hyperbolic_tail(rng, max(size, 2), denominators)
        blocks.append(b)
    m = sum(len(b) for b in blocks)
    g = [[Fraction(0)] * m for _ in range(m)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[start + i][start + j] = Fraction(x)
        start += len(b)
    perm = list(range(m))
    rng.shuffle(perm)
    return [[g[perm[i]][perm[j]] for j in range(m)] for i in range(m)]


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


def _symmetric_int_case(rng, size):
    """A symmetric int matrix of the given size, from one of four
    families: random entries, a rank-deficient Gram matrix B^T B (PSD),
    zero diagonal with nonzero entries off it, and a PSD Gram matrix with
    one diagonal entry made negative."""
    family = rng.randrange(4)
    if family == 1 or family == 3:
        rank = rng.randint(0, max(size - 1, 0)) if family == 1 else size
        b = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(rank)]
        g = [[sum(r[i] * r[j] for r in b) for j in range(size)] for i in range(size)]
        if family == 3 and size:
            i = rng.randrange(size)
            g[i][i] = -rng.randint(1, 5)
        return g
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            g[i][j] = g[j][i] = rng.randint(-4, 4)
    if family == 2:
        for i in range(size):
            g[i][i] = 0
        if size >= 2:
            i, j = rng.sample(range(size), 2)
            g[i][j] = g[j][i] = rng.choice((-1, 1)) * rng.randint(1, 4)
    return g


def test_packed_psd_matches_psd_witness():
    # the scan's predicate on the packed upper triangle gives psd_witness's
    # verdict on the whole matrix, and the Fraction reference's, at every
    # size from 0 to 6
    rng = random.Random(20261025)
    seen = set()
    for t in range(1400):
        size = t % 7
        g = _symmetric_int_case(rng, size)
        packed = [row[s:] for s, row in enumerate(g)]
        expected = psd_witness(g) is None
        assert expected == (_ref_psd_witness(g) is None), g
        assert packed_psd(packed) == expected, g
        diagonal = [g[i][i] for i in range(size)]
        seen.add((expected, size,
                  min(diagonal, default=0) < 0,
                  not any(diagonal) and any(map(any, g)),
                  expected and len(rref(g)[1]) < size))
    verdicts = {psd for psd, *_ in seen}
    assert verdicts == {True, False}
    assert {size for _, size, *_ in seen} == set(range(7))
    assert any(s[2] for s in seen), "no negative diagonal"
    assert any(s[3] for s in seen), "no zero diagonal with a nonzero entry"
    assert any(s[4] and s[1] >= 3 for s in seen), "no rank-deficient PSD matrix"


def test_int_scaled_matrices_match_fraction_matrices():
    # each seeded matrix times a positive integer that clears its
    # denominators: psd_witness takes it as it is, with the same witness
    rng = random.Random(20261017)
    for g in _symmetric_cases(rng):
        gf = [[Fraction(x) for x in row] for row in g]
        den = math.lcm(*(x.denominator for row in gf for x in row)) * rng.randint(1, 9)
        gi = [[int(x * den) for x in row] for row in gf]
        assert psd_witness(gi) == psd_witness(gf), g


def test_int_path_rejects_bad_shapes():
    for bad in ([[1, 2], [2]], [[1, 2, 3], [2, 1, 3]], [[1], [1]]):
        with pytest.raises(ValueError, match="square"):
            psd_witness(bad)
    for bad in ([[0, 1, 2], [1, 0, 3], [2, 4, 0]], ((1, -1), (1, 1))):
        with pytest.raises(ValueError, match="symmetric"):
            psd_witness(bad)


def test_bool_matrices_match_int_matrices():
    rng = random.Random(20261022)
    witnesses = 0
    for _ in range(60):
        size = rng.randint(1, 5)
        b = [[False] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                b[i][j] = b[j][i] = rng.random() < 0.5
        got = psd_witness(b)
        assert got == psd_witness([[int(x) for x in row] for row in b]), b
        witnesses += got is not None
    assert witnesses >= 10
    assert psd_witness([[False, True], [True, False]]) == [Fraction(1), Fraction(-1)]


def test_witness_check_is_strict(monkeypatch):
    # a rebuilt witness of zero or positive norm is an internal fault
    g = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
    for bad in ([Fraction(0), Fraction(1, 3), Fraction(0)],
                [Fraction(1, 2), Fraction(0), Fraction(0)]):
        monkeypatch.setattr(linalg, "_congruence_basis", lambda *args, v=bad: [v])
        for matrix in (g, [[Fraction(x) for x in row] for row in g]):
            with pytest.raises(AssertionError, match="witness construction failed"):
                psd_witness(matrix)


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
    # tall sparse matrices shaped like the stacked singular-vector kernels
    # (112 x 60, about 6% nonzero), with zero rows and Fraction or bool rows
    rng = random.Random(20261019)
    ranks = []
    for deficient in (False, True):
        m = _tall_sparse(rng, deficient)
        for i in rng.sample(range(len(m)), 4):
            m[i] = [0] * 60
        for i in rng.sample(range(len(m)), 8):
            den = rng.choice((2, 3, 7))
            m[i] = [Fraction(x, den) for x in m[i]]
        m += [[rng.random() < 0.06 for _ in range(60)] for _ in range(3)]
        red, pivots = _ref_rref(m)
        ranks.append(len(pivots))
        assert rref(m) == (red, pivots)
        assert nullspace(m) == _ref_nullspace(m, 60)
        # in span: a combination of the reduced rows; not in span: a kernel
        # vector k (k . k > 0 while every row is orthogonal to k)
        coeffs = [rng.randint(-3, 3) for _ in red]
        combo = [sum(x * row[c] for x, row in zip(coeffs, red)) for c in range(60)]
        assert in_span(red, combo)
        assert in_span(red, [0] * 60)
        for k in nullspace(m)[:3]:
            assert not in_span(red, k)
    assert ranks[0] == 60 and ranks[1] < 60


def _tall_sparse(rng, deficient):
    """112 x 60 int matrix, about 6% nonzero; when deficient, every row is a
    multiple of one of 40 sparse rows plus a multiple of another, so the
    rank is at most 40 and the kernel is not empty."""
    def sparse_row():
        return [rng.randint(-9, 9) if rng.random() < 0.06 else 0 for _ in range(60)]
    if not deficient:
        return [sparse_row() for _ in range(112)]
    base = [sparse_row() for _ in range(40)]
    rows = []
    for _ in range(112):
        (i, j), (a, b) = rng.sample(range(40), 2), (rng.randint(1, 3), rng.randint(-3, 3))
        rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
    return rows


def test_ragged_rows_raise():
    with pytest.raises(ValueError):
        rref([[1, 2, 3], [4, 5]])
    with pytest.raises(ValueError):
        nullspace([[1, 2, 3]], cols=2)
    with pytest.raises(ValueError):
        nullspace([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        in_span([[1, 0, 0]], [0, 1])
    # no rows give no column count
    with pytest.raises(ValueError, match="explicit column count"):
        nullspace([])


@pytest.mark.parametrize("bad", [0.5, 0.0, "1/2", Decimal("0.5")])
def test_inexact_entries_raise(bad):
    # an exact rational is an int or a Fraction; a float, even 0.0, a str
    # and a Decimal are refused, where a zero entry is skipped too
    for call in (lambda: nullspace([[bad, 1]]), lambda: rref([[1, 2], [bad, 1]]),
                 lambda: in_span([[1, 0]], [bad, 1]), lambda: psd_witness([[bad]]),
                 lambda: psd_witness([[1, bad], [bad, 1]])):
        with pytest.raises(ValueError, match="ints or Fractions"):
            call()
    # a bool is an int
    assert nullspace([[True, 1]]) == nullspace([[1, 1]]) == [[Fraction(-1), Fraction(1)]]
