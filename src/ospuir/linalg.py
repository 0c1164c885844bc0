"""Exact linear algebra over the rationals.

Dense matrices are row-major lists of Fraction; sparse vectors are dicts
from keys to nonzero Fractions.  Everything here is deterministic: pivots are
chosen left to right, rows top to bottom.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]

_ZERO = Fraction(0)


def add_scaled(acc: Dict, terms: Mapping, coeff) -> None:
    """acc += coeff * terms for sparse vectors (dicts of Fractions), in
    place; keys whose coefficient cancels to zero are dropped."""
    if not coeff:
        return
    for k, c in terms.items():
        v = acc.get(k, _ZERO) + c * coeff
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def _clone(m: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in m]


def rref(m: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices."""
    a = _clone(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
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


def nullspace(m: Sequence[Sequence], cols: Optional[int] = None) -> List[List[Fraction]]:
    """Basis of {x : m x = 0}, one vector per free column, deterministic."""
    rows = len(m)
    if cols is None:
        if rows == 0:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(m[0])
    if rows == 0:
        return [[Fraction(1 if i == j else 0) for i in range(cols)] for j in range(cols)]
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def in_span(span_rref: Sequence[Sequence], v: Sequence) -> bool:
    """Membership of v in the row space given by rref rows."""
    vec = [Fraction(x) for x in v]
    rows = list(span_rref)
    if rows:
        pivots = []
        for row in rows:
            for c, x in enumerate(row):
                if x != 0:
                    pivots.append(c)
                    break
        for row, pc in zip(rows, pivots):
            if vec[pc] != 0:
                f = vec[pc]
                vec = [x - f * y for x, y in zip(vec, row)]
    return all(x == 0 for x in vec)


def psd_witness(gram: Sequence[Sequence]) -> Optional[List[Fraction]]:
    """None when the symmetric matrix is positive semidefinite, else a
    coefficient vector v with v^T G v < 0.

    Symmetric congruence elimination: pivot on positive diagonal entries;
    a negative diagonal entry gives a witness at once, and an all-zero
    diagonal with a nonzero off-diagonal entry gives a two-term witness.
    """
    m = len(gram)
    a = _clone(gram)
    for i in range(m):
        if len(a[i]) != m:
            raise ValueError("matrix must be square")
        for j in range(m):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix must be symmetric")
    basis = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    active = list(range(m))

    def check(v: List[Fraction]) -> List[Fraction]:
        val = sum(
            v[i] * Fraction(gram[i][j]) * v[j] for i in range(m) for j in range(m)
        )
        if val >= 0:
            raise AssertionError("witness construction failed")
        return v

    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            return check(basis[neg])
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
        # all remaining diagonal entries are zero
        for i in active:
            for j in active:
                if j > i and a[i][j] != 0:
                    s = 1 if a[i][j] > 0 else -1
                    return check([x - s * y for x, y in zip(basis[i], basis[j])])
        return None
    return None
