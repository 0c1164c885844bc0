"""Exact linear algebra over the rationals.

Dense matrices are row-major sequences of exact rationals (ints or
Fractions) and results are lists of Fraction; sparse vectors are dicts from
keys to nonzero Fractions.  Elimination runs over Python ints after clearing
denominators, once per matrix in psd_witness and once per row in rref, and
turns back into Fractions only at the end; psd_witness takes a matrix
whose denominators are all 1, such as a matrix of ints, as it is.  Pivot
choice is that of elimination over Q and deterministic: pivots are chosen
left to right, rows top to bottom.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]

_ZERO = Fraction(0)
_denominator = attrgetter("denominator")


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


def _as_rational(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _int_row(row: Sequence) -> List[int]:
    """row times the lcm of its denominators, as primitive ints (entries
    with no common factor); an all-zero row stays as it is."""
    q = [_as_rational(x) for x in row]
    den = math.lcm(*(x.denominator for x in q))
    return _primitive([x.numerator * (den // x.denominator) for x in q])


def _primitive(row: List[int]) -> List[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(m: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices.

    Rows are scaled to primitive integer rows and eliminated with integer
    row operations; the reduced form is unique, so dividing each pivot row
    by its pivot at the end gives the same Fractions as Gauss-Jordan over Q.
    """
    a = [_int_row(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                g = math.gcd(p, f)
                pi, fi = p // g, f // g
                a[i] = _primitive([pi * x - fi * y for x, y in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)], pivots


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


def in_span(span: Sequence[Sequence], v: Sequence) -> bool:
    """Membership of v in the row space of independent rows (an rref, say):
    appending v leaves the pivot count unchanged."""
    rows = list(span)
    return len(rref(rows + [v])[1]) == len(rows)


def psd_witness(gram: Sequence[Sequence]) -> Optional[List[Fraction]]:
    """None when the symmetric matrix is positive semidefinite, else a
    coefficient vector v with v^T G v < 0.

    Symmetric congruence elimination: pivot on positive diagonal entries;
    a negative diagonal entry gives a witness at once, and an all-zero
    diagonal with a nonzero off-diagonal entry gives a two-term witness.

    Entries are ints or Fractions (a bool counts as an int).  The matrix is
    scaled once by the lcm of its denominators, which leaves a matrix of
    ints as it is; scaling by a positive constant changes no sign, pivot or
    witness.  Elimination uses Bareiss exact division: after pivots P,
    entry (i, j) is the Schur complement entry times det G[P, P] > 0, so
    every sign and zero test, and with it every choice, is that of
    elimination over Q.  The witness is rebuilt afterwards from the pivots
    (see _congruence_basis) and checked on the scaled matrix.
    """
    m = len(gram)
    if any(len(row) != m for row in gram):
        raise ValueError("matrix must be square")
    den = math.lcm(*set(map(_denominator, chain.from_iterable(gram))))
    g = gram if den == 1 else [
        [x.numerator * (den // x.denominator) for x in row] for row in gram
    ]
    if list(zip(*g)) != [tuple(row) for row in g]:
        raise ValueError("matrix must be symmetric")

    def check(v: List[Fraction]) -> List[Fraction]:
        den = math.lcm(*(x.denominator for x in v))
        w = [(i, x.numerator * (den // x.denominator)) for i, x in enumerate(v) if x]
        if sum(x * y * g[i][j] for i, x in w for j, y in w) >= 0:
            raise AssertionError("witness construction failed")
        return v

    # a holds the rows and columns still active, in index order; active[k]
    # is the index in gram of row/column k of a.
    a = [list(row) for row in g]
    active = list(range(m))
    pivots: List[int] = []
    prev = 1
    while active:
        diag = [a[k][k] for k in range(len(active))]
        neg = next((k for k, x in enumerate(diag) if x < 0), None)
        if neg is not None:
            return check(_congruence_basis(g, pivots, [active[neg]])[0])
        k = next((k for k, x in enumerate(diag) if x > 0), None)
        if k is None:
            break
        p = diag[k]
        prow = a.pop(k)
        del prow[k]
        pivots.append(active.pop(k))
        for t, row in enumerate(a):
            f = row.pop(k)
            if f:
                a[t] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            else:
                a[t] = [p * x // prev for x in row]
        prev = p
    # every remaining diagonal entry is zero
    for s, row in enumerate(a):
        for t in range(s + 1, len(row)):
            if row[t]:
                bi, bj = _congruence_basis(g, pivots, [active[s], active[t]])
                sign = 1 if row[t] > 0 else -1
                return check([x - sign * y for x, y in zip(bi, bj)])
    return None


def _congruence_basis(
    g: Sequence[Sequence[int]], pivots: List[int], free: List[int]
) -> List[List[Fraction]]:
    """For each i in free, the vector e_i + sum_{p in pivots} c_p e_p that
    is g-orthogonal to every e_p, p in pivots.

    g[pivots, pivots] is positive definite, so the vector is unique; it is
    the basis vector that congruence elimination over Q carries for i.
    """
    cols = pivots + free
    sols = nullspace([[g[p][c] for c in cols] for p in pivots], cols=len(cols))
    out = []
    for sol in sols:
        v = [_ZERO] * len(g)
        for c, x in zip(cols, sol):
            v[c] = x
        out.append(v)
    return out
