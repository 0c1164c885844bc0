"""Exact linear algebra over the rationals.

Dense matrices are row-major sequences of exact rationals (ints or
Fractions; check_exact refuses any other entry) and results are lists of
Fraction.  Elimination runs over Python ints after clearing denominators
and turns back into Fractions only at the end.  rref,
nullspace and in_span share one sparse elimination: each row is a dict
{column: int}, kept primitive, reduced against the pivot rows found so
far; back-substitution runs among the pivot rows only, and only rref
builds dense reduced rows; the reduced form is unique, so the order of
elimination changes no result.  psd_witness and packed_psd share one
elimination on an int matrix's upper triangle packed row by row, whose
pivot choice is that of elimination over Q and deterministic: pivots are
chosen left to right.  psd_witness checks, scales and packs its matrix;
packed_psd takes a packed triangle as it is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ospuir.root_system import check_exact

Matrix = List[List[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_denominator = attrgetter("denominator")


def _sparse_row(row: Sequence, cols: int) -> Dict[int, int]:
    """row times the lcm of its denominators, as a primitive integer row
    {column: nonzero int}; ValueError unless it has cols entries, each
    exact (check_exact)."""
    if len(row) != cols:
        raise ValueError(f"row of length {len(row)} in a matrix of {cols} columns")
    check_exact(row)
    q = {c: x for c, x in enumerate(row) if x}
    den = math.lcm(*(x.denominator for x in q.values()))
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in q.items()})


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _eliminate(row: Dict[int, int], prow: Dict[int, int], c: int) -> Dict[int, int]:
    """The primitive integer combination of row and prow with column c
    cleared; prow[c] and row[c] are nonzero."""
    g = math.gcd(prow[c], row[c])
    p, f = prow[c] // g, row[c] // g
    out = {k: p * x for k, x in row.items()}
    for k, y in prow.items():
        v = out.get(k, 0) - f * y
        if v:
            out[k] = v
        else:
            del out[k]
    return _primitive(out)


def _echelon(m: Sequence[Sequence], cols: int) -> Dict[int, Dict[int, int]]:
    """A basis of the row space of m as {pivot column: sparse primitive
    integer row whose first nonzero column it is}.

    Rows are taken sparsest first, which keeps the pivot rows sparse.  Each
    is reduced against the pivot rows found so far, always at its first
    nonzero column, and becomes a pivot row if anything is left; a row
    that reduces to zero is dropped.  Once every column has a pivot, the
    remaining rows lie in the span and are not reduced.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for r in sorted((_sparse_row(row, cols) for row in m), key=len):
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = r
                break
            r = _eliminate(r, prow, c)
        if len(pivots) == cols:
            break
    return pivots


def _reduced(m: Sequence[Sequence], cols: int) -> Tuple[List[int], Dict[int, Dict[int, int]]]:
    """Pivot columns, ascending, and pivot rows with every other pivot
    column cleared: up to each row's scale, the reduced row-echelon form.

    Back-substitution runs among the pivot rows only, right to left, so
    each row is cleared against rows already free of other pivots.
    """
    rows = _echelon(m, cols)
    order = sorted(rows)
    for i in reversed(range(len(order))):
        row = rows[order[i]]
        for c in order[i + 1:]:
            if c in row:
                row = _eliminate(row, rows[c], c)
        rows[order[i]] = row
    return order, rows


def rref(m: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form and pivot column indices.

    The reduced form is unique, so dividing each pivot row by its pivot at
    the end gives the same Fractions as Gauss-Jordan over Q, whatever the
    order of elimination.  Rows of unequal length raise ValueError.
    """
    cols = len(m[0]) if m else 0
    order, rows = _reduced(m, cols)
    out = []
    for c in order:
        row, p = rows[c], rows[c][c]
        out.append([Fraction(row[k], p) if k in row else _ZERO for k in range(cols)])
    return out, order


def nullspace(m: Sequence[Sequence], cols: Optional[int] = None) -> List[List[Fraction]]:
    """Basis of {x : m x = 0}, one vector per free column, deterministic.

    Rows whose length is not cols raise ValueError; Fractions are built
    for the free columns' entries only.
    """
    if cols is None:
        if not m:
            raise ValueError("empty matrix needs an explicit column count")
        cols = len(m[0])
    order, rows = _reduced(m, cols)
    basis = []
    for fc in range(cols):
        if fc in rows:
            continue
        v = [_ZERO] * cols
        v[fc] = _ONE
        for c in order:
            x = rows[c].get(fc)
            if x:
                v[c] = Fraction(-x, rows[c][c])
        basis.append(v)
    return basis


def in_span(span: Sequence[Sequence], v: Sequence) -> bool:
    """Membership of v in the row space of independent rows (an rref, say):
    appending v leaves the pivot count unchanged.  Every row must have the
    length of v (ValueError otherwise)."""
    rows = list(span)
    return len(_echelon(rows + [v], len(v))) == len(rows)


def psd_witness(gram: Sequence[Sequence]) -> Optional[List[Fraction]]:
    """None when the symmetric matrix is positive semidefinite, else a
    coefficient vector v with v^T G v < 0.

    Entries are ints or Fractions (a bool counts as an int); any other
    entry raises ValueError (check_exact).  The matrix is scaled once by
    the lcm of its denominators, which leaves a matrix of ints as it is;
    scaling by a positive constant changes no sign, pivot or
    witness.  The witness is rebuilt from _congruence_eliminate's pivots
    (see _congruence_basis) and checked on the scaled matrix.
    """
    m = len(gram)
    if any(len(row) != m for row in gram):
        raise ValueError("matrix must be square")
    for row in gram:
        check_exact(row)
    den = math.lcm(*set(map(_denominator, chain.from_iterable(gram))))
    g = gram if den == 1 else [
        [x.numerator * (den // x.denominator) for x in row] for row in gram
    ]
    if list(zip(*g)) != [tuple(row) for row in g]:
        raise ValueError("matrix must be symmetric")
    found = _congruence_eliminate([list(row[s:]) for s, row in enumerate(g)])
    if found is None:
        return None
    pivots, free, sign = found
    basis = _congruence_basis(g, pivots, free)
    v = basis[0] if len(basis) == 1 else [x - sign * y for x, y in zip(*basis)]
    den = math.lcm(*(x.denominator for x in v))
    w = [(i, x.numerator * (den // x.denominator)) for i, x in enumerate(v) if x]
    if sum(x * y * g[i][j] for i, x in w for j, y in w) >= 0:
        raise AssertionError("witness construction failed")
    return v


def packed_psd(a: List[List[int]]) -> bool:
    """Whether the symmetric int matrix with upper triangle a[s][t - s] =
    entry (s, t), t >= s, is PSD; a is consumed and not validated."""
    return _congruence_eliminate(a) is None


def _congruence_eliminate(a: List[List[int]]) -> Optional[Tuple[List[int], List[int], int]]:
    """Symmetric congruence elimination on a packed upper triangle (as
    packed_psd takes it), which it consumes: None when the matrix is PSD,
    else (pivots, free, sign) for the witness.  Pivot on positive diagonal
    entries; a negative diagonal entry i gives free = [i] at once, and an
    all-zero diagonal with entry (i, j) nonzero gives free = [i, j] and
    the sign of that entry.

    Elimination uses Bareiss exact division: after pivots P, entry (i, j)
    is the Schur complement entry times det G[P, P] > 0, so every sign and
    zero test, and with it every choice, is that of elimination over Q.
    The Schur complement stays symmetric, so only its upper triangle is
    stored and updated.
    """
    # a holds the rows and columns still active, in index order; active[s]
    # is the index in the matrix of row/column s
    active = list(range(len(a)))
    pivots: List[int] = []
    prev = 1
    while a:
        k = None
        for s, row in enumerate(a):
            x = row[0]
            if x < 0:
                return pivots, [active[s]], 1
            if x and k is None:
                k = s
        if k is None:
            break
        prow = a.pop(k)
        p = prow[0]
        pivots.append(active.pop(k))
        # entry (k, t) for every row t left, in the new order: taken out of
        # the rows above the pivot, then the pivot row right of its diagonal
        col = [a[s].pop(k - s) for s in range(k)] + prow[1:]
        for s, row in enumerate(a):
            f = col[s]
            if f:
                a[s] = [(p * x - f * y) // prev for x, y in zip(row, col[s:])]
            else:
                a[s] = [p * x // prev for x in row]
        prev = p
    # every remaining diagonal entry is zero
    for s, row in enumerate(a):
        for t, x in enumerate(row):
            if x:
                return pivots, [active[s], active[s + t]], 1 if x > 0 else -1
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
