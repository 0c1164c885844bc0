"""Unitarity classification of positive-energy lowest-weight modules.

For a signature [d; a_1, ..., a_{n-1}] let z be the number of leading zero
labels (z = n - 1 when all vanish), kappa = z / 2 and S = sum a_k.  The
module is unitary exactly when

    d > T            (continuous part),   T = n - 1 - kappa + S / 2,
    d = T            (boundary point), or
    d in {T - s/2 : s = 1, ..., 2 kappa}  (isolated points).

With every label zero the lowest isolated point d = 0 is the trivial
module.  Each unitary d at or below the boundary coincides with one or
more reduction points; the verdict records those names.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ospuir.root_system import check_rank
from ospuir.weights import ReductionPoints, Signature, point_name, reduction_points

BRANCH_CONTINUOUS = "continuous"
BRANCH_BOUNDARY = "boundary"
BRANCH_ISOLATED = "isolated"
BRANCH_TRIVIAL = "trivial"
BRANCH_NONUNITARY = "nonunitary"


class UnitarityVerdict(NamedTuple):
    sig: Signature
    unitary: bool
    branch: str
    governing_point: Optional[Tuple[str, Fraction]]
    first_nonzero_label: Optional[int]
    kappa: Fraction
    audit: Dict[str, object]


def _leading_zeros(a: Sequence[int]) -> int:
    z = 0
    for x in a:
        if x != 0:
            break
        z += 1
    return z


def classify(sig: Signature) -> UnitarityVerdict:
    """Decide unitarity of the module with the given signature."""
    return _verdict(sig, reduction_points(sig.n, sig.a))


def _verdict(sig: Signature, pts: ReductionPoints) -> UnitarityVerdict:
    """classify's verdict, naming its points from pts, the reduction
    points of the signature's label set."""
    n, d, a = sig.n, sig.d, sig.a
    z = _leading_zeros(a)
    kappa = Fraction(z, 2)
    total = sum(a)
    threshold = Fraction(n - 1) - kappa + Fraction(total, 2)
    isolated = [threshold - Fraction(s, 2) for s in range(1, z + 1)]
    first_nonzero = z + 1 if z < len(a) else None

    def point_of(value: Fraction) -> Tuple[str, Fraction]:
        label = pts.labels_at(value)
        if not label:
            raise AssertionError(f"unitary value {value} matches no reduction point")
        return (label, value)

    if d > threshold:
        unitary, branch = True, BRANCH_CONTINUOUS
        governing: Optional[Tuple[str, Fraction]] = point_of(threshold)
    elif d == threshold:
        unitary, branch = True, BRANCH_BOUNDARY
        governing = point_of(threshold)
    elif d in isolated:
        unitary, branch = True, BRANCH_ISOLATED
        governing = point_of(d)
    else:
        unitary, branch = False, BRANCH_NONUNITARY
        governing = None
    if unitary and d == 0 and first_nonzero is None:
        branch = BRANCH_TRIVIAL

    audit: Dict[str, object] = {
        "leading_zero_count": z,
        "kappa": kappa,
        "threshold": threshold,
        "isolated_points": tuple(isolated),
        "note": (
            "isolated points read as the 2*kappa half-integer steps "
            "directly below the boundary"
        ),
    }
    return UnitarityVerdict(
        sig=sig, unitary=unitary, branch=branch, governing_point=governing,
        first_nonzero_label=first_nonzero, kappa=kappa, audit=audit,
    )


def subsingular_points(n: int, a: Sequence[int]) -> List[Tuple[Fraction, str]]:
    """Values of d carrying a subsingular vector, with coincidence chains.

    Two families, e = 0 and e = 1, each requiring a run of leading zero
    labels a_1 = ... = a_{2j-2+e} = 0 (labels beyond a_{n-1} count as
    zero), for j = 2..n-1-e:

        d = n - j - e/2 + (a_{2j-1+e} + ... + a_{n-1})/2,

    named d_j = d_{1,2j-1} = ... for e = 0 and d_{j,j+1} = d_{1,2j} = ...
    for e = 1: the chain is d_{i,2j+e-i} for i = max(1, 2j+e-n)..j-1.

    Sorted by decreasing d.
    """
    check_rank("roots", n)
    a = tuple(a)
    if len(a) != n - 1:
        raise ValueError(f"expected {n - 1} labels, got {len(a)}")
    Signature(n, 0, a)   # refuses the labels that no signature takes
    out: List[Tuple[Fraction, str]] = []
    for e in (0, 1):
        for j in range(2, n - e):
            if any(a[: 2 * j - 2 + e]):
                continue
            value = n - j - Fraction(e, 2) + Fraction(sum(a[2 * j - 2 + e:]), 2)
            names = [point_name(n, j, j + 1 if e else None)]
            names += [point_name(n, i, 2 * j + e - i) for i in range(max(1, 2 * j + e - n), j)]
            out.append((value, "=".join(names)))
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


class GridRow(NamedTuple):
    sig: Signature
    verdict: UnitarityVerdict


def unitarity_grid(
    n: int,
    a_ranges: Sequence[Sequence[int]],
    d_values: Sequence[Fraction],
) -> List[GridRow]:
    """Classify every combination of labels and d, in deterministic order.

    a_ranges gives the candidate values per label slot (length n - 1);
    each d is read as Signature reads it.  Combinations run in
    lexicographic order, d ascending inside each, whose reduction points
    are solved once.
    """
    if len(a_ranges) != n - 1:
        raise ValueError(f"expected {n - 1} label ranges, got {len(a_ranges)}")
    rows: List[GridRow] = []
    for combo in itertools.product(*a_ranges):
        sigs = sorted((Signature(n=n, d=d, a=tuple(combo)) for d in d_values),
                      key=lambda sig: sig.d)
        if sigs:
            pts = reduction_points(n, combo)
            rows.extend(GridRow(sig=sig, verdict=_verdict(sig, pts)) for sig in sigs)
    return rows
