"""Lowest-weight signatures, Dynkin labels, and reduction points.

A positive-energy lowest-weight module is fixed by the signature
[d; a_1, ..., a_{n-1}] with d rational and a_k nonnegative integers.  The
lowest weight is Lambda = (lambda_1, ..., lambda_n) with

    lambda_i = d + (a_1 + ... + a_{i-1} - a_i - ... - a_{n-1}) / 2.

Reducibility of the Verma module with respect to a positive root beta is
controlled by m_beta = (rho - Lambda, beta-vee): the module is reducible
exactly when m_beta is a positive integer.  Reduction points are the values
of d where m_beta = 1 for beta in the families delta_i + delta_j, delta_i
and 2 delta_i; the compact family delta_i - delta_j does not move with d.
"""

from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from ospuir.root_system import (
    FAMILY_COMPACT,  # the FAMILY_* names stay importable from ospuir.weights
    FAMILY_DOUBLE,
    FAMILY_ODD,
    FAMILY_SUM,
    RootVector,
    Weight,
    build_root_system,
    check_exact,
    check_rank,
    is_int,
    rho_shift,
    simple_labels,
)


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """The exact rational an integer or "p/q" string names; decimals and
    exponents are refused."""
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not an exact rational 'p/q': {text!r}")
    return Fraction(text.strip())


class _SignatureFields(NamedTuple):
    n: int
    d: Fraction
    a: Tuple[int, ...]


class Signature(_SignatureFields):
    """Signature [d; a_1, ..., a_{n-1}] of a lowest-weight module.

    d is exact: an int, a Fraction or a "p/q" string (parse_rational); a
    float, a bool or a decimal string is refused, as is a bool label.
    """

    __slots__ = ()

    def __new__(cls, n: int, d, a: Sequence[int]) -> "Signature":
        check_rank("roots", n)
        a = tuple(a)
        if len(a) != n - 1:
            raise ValueError(f"expected {n - 1} labels a_k, got {len(a)}")
        if any(not is_int(x) or x < 0 for x in a):
            raise ValueError("labels a_k must be nonnegative integers")
        if isinstance(d, (bool, float)):
            raise ValueError(f"d must be exact, not the {type(d).__name__} {d!r}")
        d = parse_rational(d) if isinstance(d, str) else Fraction(d)
        return super().__new__(cls, n, d, a)


def lowest_weight(sig: Signature) -> Weight:
    """Coordinates of Lambda in the delta basis."""
    out = []
    total = sum(sig.a)
    prefix = 0
    for i in range(sig.n):
        out.append(sig.d + Fraction(2 * prefix - total, 2))
        if i < sig.n - 1:
            prefix += sig.a[i]
    return tuple(out)


def dynkin_labels(sig: Signature) -> Tuple[Fraction, ...]:
    """Labels m_k = (rho - Lambda, alpha_k-vee) for the n simple roots."""
    return labels_of_weight(lowest_weight(sig))


def labels_of_weight(lam: Weight) -> Tuple[Fraction, ...]:
    """Labels of an arbitrary weight against the simple coroots."""
    return simple_labels(rho_shift(lam))


def weight_from_labels(labels: Sequence) -> Weight:
    """Weight Lambda with (rho - Lambda, alpha_k-vee) equal to the labels:
    the inverse of labels_of_weight.  A label count outside
    RANKS["roots"] raises ValueError."""
    check_rank("roots", len(labels))
    check_exact(labels)
    ms = [Fraction(x) for x in labels]
    n = len(ms)
    mu = [Fraction(0)] * n
    mu[n - 1] = ms[n - 1] / 2
    for k in range(n - 2, -1, -1):
        mu[k] = mu[k + 1] + ms[k]
    return rho_shift(mu)


class ReducibilityEntry(NamedTuple):
    """m_beta for one positive root beta.  (i, j) names beta as the
    reduction points do: j None for delta_i, j == i for 2 delta_i, and
    i < j for delta_i + delta_j and delta_i - delta_j."""

    root: RootVector
    family: str
    i: int
    j: Optional[int]
    m_value: Fraction
    satisfied: bool


class ReducibilityReport(NamedTuple):
    sig: Signature
    entries: Tuple[ReducibilityEntry, ...]


def _is_positive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x > 0


def reducibility_report(sig: Signature) -> ReducibilityReport:
    """m_beta for every positive root family, with the integrality flag."""
    mu = rho_shift(lowest_weight(sig))
    entries = []
    for family, i, j, root, cv in build_root_system(sig.n).families:
        m = sum((x * c for x, c in zip(mu, cv) if c), Fraction(0))
        entries.append(ReducibilityEntry(
            root=root, family=family, i=i, j=j, m_value=m,
            satisfied=_is_positive_integer(m),
        ))
    return ReducibilityReport(sig=sig, entries=tuple(entries))


def point_name(n: int, i: int, j: Optional[int] = None) -> str:
    """Conventional name of a rank-n point: d1 for delta_1, d11 for
    2 delta_1, d13 for delta_1 + delta_3; indices get comma-separated from
    rank 10 up."""
    if j is None:
        return f"d{i}"
    return f"d{i}{j}" if n < 10 else f"d{i},{j}"


def point_family(i: int, j: Optional[int] = None) -> str:
    """Family of the root behind the point (i, j): delta_i when j is None,
    2 delta_i when j == i, delta_i + delta_j otherwise."""
    if j is None:
        return FAMILY_ODD
    return FAMILY_DOUBLE if j == i else FAMILY_SUM


@lru_cache(maxsize=None)
def _point_rows(n: int) -> Tuple[Tuple[Tuple[int, Optional[int]], int, int], ...]:
    """(key (i, j), index in the report, slope) for every noncompact root
    of rank n, in the key order of ReductionPoints.points."""
    return tuple(
        ((i, j), k, sum(cv))
        for family in (FAMILY_ODD, FAMILY_DOUBLE, FAMILY_SUM)
        for k, (fam, i, j, _root, cv) in enumerate(build_root_system(n).families)
        if fam == family
    )


class ReductionPoints(NamedTuple):
    """Values of d where m_beta = 1, one per noncompact positive root.

    points maps (i, j) to its value: j None stands for delta_i, j == i for
    2 delta_i and i < j for delta_i + delta_j.  Keys run in name order: the
    delta_i, the 2 delta_i, then the delta_i + delta_j, by index inside
    each.  The labels a_k are held fixed.
    """

    n: int
    a: Tuple[int, ...]
    points: Dict[Tuple[int, Optional[int]], Fraction]

    def value(self, i: int, j: Optional[int] = None) -> Fraction:
        """Point for the pair (i, j), for delta_i (j None) or 2 delta_i (j == i)."""
        return self.points[(i, j)]

    def point_name(self, i: int, j: Optional[int] = None) -> str:
        return point_name(self.n, i, j)

    def labels_at(self, value: Fraction) -> str:
        """All point names equal to the given value, joined with '=', in
        name order.  Returns '' when no point matches."""
        return "=".join(
            self.point_name(i, j) for (i, j), d in self.points.items() if d == value
        )


def reduction_points(n: int, a: Sequence[int]) -> ReductionPoints:
    """Solve m_beta(d) = 1 for every noncompact positive root.

    Lambda(d) = Lambda(0) + d (1, ..., 1), so m_beta(d) = m_beta(0) - slope*d
    with slope the coordinate sum of beta-vee; compact roots have slope 0.
    """
    a = tuple(a)
    entries = reducibility_report(Signature(n=n, d=Fraction(0), a=a)).entries
    points = {
        key: (entries[k].m_value - 1) / slope for key, k, slope in _point_rows(n)
    }
    return ReductionPoints(n=n, a=a, points=points)


def mn_at_reduction(m: Sequence[int], i: int, j: Optional[int] = None) -> Fraction:
    """Last Dynkin label m_n evaluated at a reduction point.

    m holds the first n-1 labels (m_k = 1 + a_k); the point is
    ReductionPoints.value(i, j).
    """
    if any(not is_int(x) or x < 1 for x in m):
        raise ValueError("labels m_k must be positive integers")
    n = len(m) + 1
    a = tuple(x - 1 for x in m)
    pts = reduction_points(n, a)
    sig = Signature(n=n, d=pts.value(i, j), a=a)
    return dynkin_labels(sig)[n - 1]
