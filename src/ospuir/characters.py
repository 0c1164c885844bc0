"""Character series in the simple-root variables t_1, ..., t_n.

A character of a lowest-weight module V with lowest weight Lambda is
e(Lambda) times a power series in t_k = e(alpha_k) with nonnegative integer
exponents.  Series are truncated by total degree; all coefficients are
exact rationals (integers for every character handled here).

The Verma character is the product over restricted positive roots alpha of
1 / (1 - t^alpha).  Finite-dimensional characters of the restricted B_n
system come from the alternating Weyl numerator times the Verma series, and
the unitary lowest-weight characters of the rank-three algebra are finite
alternating combinations of compact sl(3) characters over the six-factor
noncompact denominator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ospuir.linalg import add_scaled
from ospuir.root_system import (
    Weight,
    build_root_system,
    delta_to_simple,
    inner,
)
from ospuir.weights import Signature, labels_of_weight, lowest_weight, reduction_points
from ospuir.weyl import apply, generate

Exp = Tuple[int, ...]
Poly = Dict[Exp, Fraction]


# ---------------------------------------------------------------- raw dicts

def p_add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    add_scaled(out, g, 1)
    return out


def p_scale(f: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: v * c for e, v in f.items()}


def p_sub(f: Poly, g: Poly) -> Poly:
    return p_add(f, p_scale(g, -1))


def p_mul(f: Poly, g: Poly, maxdeg: Optional[int] = None) -> Poly:
    out: Poly = {}
    for e1, c1 in f.items():
        d1 = sum(e1)
        for e2, c2 in g.items():
            if maxdeg is not None and d1 + sum(e2) > maxdeg:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, Fraction(0)) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def p_truncate(f: Poly, maxdeg: int) -> Poly:
    return {e: c for e, c in f.items() if sum(e) <= maxdeg}


def grlex_key(e: Exp) -> Tuple[int, Exp]:
    return (sum(e), e)


def one_minus(nvars: int, v: Exp) -> Poly:
    zero = (0,) * nvars
    return {zero: Fraction(1), tuple(v): Fraction(-1)}


def exact_divide_one_minus(f: Poly, v: Exp, nvars: int) -> Poly:
    """Exact quotient f / (1 - t^v); raises when the division is not exact.

    Uses g[e] = f[e] + g[e - v] in graded-lex order, then multiplies back.
    """
    if not f:
        return {}
    maxd = max(sum(e) for e in f)
    step = sum(v)
    if step == 0:
        raise ValueError("divisor exponent must be nonzero")
    g: Poly = {}
    heap: List[Tuple[int, Exp]] = []
    seen = set()

    def push(e: Exp) -> None:
        if e not in seen:
            seen.add(e)
            heapq.heappush(heap, (sum(e), e))

    for e in f:
        push(e)
    while heap:
        _, e = heapq.heappop(heap)
        prev = tuple(x - y for x, y in zip(e, v))
        val = f.get(e, Fraction(0))
        if all(x >= 0 for x in prev):
            val += g.get(prev, Fraction(0))
        if val:
            if sum(e) + step > maxd:
                raise ValueError("polynomial is not divisible by the given factor")
            g[e] = val
            push(tuple(x + y for x, y in zip(e, v)))
    if p_sub(p_mul(one_minus(nvars, v), g), f):
        raise ValueError("division check failed")
    return g


# ----------------------------------------------------------- series wrapper

@dataclass(frozen=True)
class CharacterSeries:
    """Truncated power series with exact coefficients.

    coeffs maps exponent tuples (length n) to nonzero Fractions; every
    stored total degree is at most maxdeg.
    """

    n: int
    maxdeg: int
    coeffs: Dict[Exp, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {
            tuple(int(x) for x in e): Fraction(c)
            for e, c in self.coeffs.items()
            if c and sum(e) <= self.maxdeg
        }
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, n: int, maxdeg: int) -> "CharacterSeries":
        return cls(n=n, maxdeg=maxdeg, coeffs={})

    @classmethod
    def one(cls, n: int, maxdeg: int) -> "CharacterSeries":
        return cls(n=n, maxdeg=maxdeg, coeffs={(0,) * n: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exp: Sequence[int], maxdeg: int, coeff=1) -> "CharacterSeries":
        return cls(n=n, maxdeg=maxdeg, coeffs={tuple(exp): Fraction(coeff)})

    @classmethod
    def geometric_inverse(cls, n: int, v: Sequence[int], maxdeg: int) -> "CharacterSeries":
        """The series of 1 / (1 - t^v), v a nonzero nonnegative vector."""
        v = tuple(int(x) for x in v)
        step = sum(v)
        if step <= 0 or any(x < 0 for x in v):
            raise ValueError(f"need a nonzero nonnegative exponent vector, got {v}")
        coeffs: Poly = {}
        k = 0
        while k * step <= maxdeg:
            coeffs[tuple(k * x for x in v)] = Fraction(1)
            k += 1
        return cls(n=n, maxdeg=maxdeg, coeffs=coeffs)

    @classmethod
    def from_poly(cls, n: int, poly: Poly, maxdeg: int) -> "CharacterSeries":
        return cls(n=n, maxdeg=maxdeg, coeffs=dict(poly))

    def _check(self, other: "CharacterSeries") -> int:
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        return min(self.maxdeg, other.maxdeg)

    def add(self, other: "CharacterSeries") -> "CharacterSeries":
        m = self._check(other)
        return CharacterSeries(self.n, m, p_add(self.coeffs, other.coeffs))

    def sub(self, other: "CharacterSeries") -> "CharacterSeries":
        m = self._check(other)
        return CharacterSeries(self.n, m, p_sub(self.coeffs, other.coeffs))

    def mul(self, other: "CharacterSeries") -> "CharacterSeries":
        m = self._check(other)
        return CharacterSeries(self.n, m, p_mul(self.coeffs, other.coeffs, maxdeg=m))

    def scale(self, c) -> "CharacterSeries":
        return CharacterSeries(self.n, self.maxdeg, p_scale(self.coeffs, c))

    def truncate(self, maxdeg: int) -> "CharacterSeries":
        return CharacterSeries(self.n, min(self.maxdeg, maxdeg), self.coeffs)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(int(x) for x in exp), Fraction(0))

    def terms_sorted(self) -> List[Tuple[Exp, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: grlex_key(t[0]))

    def lift(self, n: int, maxdeg: Optional[int] = None) -> "CharacterSeries":
        """Pad exponent tuples with trailing zeros up to n variables."""
        if n < self.n:
            raise ValueError("cannot drop variables")
        m = self.maxdeg if maxdeg is None else maxdeg
        pad = (0,) * (n - self.n)
        return CharacterSeries(n, m, {e + pad: c for e, c in self.coeffs.items()})


def series_to_text(series: CharacterSeries) -> str:
    """Graded-lex lines 'coeff * t1^a t2^b ...'; bare coefficient for t^0."""
    lines = []
    for e, c in series.terms_sorted():
        if any(e):
            factors = " ".join(f"t{k + 1}^{x}" for k, x in enumerate(e) if x)
            lines.append(f"{c} * {factors}")
        else:
            lines.append(f"{c}")
    return "\n".join(lines) + ("\n" if lines else "")


def series_to_json_obj(series: CharacterSeries) -> dict:
    return {
        "n": series.n,
        "maxdeg": series.maxdeg,
        "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in series.terms_sorted()
        ],
    }


@dataclass(frozen=True)
class NormalizedCharacter:
    """Character written as e(prefix) times a series in the t_k."""

    prefix: Weight
    series: CharacterSeries


# ------------------------------------------------------------ Verma series

def _restricted_exps(n: int) -> Tuple[Exp, ...]:
    rs = build_root_system(n)
    return tuple(
        tuple(int(x) for x in delta_to_simple(r.coords))
        for r in rs.restricted_positive
    )


def _noncompact_exps(n: int) -> Tuple[Exp, ...]:
    rs = build_root_system(n)
    out = []
    for r in rs.restricted_positive:
        if all(c >= 0 for c in r.coords):
            out.append(tuple(int(x) for x in delta_to_simple(r.coords)))
    return tuple(out)


def verma_character(n: int, maxdeg: int) -> CharacterSeries:
    """Product of 1/(1 - t^alpha) over the restricted positive roots."""
    series = CharacterSeries.one(n, maxdeg)
    for e in _restricted_exps(n):
        series = series.mul(CharacterSeries.geometric_inverse(n, e, maxdeg))
    return series


_PARTITION_MEMO: Dict[Tuple[int, Exp, int], int] = {}


def partition_count(n: int, mu: Sequence[int]) -> int:
    """Number of multisets of restricted positive roots summing to mu.

    mu is given in the simple-root basis.  This is the coefficient of t^mu
    in the Verma series.
    """
    mu = tuple(int(x) for x in mu)
    if len(mu) != n:
        raise ValueError("length mismatch")
    if any(x < 0 for x in mu):
        return 0
    roots = _restricted_exps(n)

    def rec(rem: Exp, idx: int) -> int:
        if not any(rem):
            return 1
        if idx == len(roots):
            return 0
        key = (n, rem, idx)
        if key in _PARTITION_MEMO:
            return _PARTITION_MEMO[key]
        total = 0
        r = roots[idx]
        cur = rem
        while True:
            total += rec(cur, idx + 1)
            nxt = tuple(x - y for x, y in zip(cur, r))
            if any(x < 0 for x in nxt):
                break
            cur = nxt
        _PARTITION_MEMO[key] = total
        return total

    return rec(mu, 0)


# ------------------------------------------------------- finite characters

def weight_from_labels(labels: Sequence) -> Weight:
    """Weight Lambda with (rho - Lambda, alpha_k-vee) equal to the labels."""
    ms = [Fraction(x) for x in labels]
    n = len(ms)
    rs = build_root_system(n)
    mu = [Fraction(0)] * n
    mu[n - 1] = ms[n - 1] / 2
    for k in range(n - 2, -1, -1):
        mu[k] = mu[k + 1] + ms[k]
    return tuple(r - m for r, m in zip(rs.rho, mu))


def weyl_dimension(lam0: Weight) -> Fraction:
    """Weyl product formula over the restricted positive roots."""
    n = len(lam0)
    rs = build_root_system(n)
    mu0 = tuple(r - x for r, x in zip(rs.rho, lam0))
    num = Fraction(1)
    den = Fraction(1)
    for r in rs.restricted_positive:
        num *= inner(mu0, r.coords)
        den *= inner(rs.rho, r.coords)
    return num / den


def weyl_character(lam0: Weight, maxdeg: int) -> NormalizedCharacter:
    """Finite-dimensional restricted character with lowest weight lam0.

    Requires every label (rho - lam0, alpha_k-vee) to be a positive
    integer.  The series is the alternating numerator over the Weyl group
    times the Verma series, truncated at maxdeg.
    """
    n = len(lam0)
    labels = labels_of_weight(lam0)
    if any(m.denominator != 1 or m < 1 for m in labels):
        raise ValueError(f"labels must be positive integers, got {labels}")
    rs = build_root_system(n)
    mu0 = tuple(r - x for r, x in zip(rs.rho, lam0))
    numerator: Poly = {}
    for w in generate(n):
        shift = tuple(a - b for a, b in zip(mu0, apply(w, mu0)))
        exp = delta_to_simple(shift)
        if any(x < 0 or x.denominator != 1 for x in exp):
            raise AssertionError(f"numerator exponent not dominant-integral: {exp}")
        e = tuple(int(x) for x in exp)
        sign = Fraction(-1 if w.length % 2 else 1)
        numerator[e] = numerator.get(e, Fraction(0)) + sign
    numerator = {e: c for e, c in numerator.items() if c}
    series = CharacterSeries.from_poly(n, p_truncate(numerator, maxdeg), maxdeg)
    series = series.mul(verma_character(n, maxdeg))
    return NormalizedCharacter(prefix=lam0, series=series)


def sl3_character(m1: int, m2: int) -> CharacterSeries:
    """Exact character polynomial of the compact sl(3) factor.

    Variables t_1, t_2; lowest weight with labels (m1, m2), both
    nonnegative.  The result is zero when either label vanishes, and for
    positive labels it is the two-variable quotient

      (1 - t1^m1)(... six-term numerator ...) / ((1-t1)(1-t2)(1-t1 t2)),

    computed by exact division with a multiply-back check.  Total
    dimension is m1*m2*(m1+m2)/2.
    """
    if not (isinstance(m1, int) and isinstance(m2, int)) or m1 < 0 or m2 < 0:
        raise ValueError("labels must be nonnegative integers")
    m12 = m1 + m2
    numerator: Poly = {}
    for e, c in (((0, 0), 1), ((m1, 0), -1), ((0, m2), -1),
                 ((m1, m12), 1), ((m12, m2), 1), ((m12, m12), -1)):
        add_scaled(numerator, {e: c}, 1)
    quotient = numerator
    for v in ((1, 0), (0, 1), (1, 1)):
        quotient = exact_divide_one_minus(quotient, v, 2)
    maxdeg = max((sum(e) for e in quotient), default=0)
    return CharacterSeries.from_poly(2, quotient, maxdeg)


# ------------------------------------------------------- unitary characters

CASE_D1 = "d1"
CASE_D12 = "d12"
CASE_D2_EQ_D13 = "d2eq13"
CASE_D2 = "d2"
CASE_D23 = "d23"

UNITARY_CASES = (CASE_D1, CASE_D12, CASE_D2_EQ_D13, CASE_D2, CASE_D23)

_CASE_ALIASES = {
    "d2_eq_d13": CASE_D2_EQ_D13,
    "d2=d13": CASE_D2_EQ_D13,
}


def _six_factor_inverse(maxdeg: int) -> CharacterSeries:
    series = CharacterSeries.one(3, maxdeg)
    for e in _noncompact_exps(3):
        series = series.mul(CharacterSeries.geometric_inverse(3, e, maxdeg))
    return series


def _sl3_lift(m1: int, m2: int, maxdeg: int) -> CharacterSeries:
    return sl3_character(m1, m2).lift(3, maxdeg)


def unitary_character(
    case: str,
    maxdeg: int = 10,
    m1: Optional[int] = None,
    m2: Optional[int] = None,
) -> NormalizedCharacter:
    """Character of a unitary rank-three module at a reduction point.

    Cases and parameters:
      d1      m1 >= 1, m2 >= 1   boundary point d = d_1
      d12     m2 > 1             point d = d_12, first label zero
      d2eq13  none               d = 1 at zero labels (subsingular point)
      d2      m2 >= 2            point d = d_2, first label zero
      d23     none               d = 1/2 at zero labels

    Every case is an alternating, finitely many-term combination of
    compact sl(3) characters over the six noncompact factors.
    """
    name = _CASE_ALIASES.get(case, case)
    if name not in UNITARY_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {UNITARY_CASES}")
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")

    def mono(e: Exp) -> CharacterSeries:
        return CharacterSeries.monomial(3, e, maxdeg)

    if name == CASE_D1:
        if m1 is None or m2 is None or m1 < 1 or m2 < 1:
            raise ValueError("case d1 needs integer labels m1 >= 1, m2 >= 1")
        bracket = _sl3_lift(m1, m2, maxdeg).sub(
            mono((1, 1, 1)).mul(_sl3_lift(m1 - 1, m2, maxdeg))
        )
        a = (m1 - 1, m2 - 1)
        d = reduction_points(3, a).value(1)
    elif name == CASE_D12:
        if m2 is None or m2 <= 1:
            raise ValueError("case d12 needs an integer label m2 > 1")
        bracket = _sl3_lift(1, m2, maxdeg).sub(
            mono((m2, 2 * m2, 2 * m2)).mul(_sl3_lift(1, m2 - 1, maxdeg))
        )
        a = (0, m2 - 1)
        d = reduction_points(3, a).value(1, 2)
    elif name == CASE_D2_EQ_D13:
        bracket = CharacterSeries.one(3, maxdeg).sub(mono((1, 2, 3)))
        a = (0, 0)
        d = reduction_points(3, a).value(2)
    elif name == CASE_D2:
        if m2 is None or m2 < 2:
            raise ValueError("case d2 needs an integer label m2 >= 2")
        bracket = (
            _sl3_lift(1, m2, maxdeg)
            .sub(mono((0, 1, 1)).mul(_sl3_lift(2, m2 - 1, maxdeg)))
            .add(mono((1, 3, 3)).mul(_sl3_lift(2, m2 - 2, maxdeg)))
            .sub(mono((2, 4, 4)).mul(_sl3_lift(1, m2 - 2, maxdeg)))
        )
        a = (0, m2 - 1)
        d = reduction_points(3, a).value(2)
    else:  # CASE_D23
        bracket = (
            CharacterSeries.one(3, maxdeg)
            .sub(mono((0, 1, 2)).mul(_sl3_lift(2, 1, maxdeg)))
            .add(mono((1, 2, 4)).mul(_sl3_lift(1, 2, maxdeg)))
            .sub(mono((2, 4, 6)))
        )
        a = (0, 0)
        d = reduction_points(3, a).value(2, 3)

    series = bracket.mul(_six_factor_inverse(maxdeg))
    sig = Signature(n=3, d=d, a=a)
    return NormalizedCharacter(prefix=lowest_weight(sig), series=series)
