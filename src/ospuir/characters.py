"""Character series in the simple-root variables t_1, ..., t_n.

A character of a lowest-weight module V with lowest weight Lambda is
e(Lambda) times a power series in t_k = e(alpha_k) with nonnegative integer
exponents.  Series are truncated by total degree; all coefficients are
exact rationals (integers for every character handled here).

Every series here is a numerator over a product of factors (1 - t^v), and
one routine, p_divide_one_minus, divides by them: the recurrence
g[e] = f[e] + g[e - v], truncated at the requested degree.  It runs on
ints, each exponent vector packed into one int in base maxdeg + 1 (exact,
because no kept term has a coordinate above maxdeg) and each coefficient a
numerator over one common denominator.  The Verma
character is 1 over the restricted positive roots; finite-dimensional
characters of the restricted B_n system are the alternating Weyl numerator
over the same roots; the unitary lowest-weight characters of the
rank-three algebra are finite alternating combinations of compact sl(3)
characters over the six noncompact roots; and the compact sl(3) character
itself is its numerator over three roots, divided at the numerator's top
degree and checked by multiplying back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ospuir.linalg import add_scaled
from ospuir.root_system import (
    Weight,
    build_root_system,
    delta_to_simple,
    inner,
    partition_count,  # kept importable as ospuir.characters.partition_count
    rho_shift,
)
from ospuir.weights import (
    Signature, labels_of_weight, lowest_weight, point_name, reduction_points,
)
from ospuir.weyl import apply, generate

Exp = Tuple[int, ...]
Poly = Dict[Exp, Fraction]


# ---------------------------------------------------------------- raw dicts

def p_sub(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    add_scaled(out, g, -1)
    return out


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


def grlex_key(e: Exp) -> Tuple[int, Exp]:
    return (sum(e), e)


def one_minus(nvars: int, v: Exp) -> Poly:
    zero = (0,) * nvars
    return {zero: Fraction(1), tuple(v): Fraction(-1)}


def p_divide_one_minus(f: Poly, exps: Sequence[Exp], maxdeg: int) -> Poly:
    """Series of f / prod(1 - t^v) over v in exps, truncated at maxdeg.

    Each v must be a nonnegative exponent vector with a positive total
    degree.  Zero terms are dropped.  The work is done on ints: the
    coefficients are held as numerators over one common denominator, the
    lcm of f's denominators, and an exponent vector e as the one int
    sum_k (e_k - lo_k) B^k, where lo is the coordinatewise minimum of 0 and
    f's exponents (0 unless f has negative exponents) and
    B = maxdeg - sum(lo) + 1.  The packing is exact:
    every term kept has total degree at most maxdeg, so no shifted
    coordinate reaches B, and e + v is one int addition.  Terms are held
    in layers by total degree, and for each factor in turn the recurrence
    g[e] += g[e - v] runs up the layers in ascending degree.  The
    Fractions are built once, at the end.
    """
    vs = [tuple(v) for v in exps]
    for v in vs:
        if sum(v) <= 0 or any(x < 0 for x in v):
            raise ValueError(f"need a nonzero nonnegative exponent vector, got {v}")
    terms = [(e, Fraction(c)) for e, c in f.items() if c and sum(e) <= maxdeg]
    if not terms:
        return {}
    lo = [min(0, *col) for col in zip(*(e for e, _ in terms))]
    base = maxdeg - sum(lo) + 1
    place = [base ** k for k in range(len(lo))]
    den = lcm(*(c.denominator for _, c in terms))
    layers: List[Dict[int, int]] = [{} for _ in range(base)]
    for e, c in terms:
        shifted = [x - m for x, m in zip(e, lo)]
        layers[sum(shifted)][sum(map(mul, shifted, place))] = c.numerator * (den // c.denominator)
    for v in vs:
        step = sum(v)
        jump = sum(map(mul, v, place))
        for deg in range(base - step):
            dst = layers[deg + step]
            for key, c in layers[deg].items():
                if c:
                    key += jump
                    dst[key] = dst.get(key, 0) + c
    out: Poly = {}
    for layer in layers:
        for key, c in layer.items():
            if c:
                e = []
                for m in lo:
                    key, x = divmod(key, base)
                    e.append(x + m)
                out[tuple(e)] = Fraction(c, den)
    return out


# ----------------------------------------------------------- series wrapper

class _CharacterSeriesFields(NamedTuple):
    n: int
    maxdeg: int
    coeffs: Dict[Exp, Fraction]


class CharacterSeries(_CharacterSeriesFields):
    """Truncated power series with exact coefficients, the named tuple
    (n, maxdeg, coeffs).

    coeffs maps exponent tuples (length n) to nonzero Fractions; every
    stored total degree is at most maxdeg.  The constructor normalises
    what it is given (no coeffs is the zero series); the series this
    module builds are canonical already and skip that pass: _canonical
    builds the tuple directly.
    """

    __slots__ = ()

    def __new__(cls, n: int, maxdeg: int,
                coeffs: Optional[Mapping[Exp, Fraction]] = None) -> "CharacterSeries":
        clean = {
            tuple(int(x) for x in e): Fraction(c)
            for e, c in (coeffs or {}).items()
            if c and sum(e) <= maxdeg
        }
        return super().__new__(cls, n, maxdeg, clean)

    @classmethod
    def _canonical(cls, n: int, maxdeg: int, coeffs: Dict[Exp, Fraction]) -> "CharacterSeries":
        """The series of coeffs taken as they are: the caller guarantees
        int tuple keys of length n, nonzero Fraction values and degrees at
        most maxdeg, as p_divide_one_minus returns them."""
        return tuple.__new__(cls, (n, maxdeg, coeffs))

    def truncate(self, maxdeg: int) -> "CharacterSeries":
        maxdeg = min(self.maxdeg, maxdeg)
        return CharacterSeries._canonical(
            self.n, maxdeg, {e: c for e, c in self.coeffs.items() if sum(e) <= maxdeg}
        )

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(int(x) for x in exp), Fraction(0))

    def terms_sorted(self) -> List[Tuple[Exp, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: grlex_key(t[0]))


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


class NormalizedCharacter(NamedTuple):
    """Character written as e(prefix) times a series in the t_k."""

    prefix: Weight
    series: CharacterSeries


# ------------------------------------------------------------ Verma series

def _noncompact_exps(n: int) -> Tuple[Exp, ...]:
    """The noncompact restricted positive roots: the last simple-root
    coordinate, the sum of the delta coordinates, is positive (it is 0 on
    the compact roots delta_i - delta_j)."""
    return tuple(e for e in build_root_system(n).restricted_exps if e[-1] > 0)


def verma_character(n: int, maxdeg: int) -> CharacterSeries:
    """Product of 1/(1 - t^alpha) over the restricted positive roots."""
    one = {(0,) * n: Fraction(1)}
    return CharacterSeries._canonical(
        n, maxdeg, p_divide_one_minus(one, build_root_system(n).restricted_exps, maxdeg)
    )


# ------------------------------------------------------- finite characters

def weight_from_labels(labels: Sequence) -> Weight:
    """Weight Lambda with (rho - Lambda, alpha_k-vee) equal to the labels."""
    ms = [Fraction(x) for x in labels]
    n = len(ms)
    mu = [Fraction(0)] * n
    mu[n - 1] = ms[n - 1] / 2
    for k in range(n - 2, -1, -1):
        mu[k] = mu[k + 1] + ms[k]
    return rho_shift(mu)


def weyl_dimension(lam0: Weight) -> Fraction:
    """Weyl product formula over the restricted positive roots."""
    n = len(lam0)
    rs = build_root_system(n)
    mu0 = rho_shift(lam0)
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
    divided by (1 - t^alpha) for each restricted positive root, truncated
    at maxdeg.
    """
    n = len(lam0)
    labels = labels_of_weight(lam0)
    if any(m.denominator != 1 or m < 1 for m in labels):
        raise ValueError("labels must be positive integers, got "
                         + ", ".join(map(str, labels)))
    mu0 = rho_shift(lam0)
    numerator: Poly = {}
    for w in generate(n):
        shift = tuple(a - b for a, b in zip(mu0, apply(w, mu0)))
        exp = delta_to_simple(shift)
        if any(x < 0 or x.denominator != 1 for x in exp):
            raise AssertionError(f"numerator exponent not dominant-integral: {exp}")
        add_scaled(numerator, {tuple(int(x) for x in exp): 1}, -1 if w.length % 2 else 1)
    series = CharacterSeries._canonical(
        n, maxdeg, p_divide_one_minus(numerator, build_root_system(n).restricted_exps, maxdeg)
    )
    return NormalizedCharacter(prefix=lam0, series=series)


def sl3_character(m1: int, m2: int) -> CharacterSeries:
    """Exact character polynomial of the compact sl(3) factor.

    Variables t_1, t_2; lowest weight with labels (m1, m2), both
    nonnegative.  The result is zero when either label vanishes, and for
    positive labels it is the two-variable quotient

      (1 - t1^m1)(... six-term numerator ...) / ((1-t1)(1-t2)(1-t1 t2)),

    computed as the series quotient truncated at the numerator's top
    degree and multiplied back; a quotient that does not reproduce the
    numerator raises ValueError.  Total dimension is m1*m2*(m1+m2)/2.
    """
    if not (isinstance(m1, int) and isinstance(m2, int)) or m1 < 0 or m2 < 0:
        raise ValueError("labels must be nonnegative integers")
    m12 = m1 + m2
    numerator: Poly = {}
    for e, c in (((0, 0), 1), ((m1, 0), -1), ((0, m2), -1),
                 ((m1, m12), 1), ((m12, m2), 1), ((m12, m12), -1)):
        add_scaled(numerator, {e: c}, 1)
    denominator = ((1, 0), (0, 1), (1, 1))
    top = max((sum(e) for e in numerator), default=0)
    quotient = p_divide_one_minus(numerator, denominator, top)
    check = quotient
    for v in denominator:
        check = p_mul(one_minus(2, v), check)
    if p_sub(check, numerator):
        raise ValueError("division check failed")
    maxdeg = max((sum(e) for e in quotient), default=0)
    return CharacterSeries._canonical(2, maxdeg, quotient)


# ------------------------------------------------------- unitary characters

class UnitaryCase(NamedTuple):
    """One unitary character formula: the least m1 and m2 (None for a label
    the case does not use) and that rule in words; the labels a(m1, m2);
    the reduction point, as indices for ReductionPoints.value; and the
    alternating numerator over the six noncompact factors (1 - t^v), as
    terms (sign, t-shift, sl(3) labels or None for 1)."""

    least: Tuple[Optional[int], Optional[int]]
    needs: str
    labels: Callable[..., Tuple[int, int]]
    point: Tuple[int, ...]
    bracket: Callable[..., Sequence[Tuple[int, Exp, Optional[Tuple[int, int]]]]]


UNITARY: Dict[str, UnitaryCase] = {
    "d1": UnitaryCase((1, 1), "integer labels m1 >= 1, m2 >= 1",
                      lambda m1, m2: (m1 - 1, m2 - 1), (1,),
                      lambda m1, m2: [(1, (0, 0, 0), (m1, m2)),
                                      (-1, (1, 1, 1), (m1 - 1, m2))]),
    "d12": UnitaryCase((None, 2), "an integer label m2 > 1",
                       lambda m1, m2: (0, m2 - 1), (1, 2),
                       lambda m1, m2: [(1, (0, 0, 0), (1, m2)),
                                       (-1, (m2, 2 * m2, 2 * m2), (1, m2 - 1))]),
    "d2eq13": UnitaryCase((None, None), "no labels",
                          lambda m1, m2: (0, 0), (2,),
                          lambda m1, m2: [(1, (0, 0, 0), None), (-1, (1, 2, 3), None)]),
    "d2": UnitaryCase((None, 2), "an integer label m2 >= 2",
                      lambda m1, m2: (0, m2 - 1), (2,),
                      lambda m1, m2: [(1, (0, 0, 0), (1, m2)), (-1, (0, 1, 1), (2, m2 - 1)),
                                      (1, (1, 3, 3), (2, m2 - 2)),
                                      (-1, (2, 4, 4), (1, m2 - 2))]),
    "d23": UnitaryCase((None, None), "no labels",
                       lambda m1, m2: (0, 0), (2, 3),
                       lambda m1, m2: [(1, (0, 0, 0), None), (-1, (0, 1, 2), (2, 1)),
                                       (1, (1, 2, 4), (1, 2)), (-1, (2, 4, 6), None)]),
}

UNITARY_CASES = tuple(UNITARY)

_CASE_ALIASES = {"d2_eq_d13": "d2eq13", "d2=d13": "d2eq13"}


def unitary_character(
    case: str,
    maxdeg: int = 10,
    m1: Optional[int] = None,
    m2: Optional[int] = None,
) -> NormalizedCharacter:
    """Character of a unitary rank-three module at a reduction point.

    The case is a key of UNITARY or an alias of one.  Its row fixes the
    labels a, the alternating sum of compact sl(3) characters that is
    divided by the six noncompact factors, and the point d, named as in
    the paper's character formulae:
    """
    name = _CASE_ALIASES.get(case, case)
    if name not in UNITARY:
        raise ValueError(f"unknown case {case!r}; expected one of {UNITARY_CASES}")
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    row = UNITARY[name]
    if any(lo is not None and (m is None or m < lo) for m, lo in zip((m1, m2), row.least)):
        raise ValueError(f"case {name} needs {row.needs}")
    bracket: Poly = {}
    for sign, shift, sl3 in row.bracket(m1, m2):
        factor = {(0, 0): 1} if sl3 is None else sl3_character(*sl3).coeffs
        add_scaled(bracket, {(x + shift[0], y + shift[1], shift[2]): c
                             for (x, y), c in factor.items()}, sign)
    series = CharacterSeries._canonical(
        3, maxdeg, p_divide_one_minus(bracket, _noncompact_exps(3), maxdeg)
    )
    a = row.labels(m1, m2)
    sig = Signature(n=3, d=reduction_points(3, a).value(*row.point), a=a)
    return NormalizedCharacter(prefix=lowest_weight(sig), series=series)


if unitary_character.__doc__:  # None under python -OO
    # every line after the first sits at one indent, so stripping each
    # line dedents the docstring
    unitary_character.__doc__ = "\n".join(
        [line.strip() for line in unitary_character.__doc__.strip().split("\n")] + [""]
        + [f"  {name:<7} d = {point_name(3, *row.point):<4} {row.needs}"
           for name, row in UNITARY.items()]
    )
