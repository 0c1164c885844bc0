"""Character series in the simple-root variables t_1, ..., t_n.

A character of a lowest-weight module V with lowest weight Lambda is
e(Lambda) times a power series in t_k = e(alpha_k) with nonnegative integer
exponents.  Series are truncated by total degree; all coefficients are
exact rationals (integers for every character handled here).

Every series here is a numerator over a product of factors (1 - t^v), and
one routine, p_divide_one_minus, divides by them: the recurrence
g[e] = f[e] + g[e - v], truncated at the requested degree.  It runs on
ints until its output, each exponent vector packed into one int in base
maxdeg + 1 (exact, because no kept term has a coordinate above maxdeg) and
each coefficient a numerator over one common denominator; in the output
each distinct coefficient is one Fraction and each exponent tuple is
joined from the two decoded halves of its key.  The Verma character is 1
over the restricted positive roots; finite-dimensional characters of the
restricted B_n system are the alternating Weyl numerator over the same
roots; and the unitary lowest-weight characters of the rank-three algebra
are finite alternating combinations of compact sl(3) characters over the
six noncompact roots, each an S_3 numerator over the three compact roots.
One routine, _weyl_numerator, sums every such numerator on ints, so a
unitary character is one alternating numerator over all nine restricted
roots, and all three kinds end in one division, _restricted_series, which
also checks maxdeg.  The compact sl(3) character alone is its numerator
over the three compact roots, divided at the numerator's top degree and
checked by degree.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ospuir.root_system import (
    Weight,
    build_root_system,
    check_exact,
    check_rank,
    inner,
    int_tuple,
    is_int,
    partition_count,  # kept importable as ospuir.characters.partition_count
    rho_shift,
)
from ospuir.weights import (
    Signature, labels_of_weight, lowest_weight, point_name, reduction_points,
    weight_from_labels,  # kept importable as ospuir.characters.weight_from_labels
)

Exp = Tuple[int, ...]
Poly = Dict[Exp, Fraction]


# ---------------------------------------------------------------- raw dicts

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
    g[e] += g[e - v] runs up the layers in ascending degree.  At the end
    one divmod by B^h, h = n // 2, splits each key into the first h
    coordinates and the rest; each distinct half is decoded once and each
    distinct numerator becomes one Fraction, shared by every term that has
    it.  Those memos hold only what the output holds.
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
    # memos filled as the output meets them, never tables of every half,
    # which would grow as base ** half
    half = len(lo) // 2
    split = base ** half
    head_lo, tail_lo = lo[:half], lo[half:]
    heads: Dict[int, Exp] = {}
    tails: Dict[int, Exp] = {}
    values: Dict[int, Fraction] = {}

    def digits(key: int, offsets: Sequence[int]) -> Exp:
        e = []
        for m in offsets:
            key, x = divmod(key, base)
            e.append(x + m)
        return tuple(e)

    out: Poly = {}
    for layer in layers:
        for key, c in layer.items():
            if c:
                t, h = divmod(key, split)
                head = heads.get(h)
                if head is None:
                    head = heads[h] = digits(h, head_lo)
                tail = tails.get(t)
                if tail is None:
                    tail = tails[t] = digits(t, tail_lo)
                value = values.get(c)
                if value is None:
                    value = values[c] = Fraction(c, den)
                out[head + tail] = value
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
        coeffs = {int_tuple(e): c for e, c in (coeffs or {}).items()}
        check_exact(coeffs.values())
        clean = {e: Fraction(c) for e, c in coeffs.items() if c and sum(e) <= maxdeg}
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
        return self.coeffs.get(int_tuple(exp), Fraction(0))

    def _exps_sorted(self) -> List[Exp]:
        """The exponents in graded-lex order, by stable sorts on keys that
        are computed in C: on coordinates n - 2 down to 0, which orders
        each degree lexicographically (there the first n - 1 coordinates
        fix the last), then on the total degree, which keeps that order."""
        exps = list(self.coeffs)
        for k in reversed(range(self.n - 1)):
            exps.sort(key=itemgetter(k))
        exps.sort(key=sum)
        return exps


def series_to_text(series: CharacterSeries) -> str:
    """Graded-lex lines 'coeff * t1^a t2^b ...'; bare coefficient for t^0."""
    coeffs = series.coeffs
    names = [f"t{k + 1}^" for k in range(series.n)]
    lines = []
    for e in series._exps_sorted():
        c = str(coeffs[e])
        factors = " ".join([name + str(x) for name, x in zip(names, e) if x])
        lines.append(f"{c} * {factors}" if factors else c)
    return "\n".join(lines) + ("\n" if lines else "")


def series_to_json(series: CharacterSeries, **fields: object) -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2) + newline writes
    for obj = {"n", "maxdeg", **fields, "terms"}, terms listing
    {"exp": [...], "coeff": "p/q"} in graded-lex order.  Only the other
    keys pass through json; each term is one fixed template, so no dict is
    built per term."""
    coeffs = series.coeffs
    terms = [
        '    {\n      "coeff": "%s",\n      "exp": [\n        %s\n      ]\n    }'
        % (coeffs[e], ",\n        ".join(map(str, e)))
        for e in series._exps_sorted()
    ]
    head = json.dumps({**fields, "n": series.n, "maxdeg": series.maxdeg, "terms": None},
                      sort_keys=True, indent=2)
    # a string value would print an inner quote as \", so this is the key
    before, after = head.split('"terms": null')
    if not terms:
        return before + '"terms": []' + after + "\n"
    return "".join([before, '"terms": [\n', ",\n".join(terms), "\n  ]", after, "\n"])


class NormalizedCharacter(NamedTuple):
    """Character written as e(prefix) times a series in the t_k."""

    prefix: Weight
    series: CharacterSeries


# ------------------------------------------------------------ Verma series

def check_maxdeg(maxdeg: object) -> None:
    """Raise ValueError unless maxdeg is an int (not a bool) >= 0."""
    if not is_int(maxdeg) or maxdeg < 0:
        raise ValueError(f"maxdeg must be a nonnegative integer, got {maxdeg!r}")


def _restricted_series(n: int, numerator: Poly, maxdeg: int) -> CharacterSeries:
    """numerator / prod(1 - t^alpha) over the restricted positive roots of
    rank n, truncated at maxdeg (check_maxdeg)."""
    check_maxdeg(maxdeg)
    return CharacterSeries._canonical(
        n, maxdeg, p_divide_one_minus(numerator, build_root_system(n).restricted_exps, maxdeg)
    )


def verma_character(n: int, maxdeg: int) -> CharacterSeries:
    """Product of 1/(1 - t^alpha) over the restricted positive roots."""
    return _restricted_series(n, {(0,) * n: Fraction(1)}, maxdeg)


# ------------------------------------------------------- finite characters

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


def _weyl_numerator(mu0: Sequence, flips: bool) -> Dict[Exp, int]:
    """The alternating sum of det(w) t^e(w) over W(B_n) when flips is true,
    or over its subgroup S_n of permutations when it is false, where e(w)
    is mu0 - w(mu0) in the simple-root basis: the Weyl numerator of lowest
    weight rho - mu0, or with mu0 = (m1 + m2, m2, 0) and no flips that of
    the compact sl(3) factor with labels (m1, m2).

    2 mu0 must be an int vector whose entries share one parity, so each w
    moves it on ints, every entry of 2 mu0 - w(2 mu0) is even, and e(w) is
    the prefix sums of its halves; mu0 must be dominant, so e(w) >= 0.
    det(w) is the sign of the permutation times the product of the signs.
    """
    n = len(mu0)
    two_mu = [2 * x for x in mu0]
    if any(x.denominator != 1 or (x - two_mu[0]) % 2 for x in two_mu):
        raise AssertionError(f"2 mu0 is not an int vector of one parity: {two_mu}")
    two_mu = [int(x) for x in two_mu]
    # det of the sign changes (none without flips), in product()'s order
    choices = 2 if flips else 1
    dets = [(-1) ** signs.count(-1) for signs in product((1, -1)[:choices], repeat=n)]
    numerator: Dict[Exp, int] = {}
    for perm in permutations(range(n)):
        moved = [0] * n
        for x, p in zip(two_mu, perm):
            moved[p] = x
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        # entry k of mu0 - w(mu0) when w puts the sign +1 or -1 at k
        halves = [((a - b) // 2, (a + b) // 2)[:choices] for a, b in zip(two_mu, moved)]
        for picked, det in zip(product(*halves), dets):
            exp = tuple(accumulate(picked))
            if min(exp) < 0:
                raise AssertionError(f"numerator exponent not dominant: {exp}")
            numerator[exp] = numerator.get(exp, 0) + sign * det
    return {e: c for e, c in numerator.items() if c}


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
    check_rank("weyl_group", n)
    numerator = _weyl_numerator(rho_shift(lam0), flips=True)
    return NormalizedCharacter(prefix=lam0, series=_restricted_series(n, numerator, maxdeg))


def sl3_character(m1: int, m2: int) -> CharacterSeries:
    """Exact character polynomial of the compact sl(3) factor.

    Variables t_1, t_2; lowest weight with labels (m1, m2), both
    nonnegative.  The result is zero when either label vanishes, and for
    positive labels it is the two-variable quotient

      (alternating sum over S_3) / ((1-t1)(1-t2)(1-t1 t2)),

    computed as the series quotient Q truncated at the numerator's top
    degree T.  The denominator D has total degree 4 and constant term 1,
    so Q is exact exactly when it has no term above degree T - 4: then
    f - D Q has degree at most T, and its lowest part, that of
    f/D - Q, lies above T, so it is 0.  A quotient with such a term
    raises ValueError.  Total dimension is m1*m2*(m1+m2)/2.
    """
    if not (is_int(m1) and is_int(m2)) or m1 < 0 or m2 < 0:
        raise ValueError("labels must be nonnegative integers")
    numerator = {e[:2]: c for e, c in _weyl_numerator((m1 + m2, m2, 0), flips=False).items()}
    top = max((sum(e) for e in numerator), default=0)
    quotient = p_divide_one_minus(numerator, ((1, 0), (0, 1), (1, 1)), top)
    if any(sum(e) > top - 4 for e in quotient):
        raise ValueError("division check failed")
    maxdeg = max((sum(e) for e in quotient), default=0)
    return CharacterSeries._canonical(2, maxdeg, quotient)


# ------------------------------------------------------- unitary characters

class UnitaryCase(NamedTuple):
    """One unitary character formula: the least m1 and m2 (None for a label
    the case does not use) and that rule in words; the labels a(m1, m2);
    the reduction point, as indices for ReductionPoints.value; and the
    alternating numerator over the six noncompact factors (1 - t^v), as
    terms (sign, t-shift, sl(3) labels), labels (1, 1) for the factor 1."""

    least: Tuple[Optional[int], Optional[int]]
    needs: str
    labels: Callable[..., Tuple[int, int]]
    point: Tuple[int, ...]
    bracket: Callable[..., Sequence[Tuple[int, Exp, Tuple[int, int]]]]


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
                          lambda m1, m2: [(1, (0, 0, 0), (1, 1)), (-1, (1, 2, 3), (1, 1))]),
    "d2": UnitaryCase((None, 2), "an integer label m2 >= 2",
                      lambda m1, m2: (0, m2 - 1), (2,),
                      lambda m1, m2: [(1, (0, 0, 0), (1, m2)), (-1, (0, 1, 1), (2, m2 - 1)),
                                      (1, (1, 3, 3), (2, m2 - 2)),
                                      (-1, (2, 4, 4), (1, m2 - 2))]),
    "d23": UnitaryCase((None, None), "no labels",
                       lambda m1, m2: (0, 0), (2, 3),
                       lambda m1, m2: [(1, (0, 0, 0), (1, 1)), (-1, (0, 1, 2), (2, 1)),
                                       (1, (1, 2, 4), (1, 2)), (-1, (2, 4, 6), (1, 1))]),
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
    row = UNITARY[name]
    if any(lo is not None and m is not None and not is_int(m)
           for m, lo in zip((m1, m2), row.least)):
        raise ValueError("labels must be nonnegative integers")
    if any(lo is not None and (m is None or m < lo) for m, lo in zip((m1, m2), row.least)):
        raise ValueError(f"case {name} needs {row.needs}")
    # each sl(3) character is its S_3 numerator over the three compact
    # factors, so the bracket times those factors is divided by all nine
    numerator: Dict[Exp, int] = {}
    for sign, shift, (l1, l2) in row.bracket(m1, m2):
        for e, c in _weyl_numerator((l1 + l2, l2, 0), flips=False).items():
            e = tuple(x + s for x, s in zip(e, shift))
            numerator[e] = numerator.get(e, 0) + sign * c
    series = _restricted_series(3, numerator, maxdeg)
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
