"""Root data for osp(1|2n, R) in the orthonormal delta basis.

All weights are tuples of Fractions in the coordinates (delta_1, ..., delta_n).
The even positive roots are delta_i +- delta_j (i < j) and 2 delta_i, the odd
positive roots are delta_i, and the restricted set replaces each 2 delta_i by
delta_i, giving a system of type B_n.  The simple roots are
alpha_j = delta_j - delta_{j+1} for j < n and alpha_n = delta_n.

RANKS is the one table of the ranks the package supports, feature by
feature, and check_rank is the one check of it that every entry point
makes before any work.  is_int is the one test for an int that is not a
bool, which every integer input check uses; int_tuple applies it to an
offset or exponent, check_exact is the one test that coefficients are
exact rationals, and cleared is the one step from them to ints.  No
input is truncated or rounded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import lcm
from operator import mul
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

Weight = Tuple[Fraction, ...]

# (least, greatest) supported rank per feature.  "roots": root data,
# signatures, verdicts, reduction points and Verma series.  "engine":
# structure tables, Verma engines and Gram blocks.  "weyl_group": listing
# W(B_n), of order 2^n n!, which is 46,080 at n = 6 and 645,120 at n = 7.
# "multiplet": a whole dot orbit, 3,840 nodes at n = 5 and 46,080 at n = 6.
RANKS: Dict[str, Tuple[int, int]] = {
    "roots": (1, 16),
    "engine": (2, 8),
    "weyl_group": (1, 6),
    "multiplet": (1, 5),
}


def is_int(x: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


_EXACT_TYPES = frozenset((int, bool, Fraction))


def int_tuple(entries: Iterable) -> Tuple[int, ...]:
    """entries as a tuple, unchanged; ValueError unless every entry passes
    is_int, so a float, a Fraction or a bool is refused, never truncated."""
    out = tuple(entries)
    for x in out:
        if not is_int(x):
            raise ValueError(f"entries must be ints, not the {type(x).__name__} {x!r}")
    return out


def check_exact(entries: Collection) -> None:
    """Raise ValueError unless every entry is an int (a bool counts) or a
    Fraction: a float, a str or a Decimal is refused, as Signature refuses
    a float d.  The entries' types are matched in C; one at a time only
    when a type is not int, bool or Fraction (a subclass passes)."""
    if _EXACT_TYPES.issuperset(map(type, entries)):
        return
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"entries must be ints or Fractions, "
                             f"not the {type(x).__name__} {x!r}")


def cleared(values: Collection) -> Tuple[int, List[int]]:
    """(s, ints) for exact values (check_exact): s the lcm of their
    denominators and ints each value times s, in order; (1, []) for none."""
    check_exact(values)
    s = lcm(*(x.denominator for x in values))
    return s, [x.numerator * (s // x.denominator) for x in values]


def check_rank(feature: str, n: int) -> None:
    """Raise ValueError unless n is an integer rank in RANKS[feature]; a
    bool is not a rank."""
    lo, hi = RANKS[feature]
    if not is_int(n) or not lo <= n <= hi:
        raise ValueError(f"rank must be an integer in [{lo}, {hi}] for {feature}, got {n!r}")


EVEN = "even"
ODD = "odd"


class _RootVectorFields(NamedTuple):
    coords: Weight
    parity: str


class RootVector(_RootVectorFields):
    """A root with its delta-basis coordinates and parity."""

    __slots__ = ()

    def __new__(cls, coords: Weight, parity: str) -> "RootVector":
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        return super().__new__(cls, coords, parity)


FAMILY_COMPACT = "delta_i-delta_j"
FAMILY_SUM = "delta_i+delta_j"
FAMILY_ODD = "delta_i"
FAMILY_DOUBLE = "2delta_i"


class RootSystemData(NamedTuple):
    """Root data for a fixed rank n.  families holds (family, i, j, root,
    coroot) for every positive root, in report order: the compact, sum,
    odd and double families, by index inside each, with j None for delta_i
    and j == i for 2 delta_i; the root tuples are filtered from it."""

    n: int
    positive_even: Tuple[RootVector, ...]
    positive_odd: Tuple[RootVector, ...]
    restricted_positive: Tuple[RootVector, ...]
    simple: Tuple[RootVector, ...]
    rho: Weight
    families: Tuple[Tuple[str, int, Optional[int], RootVector, Weight], ...]
    simple_coroots: Tuple[Weight, ...]
    restricted_exps: Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=None, typed=True)
def build_root_system(n: int) -> RootSystemData:
    """Construct the full root data for rank n, once per rank."""
    check_rank("roots", n)

    idx = range(1, n + 1)
    pairs = [(i, j) for i in idx for j in idx if i < j]
    specs = (
        [(FAMILY_COMPACT, i, j, {i: 1, j: -1}, EVEN) for i, j in pairs]
        + [(FAMILY_SUM, i, j, {i: 1, j: 1}, EVEN) for i, j in pairs]
        + [(FAMILY_ODD, i, None, {i: 1}, ODD) for i in idx]
        + [(FAMILY_DOUBLE, i, i, {i: 2}, EVEN) for i in idx]
    )
    # every root and coroot coordinate is one of these; the coroot
    # 2 beta / (beta, beta) is 2 beta, beta or beta / 2 and so integral
    frac = {v: Fraction(v) for v in (-1, 0, 1, 2)}
    families = []
    for family, i, j, coords, parity in specs:
        beta = [coords.get(k, 0) for k in idx]
        bb = sum(v * v for v in beta)
        root = RootVector(tuple(frac[v] for v in beta), parity)
        families.append((family, i, j, root, tuple(frac[2 * v // bb] for v in beta)))

    def roots_of(*kinds: str) -> Tuple[RootVector, ...]:
        return tuple(row[3] for row in families if row[0] in kinds)

    restricted = roots_of(FAMILY_COMPACT, FAMILY_SUM, FAMILY_ODD)
    # alpha_k = delta_k - delta_{k+1} for k < n, and alpha_n = delta_n
    simple_rows = [row for row in families
                   if (row[0] == FAMILY_COMPACT and row[2] == row[1] + 1)
                   or (row[0] == FAMILY_ODD and row[1] == n)]
    return RootSystemData(
        n=n,
        positive_even=roots_of(FAMILY_COMPACT, FAMILY_SUM, FAMILY_DOUBLE),
        positive_odd=roots_of(FAMILY_ODD),
        restricted_positive=restricted,
        simple=tuple(row[3] for row in simple_rows),
        rho=tuple(Fraction(2 * (n - i) + 1, 2) for i in idx),
        families=tuple(families),
        simple_coroots=tuple(row[4] for row in simple_rows),
        restricted_exps=tuple(tuple(accumulate(map(int, r.coords))) for r in restricted),
    )


def rho_shift(lam: Sequence) -> Weight:
    """rho - lam at the rank len(lam); it is its own inverse."""
    return tuple(r - x for r, x in zip(build_root_system(len(lam)).rho, lam))


def inner(u: Sequence, v: Sequence) -> Fraction:
    """Euclidean inner product in the delta basis."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def coroot(beta: Sequence) -> Weight:
    """beta-vee = 2 beta / (beta, beta)."""
    bb = inner(beta, beta)
    if bb == 0:
        raise ValueError("coroot of the zero vector is undefined")
    return tuple(Fraction(2) * Fraction(b) / bb for b in beta)


def pairing(lam: Sequence, beta: Sequence) -> Fraction:
    """(lam, beta-vee)."""
    return inner(lam, coroot(beta))


def simple_labels(mu: Sequence) -> Tuple[Fraction, ...]:
    """(mu, alpha_k-vee) for the n simple roots, n = len(mu)."""
    return tuple(
        sum((x * c for x, c in zip(mu, cv) if c), Fraction(0))
        for cv in build_root_system(len(mu)).simple_coroots
    )


def delta_to_simple(v: Sequence) -> Tuple[Fraction, ...]:
    """Expand a delta-basis vector in the simple-root basis.

    With alpha_j = delta_j - delta_{j+1} and alpha_n = delta_n the expansion
    coefficients are the prefix sums of the delta coordinates.
    """
    coords = [Fraction(c) for c in v]
    out = []
    acc = Fraction(0)
    for c in coords:
        acc += c
        out.append(acc)
    return tuple(out)


def is_positive(v: Sequence) -> bool:
    """True when the first nonzero delta coordinate is positive.

    Characterises positive roots: every positive root of the system has its
    first nonzero coordinate equal to +1.
    """
    for c in v:
        if c != 0:
            return c > 0
    return False


def partition_count(n: int, mu: Sequence[int]) -> int:
    """Number of multisets of restricted positive roots summing to mu.

    mu is given in the simple-root basis.  This is the Kostant partition
    function of the restricted system, the coefficient of t^mu in the Verma
    character series.  The counts of every exponent e <= mu fill one list,
    indexed in mixed radix (mu_k + 1).  Every restricted root r is
    nonnegative in the simple basis, so each root in turn is admitted by
    one pass g[e] += g[e - r] over the cells e >= r in ascending order;
    nothing outlives the call.
    """
    roots = build_root_system(n).restricted_exps
    mu = int_tuple(mu)
    if len(mu) != n:
        raise ValueError("length mismatch")
    if any(x < 0 for x in mu):
        return 0
    # cell e is g[sum(e_k * strides[k])], the last digit fastest
    strides = [1] * n
    for k in range(n - 1, 0, -1):
        strides[k - 1] = strides[k] * (mu[k] + 1)
    g = [1] + [0] * (strides[0] * (mu[0] + 1) - 1)
    for r in roots:
        shift = sum(map(mul, r, strides))
        # the cells e >= r, the first digit outermost, so indices ascend
        cells = product(*(range(x * s, (m + 1) * s, s) for x, m, s in zip(r, mu, strides)))
        for i in map(sum, cells):
            g[i] += g[i - shift]
    return g[-1]
