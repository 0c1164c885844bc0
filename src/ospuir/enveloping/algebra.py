"""Basis and super-brackets of osp(1|2n) in the para-Bose realization.

Odd generators a_i^+ and a_i^- satisfy the trilinear relations

    [{a_i^x, a_j^y}, a_k^z] = (z - x) d_ik a_j^y + (z - y) d_jk a_i^x

with signs x, y, z in {+1, -1} and d the Kronecker delta.  The even part is
spanned by anticommutators of odd generators.  The basis used here:

    odd(i, s)        a_i^s                      weight s delta_i
    double(i, s)     (a_i^s)^2                  weight 2s delta_i
    sum(i, j, s)     {a_i^s, a_j^s},  i < j     weight s(delta_i + delta_j)
    mix(i, j)        {a_i^+, a_j^-}/2, i != j   weight delta_i - delta_j
    cartan(i)        {a_i^+, a_i^-}             weight 0

This table is held once, in Generator.factors: an even generator is c
times the anticommutator of its two odd factors (c = 1/2 for double and
mix, 1 otherwise), an odd one is its one factor.  A generator's weight is
the sum of its factors' weights, its omega-image flips each factor's sign,
and the brackets follow from the trilinear relations on the factors.

The super-bracket table is built once per rank, together with each
generator's weight, PBW key, class, parity, omega-image and (for an odd
raising generator) square.  All of it is indexed by int code, a generator's
position in the rank's basis, so the Verma engine works on words of ints;
Generator objects are the public names, decoded at the boundary.  The
graded Jacobi identity is checked on the stored table by
tests/test_enveloping_algebra.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ospuir.linalg import add_scaled
from ospuir.root_system import check_rank, delta_to_simple

KIND_ODD = "odd"
KIND_DOUBLE = "double"
KIND_SUM = "sum"
KIND_MIX = "mix"
KIND_CARTAN = "cartan"

HALF = Fraction(1, 2)   # double and mix generators: half an anticommutator
ONE = Fraction(1)


@dataclass(frozen=True)
class Generator:
    """One basis element; see the module docstring for the five kinds."""

    kind: str
    i: int
    j: int = 0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (KIND_ODD, KIND_DOUBLE, KIND_SUM, KIND_MIX, KIND_CARTAN):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind in (KIND_ODD, KIND_DOUBLE) and self.j != 0:
            raise ValueError("single-index generator takes no j")
        if self.kind == KIND_SUM and not self.i < self.j:
            raise ValueError("sum generator needs i < j")
        if self.kind == KIND_MIX and (self.i == self.j or self.sign != 1):
            raise ValueError("mix generator needs i != j and default sign")
        if self.kind == KIND_CARTAN and (self.j != 0 or self.sign != 1):
            raise ValueError("cartan generator takes no j or sign")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def is_odd(self) -> bool:
        return self.kind == KIND_ODD

    def factors(self) -> Tuple[Fraction, Tuple[Tuple[int, int], ...]]:
        """(c, odd factors (i, s)): an even generator is c {a_p, a_q} for its
        two factors p, q, an odd one is its one factor a_p (c = 1)."""
        i, j, s = self.i, self.j, self.sign
        if self.kind == KIND_ODD:
            return ONE, ((i, s),)
        if self.kind == KIND_DOUBLE:
            return HALF, ((i, s), (i, s))
        if self.kind == KIND_SUM:
            return ONE, ((i, s), (j, s))
        if self.kind == KIND_MIX:   # sorted, which fixes the bracket term order
            return HALF, tuple(sorted(((i, 1), (j, -1))))
        return ONE, ((i, 1), (i, -1))

    def delta_weight(self, n: int) -> Tuple[int, ...]:
        w = [0] * n
        for i, s in self.factors()[1]:
            w[i - 1] += s
        return tuple(w)

    def name(self) -> str:
        if self.kind == KIND_CARTAN:
            return f"H{self.i}"
        w = dict_weight_name(self)
        return f"X[{w}]"


def dict_weight_name(g: Generator) -> str:
    if g.kind == KIND_ODD:
        return f"d{g.i}" if g.sign > 0 else f"-d{g.i}"
    if g.kind == KIND_DOUBLE:
        return f"2d{g.i}" if g.sign > 0 else f"-2d{g.i}"
    if g.kind == KIND_SUM:
        return (f"d{g.i}+d{g.j}" if g.sign > 0 else f"-d{g.i}-d{g.j}")
    if g.kind == KIND_MIX:
        return f"d{g.i}-d{g.j}"
    raise ValueError(g.kind)


Pair = Tuple[Tuple[int, int], Tuple[int, int]]   # ((i, s), (j, t))
Combo = Dict[Generator, Fraction]


def _pair_to_combo(p: Tuple[int, int], q: Tuple[int, int]) -> Combo:
    """Expand the raw anticommutator {a_p, a_q} in the scaled basis."""
    (i, s), (j, t) = (p, q) if p <= q else (q, p)
    if i == j and s == t:
        return {Generator(KIND_DOUBLE, i, sign=s): Fraction(2)}
    if i != j and s == t:
        return {Generator(KIND_SUM, i, j, sign=s): Fraction(1)}
    if i == j:
        return {Generator(KIND_CARTAN, i): Fraction(1)}
    plus, minus = ((i, j) if s > 0 else (j, i))
    return {Generator(KIND_MIX, plus, minus): Fraction(2)}


def _trilinear(pair: Pair, k: int, e: int) -> Dict[Tuple[int, int], Fraction]:
    """[{a_p, a_q}, a_k^e] as a combination of odd raw generators."""
    (i, s), (j, t) = pair
    out: Dict[Tuple[int, int], Fraction] = {}
    if i == k:
        add_scaled(out, {(j, t): 1}, e - s)
    if j == k:
        add_scaled(out, {(i, s): 1}, e - t)
    return out


def _bracket(x: Generator, y: Generator) -> Combo:
    """Super-bracket [x, y]: anticommutator when both odd, else commutator."""
    if x.is_odd and y.is_odd:
        return _pair_to_combo((x.i, x.sign), (y.i, y.sign))
    if x.is_odd:
        return {g: -c for g, c in _bracket(y, x).items()}
    cx, pair = x.factors()
    out: Combo = {}
    if y.is_odd:
        for (idx, sgn), c in _trilinear(pair, y.i, y.sign).items():
            add_scaled(out, {Generator(KIND_ODD, idx, sign=sgn): Fraction(1)}, c * cx)
        return out
    # both even: [x, {a_c, a_d}] = {[x, a_c], a_d} + {a_c, [x, a_d]}
    cy, (pc, pd) = y.factors()
    for first, second in ((pc, pd), (pd, pc)):
        br = _bracket(x, Generator(KIND_ODD, first[0], sign=first[1]))
        for g, c in br.items():
            add_scaled(out, _pair_to_combo((g.i, g.sign), second), c * cy)
    return out


RAISING = "raising"
LOWERING = "lowering"
CARTAN = "cartan"


Term = Tuple[int, Fraction]   # (generator code, coefficient)


@dataclass(frozen=True)
class StructureTable:
    """Bracket table and generator facts for rank n, indexed by int code.

    A generator's code is its index in `generators`.  Every per-generator
    tuple below is indexed by code, and `brackets[x][y]` lists the terms
    of [x, y] as (code, coefficient) pairs; `encode` and `decode` translate
    words between Generator objects and codes.
    """

    n: int
    generators: Tuple[Generator, ...]
    code: Dict[Generator, int]
    brackets: Tuple[Tuple[Tuple[Term, ...], ...], ...]
    cls: Tuple[str, ...]
    pbw_key: Tuple[tuple, ...]
    omega: Tuple[int, ...]
    odd: Tuple[bool, ...]
    weight_exp: Tuple[Tuple[int, ...], ...]
    square: Tuple[int, ...]       # code of (a_i^+)^2 for odd raising a_i^+, else -1
    raising: Tuple[Generator, ...]

    def encode(self, word: Sequence[Generator]) -> Tuple[int, ...]:
        code = self.code
        return tuple(code[g] for g in word)

    def decode(self, word: Sequence[int]) -> Tuple[Generator, ...]:
        gens = self.generators
        return tuple(gens[x] for x in word)


def all_generators(n: int) -> List[Generator]:
    """The rank-n basis in code order: odd, double, sum, mix, cartan."""
    idx = range(1, n + 1)
    return (
        [Generator(k, i, sign=s) for k in (KIND_ODD, KIND_DOUBLE) for i in idx for s in (1, -1)]
        + [Generator(KIND_SUM, i, j, sign=s) for i in idx for j in idx if i < j for s in (1, -1)]
        + [Generator(KIND_MIX, i, j) for i in idx for j in idx if i != j]
        + [Generator(KIND_CARTAN, i) for i in idx]
    )


@lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureTable:
    """Build the bracket table and generator facts for rank n (an "engine"
    rank of root_system.RANKS)."""
    check_rank("engine", n)
    gens = all_generators(n)
    expected = 2 * n + n * (2 * n + 1)
    if len(gens) != expected:
        raise AssertionError(f"expected {expected} basis elements, got {len(gens)}")
    code = {g: x for x, g in enumerate(gens)}
    brackets = tuple(
        tuple(tuple((code[h], c) for h, c in _bracket(x, y).items()) for y in gens)
        for x in gens
    )
    deltas = [g.delta_weight(n) for g in gens]
    weight_exp = tuple(tuple(int(v) for v in delta_to_simple(d)) for d in deltas)
    pbw_key = tuple(
        (1 if g.is_odd else 0, sum(e), d) for g, e, d in zip(gens, weight_exp, deltas)
    )
    leads = [next((v for v in d if v), 0) for d in deltas]
    cls = tuple(RAISING if v > 0 else LOWERING if v < 0 else CARTAN for v in leads)
    square = tuple(
        code[Generator(KIND_DOUBLE, g.i, sign=1)] if g.is_odd and g.sign > 0 else -1
        for g in gens
    )
    raising = tuple(
        sorted((g for g, c in zip(gens, cls) if c == RAISING), key=lambda g: pbw_key[code[g]])
    )
    return StructureTable(
        n=n, generators=tuple(gens), code=code, brackets=brackets, cls=cls,
        pbw_key=pbw_key, omega=tuple(code[omega(g)] for g in gens),
        odd=tuple(g.is_odd for g in gens), weight_exp=weight_exp, square=square,
        raising=raising,
    )


def omega(g: Generator) -> Generator:
    """Anti-involution swapping a_i^+ and a_i^-; fixes the Cartan."""
    flipped = [(i, -s) for i, s in g.factors()[1]]
    if g.is_odd:
        ((i, s),) = flipped
        return Generator(KIND_ODD, i, sign=s)
    (image,) = _pair_to_combo(*flipped)
    return image
