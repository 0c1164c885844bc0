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

The super-bracket table is built once per rank, together with each
generator's weight, PBW key, class and omega-image.  The graded Jacobi
identity is checked on it by tests/test_enveloping_algebra.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from ospuir.linalg import add_scaled
from ospuir.root_system import delta_to_simple

KIND_ODD = "odd"
KIND_DOUBLE = "double"
KIND_SUM = "sum"
KIND_MIX = "mix"
KIND_CARTAN = "cartan"


class AlgebraError(Exception):
    """Internal inconsistency in the structure constants."""


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

    def delta_weight(self, n: int) -> Tuple[int, ...]:
        w = [0] * n
        if self.kind == KIND_ODD:
            w[self.i - 1] = self.sign
        elif self.kind == KIND_DOUBLE:
            w[self.i - 1] = 2 * self.sign
        elif self.kind == KIND_SUM:
            w[self.i - 1] = self.sign
            w[self.j - 1] = self.sign
        elif self.kind == KIND_MIX:
            w[self.i - 1] += 1
            w[self.j - 1] -= 1
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


Pair = Tuple[Tuple[int, int], Tuple[int, int]]   # ((i, s), (j, t)) sorted
Combo = Dict[Generator, Fraction]


def _canon_pair(p: Tuple[int, int], q: Tuple[int, int]) -> Pair:
    return (p, q) if p <= q else (q, p)


def _pair_to_combo(p: Tuple[int, int], q: Tuple[int, int]) -> Combo:
    """Expand the raw anticommutator {a_p, a_q} in the scaled basis."""
    (i, s), (j, t) = _canon_pair(p, q)
    if i == j and s == t:
        return {Generator(KIND_DOUBLE, i, sign=s): Fraction(2)}
    if i != j and s == t:
        return {Generator(KIND_SUM, i, j, sign=s): Fraction(1)}
    if i == j:
        return {Generator(KIND_CARTAN, i): Fraction(1)}
    plus, minus = ((i, j) if s > 0 else (j, i))
    return {Generator(KIND_MIX, plus, minus): Fraction(2)}


def _even_to_pair(g: Generator) -> Tuple[Fraction, Pair]:
    """Inverse of _pair_to_combo for a single even generator."""
    if g.kind == KIND_DOUBLE:
        return Fraction(1, 2), ((g.i, g.sign), (g.i, g.sign))
    if g.kind == KIND_SUM:
        return Fraction(1), _canon_pair((g.i, g.sign), (g.j, g.sign))
    if g.kind == KIND_MIX:
        return Fraction(1, 2), _canon_pair((g.i, 1), (g.j, -1))
    if g.kind == KIND_CARTAN:
        return Fraction(1), ((g.i, 1), (g.i, -1))
    raise ValueError("odd generator has no anticommutator form")


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
    if not x.is_odd and y.is_odd:
        cx, pair = _even_to_pair(x)
        out: Combo = {}
        for (idx, sgn), c in _trilinear(pair, y.i, y.sign).items():
            add_scaled(out, {Generator(KIND_ODD, idx, sign=sgn): Fraction(1)}, c * cx)
        return out
    if x.is_odd and not y.is_odd:
        out = _bracket(y, x)
        return {g: -c for g, c in out.items()}
    # both even: [x, {a_c, a_d}] = {[x, a_c], a_d} + {a_c, [x, a_d]}
    cy, (pc, pd) = _even_to_pair(y)
    out = {}
    for first, second in ((pc, pd), (pd, pc)):
        br = _bracket(x, Generator(KIND_ODD, first[0], sign=first[1]))
        for g, c in br.items():
            add_scaled(out, _pair_to_combo((g.i, g.sign), second), c * cy)
    return out


RAISING = "raising"
LOWERING = "lowering"
CARTAN = "cartan"


@dataclass(frozen=True, slots=True)
class GeneratorFacts:
    """Fixed data about one basis element at a given rank."""

    weight_exp: Tuple[int, ...]   # weight in the simple-root basis
    pbw_key: tuple                # (odd, root height, delta weight)
    cls: str                      # RAISING, LOWERING or CARTAN
    omega: Generator              # image under the anti-involution


@dataclass(frozen=True)
class StructureTable:
    """Complete bracket table with weight and ordering data for rank n."""

    n: int
    generators: Tuple[Generator, ...]
    brackets: Dict[Tuple[Generator, Generator], Combo]
    raising: Tuple[Generator, ...]
    facts: Dict[Generator, GeneratorFacts]

    def bracket(self, x: Generator, y: Generator) -> Combo:
        return self.brackets[(x, y)]


def _generator_facts(n: int, g: Generator) -> GeneratorFacts:
    delta = g.delta_weight(n)
    exp = tuple(int(x) for x in delta_to_simple(delta))
    lead = next((c for c in delta if c), 0)
    cls = RAISING if lead > 0 else LOWERING if lead < 0 else CARTAN
    return GeneratorFacts(exp, (1 if g.is_odd else 0, sum(exp), delta), cls, omega(g))


def all_generators(n: int) -> List[Generator]:
    gens: List[Generator] = []
    for i in range(1, n + 1):
        for s in (1, -1):
            gens.append(Generator(KIND_ODD, i, sign=s))
    for i in range(1, n + 1):
        for s in (1, -1):
            gens.append(Generator(KIND_DOUBLE, i, sign=s))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for s in (1, -1):
                gens.append(Generator(KIND_SUM, i, j, sign=s))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.append(Generator(KIND_MIX, i, j))
    for i in range(1, n + 1):
        gens.append(Generator(KIND_CARTAN, i))
    return gens


@lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureTable:
    """Build the bracket table and generator facts for rank n (2 <= n <= 8)."""
    if not 2 <= n <= 8:
        raise ValueError(f"rank must be in [2, 8], got {n}")
    gens = all_generators(n)
    expected = 2 * n + n * (2 * n + 1)
    if len(gens) != expected:
        raise AlgebraError(f"expected {expected} basis elements, got {len(gens)}")
    brackets = {(x, y): _bracket(x, y) for x in gens for y in gens}
    facts = {g: _generator_facts(n, g) for g in gens}
    raising = tuple(
        sorted(
            (g for g in gens if facts[g].cls == RAISING),
            key=lambda g: facts[g].pbw_key,
        )
    )
    return StructureTable(
        n=n, generators=tuple(gens), brackets=brackets, raising=raising, facts=facts,
    )


def omega(g: Generator) -> Generator:
    """Anti-involution swapping a_i^+ and a_i^-; fixes the Cartan."""
    if g.kind == KIND_ODD:
        return Generator(KIND_ODD, g.i, sign=-g.sign)
    if g.kind == KIND_DOUBLE:
        return Generator(KIND_DOUBLE, g.i, sign=-g.sign)
    if g.kind == KIND_SUM:
        return Generator(KIND_SUM, g.i, g.j, sign=-g.sign)
    if g.kind == KIND_MIX:
        return Generator(KIND_MIX, g.j, g.i)
    return g
