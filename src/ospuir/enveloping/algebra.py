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

This table is held once, in _KINDS: an even generator is c times the
anticommutator of its two odd factors (c = 1/2 for double and mix, 1
otherwise), an odd one is its one factor.  _named is its inverse, the
generator that given odd factors name.  Everything else is read off the
factors: a generator is well formed when its factors name it, its weight
(and so its name) is the sum of its factors' weights, its omega-image is
named by the factors with their signs flipped, and the brackets follow
from the trilinear relations on the factors.

The super-bracket table is built once per rank, together with each
generator's weight, PBW key, class, parity, omega-image and (for an odd
raising generator) square.  All of it is indexed by int code, a generator's
position in the rank's basis, so the Verma engine works on words of ints;
Generator objects are the public names, decoded at the boundary.  The
table is built in one pass over ints (_bracket_table): each generator's
factors are read once, the trilinear relations act on raw odd indices and
coefficients are counted in quarters, one Fraction per distinct value.
tests/test_enveloping_algebra.py holds the recursive Fraction expansion of
the brackets on Generator objects as the reference that the table must
match term for term, and checks the graded Jacobi identity on the table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from ospuir.root_system import check_rank

KIND_ODD = "odd"
KIND_DOUBLE = "double"
KIND_SUM = "sum"
KIND_MIX = "mix"
KIND_CARTAN = "cartan"

HALF = Fraction(1, 2)   # double and mix generators: half an anticommutator
ONE = Fraction(1)


class _GeneratorFields(NamedTuple):
    kind: str
    i: int
    j: int
    sign: int


class Generator(_GeneratorFields):
    """One basis element; see the module docstring for the five kinds."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int = 0, sign: int = 1) -> "Generator":
        g = super().__new__(cls, kind, i, j, sign)
        if kind not in _KINDS or sign not in (1, -1) or _named(g.factors()[1]) != g:
            raise ValueError(f"no generator {tuple(g)!r}")
        return g

    @property
    def is_odd(self) -> bool:
        return self.kind == KIND_ODD

    def factors(self) -> Tuple[Fraction, Tuple[Tuple[int, int], ...]]:
        """(c, odd factors (i, s)): an even generator is c {a_p, a_q} for its
        two factors p, q, an odd one is its one factor a_p (c = 1)."""
        c, rule = _KINDS[self.kind]
        return c, rule(self.i, self.j, self.sign)

    def delta_weight(self, n: int) -> Tuple[int, ...]:
        w = [0] * n
        for i, s in self.factors()[1]:
            w[i - 1] += s
        return tuple(w)

    def name(self) -> str:
        """X[weight], positive terms first (X[d2-d1]); H{i} for weight 0."""
        w: Dict[int, int] = {}
        for i, s in self.factors()[1]:
            w[i] = w.get(i, 0) + s
        terms = sorted((c < 0, i, c) for i, c in w.items() if c)
        text = "".join(f"{'-' if c < 0 else '+'}{abs(c) if abs(c) > 1 else ''}d{i}"
                       for _, i, c in terms)
        return f"X[{text.lstrip('+')}]" if text else f"H{self.i}"


# kind: (c, odd factors of (i, j, sign)); the mix factors are sorted, which
# fixes the bracket term order
_KINDS = {
    KIND_ODD: (ONE, lambda i, j, s: ((i, s),)),
    KIND_DOUBLE: (HALF, lambda i, j, s: ((i, s), (i, s))),
    KIND_SUM: (ONE, lambda i, j, s: ((i, s), (j, s))),
    KIND_MIX: (HALF, lambda i, j, s: tuple(sorted(((i, 1), (j, -1))))),
    KIND_CARTAN: (ONE, lambda i, j, s: ((i, 1), (i, -1))),
}


def _named(fs: Sequence[Tuple[int, int]]) -> Generator:
    """The generator whose odd factors are fs, in either order."""
    if len(fs) == 1:
        ((i, s),) = fs
        return Generator._make((KIND_ODD, i, 0, s))
    (i, s), (j, t) = sorted(fs)
    if s == t:
        return Generator._make((KIND_DOUBLE, i, 0, s) if i == j else (KIND_SUM, i, j, s))
    if i == j:
        return Generator._make((KIND_CARTAN, i, 0, 1))
    return Generator._make((KIND_MIX, i, j, 1) if s > 0 else (KIND_MIX, j, i, 1))


Combo = Dict[Generator, Fraction]


def _pair_to_combo(p: Tuple[int, int], q: Tuple[int, int]) -> Combo:
    """Expand the raw anticommutator {a_p, a_q} in the scaled basis."""
    g = _named((p, q))
    return {g: ONE / g.factors()[0]}


RAISING = "raising"
LOWERING = "lowering"
CARTAN = "cartan"


Term = Tuple[int, Fraction]   # (generator code, coefficient)


class StructureTable(NamedTuple):
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


def _bracket_table(gens: Sequence[Generator]) -> Tuple[Tuple[Tuple[Term, ...], ...], ...]:
    """Every super-bracket [x, y] of the basis gens, by code, in one pass.

    The odd generators come first, so a raw odd index (i, s) is the code of
    a_i^s.  Each even generator is read once as its scale c and odd factors
    (p, q); {a_p, a_q} is then one generator times 1/c, and the trilinear
    relation gives [x, a_r] for even x on the raw indices.  The other
    brackets follow: [a_r, x] = -[x, a_r], and for y = c {a_p, a_q},
    [x, y] = c ({[x, a_p], a_q} + {a_p, [x, a_q]}).  Coefficients are ints
    in quarters (every [x, a_r] is an integer and every c is 1 or 1/2),
    each distinct value becomes one Fraction, and terms are added, and
    dropped when they cancel, in the order of that expansion."""
    size = len(gens)
    k = sum(g.is_odd for g in gens)
    odd = gens[:k]
    if not all(g.is_odd for g in odd):
        raise AssertionError("the odd generators must have the first codes")
    idx = [g.i for g in odd]
    sgn = [g.sign for g in odd]
    raw = {(g.i, g.sign): r for r, g in enumerate(odd)}
    halves: List[int] = []                    # 2c per code
    factors: List[Tuple[int, ...]] = []       # odd factors per code, as raw indices
    pair: List[List[Tuple[int, int]]] = [[(0, 0)] * k for _ in odd]
    for x, g in enumerate(gens):
        c, fs = g.factors()
        halves.append(int(2 * c))
        factors.append(tuple(raw[f] for f in fs))
        if len(fs) == 2:   # {a_p, a_q} = (1/c) x
            p, q = factors[x]
            pair[p][q] = pair[q][p] = (x, 2 // halves[x])
    # act[x][r]: [x, a_r] for even x, as (raw index, coefficient in halves);
    # [{a_i^s, a_j^t}, a_k^e] = (e - s) d_ik a_j^t + (e - t) d_jk a_i^s
    act: Dict[int, List[Tuple[Tuple[int, int], ...]]] = {}
    for x in range(k, size):
        p, q = factors[x]
        row = []
        for r in range(k):
            out: Dict[int, int] = {}
            if idx[p] == idx[r] and sgn[r] != sgn[p]:
                out[q] = (sgn[r] - sgn[p]) * halves[x]
            if idx[q] == idx[r] and sgn[r] != sgn[q]:
                out[p] = out.get(p, 0) + (sgn[r] - sgn[q]) * halves[x]
            row.append(tuple(out.items()))
        act[x] = row
    quarters: Dict[int, Fraction] = {}

    def terms(items: Iterable[Tuple[int, int]]) -> Tuple[Term, ...]:
        out = []
        for z, v in items:
            c = quarters.get(v)
            if c is None:
                c = quarters[v] = Fraction(v, 4)
            out.append((z, c))
        return tuple(out)

    rows = []
    for x in range(size):
        if x < k:
            row = [terms(((z, 4 * m),)) for z, m in pair[x]]
            row += [terms((r, -2 * v) for r, v in act[y][x]) for y in range(k, size)]
            rows.append(tuple(row))
            continue
        ax = act[x]
        row = [terms((r, 2 * v) for r, v in ax[y]) for y in range(k)]
        for y in range(k, size):
            p, q = factors[y]
            if not (ax[p] or ax[q]):
                row.append(())
                continue
            acc: Dict[int, int] = {}
            for first, second in ((p, q), (q, p)):
                for r, v in ax[first]:
                    z, m = pair[r][second]
                    total = acc.get(z, 0) + v * m * halves[y]
                    if total:
                        acc[z] = total
                    else:
                        del acc[z]
            row.append(terms(acc.items()))
        rows.append(tuple(row))
    return tuple(rows)


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
    brackets = _bracket_table(gens)
    deltas = [g.delta_weight(n) for g in gens]
    weight_exp = tuple(tuple(accumulate(d)) for d in deltas)   # simple-root basis
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
    return _named([(i, -s) for i, s in g.factors()[1]])
