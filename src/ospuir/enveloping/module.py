"""Verma modules over osp(1|2n): normal ordering and the Shapovalov form.

States are stored in the PBW basis: words of raising generators sorted by
(even before odd, root height, delta coordinates), with odd generators
appearing at most once since the square of an odd raising generator is the
corresponding double-root generator.  The lowest-weight vector v0 is the
empty word; lowering generators annihilate it and Cartan generators act by
the eigenvalue (Lambda, delta_i-vee) = 2 lambda_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ospuir.enveloping.algebra import (
    Generator,
    KIND_DOUBLE,
    KIND_ODD,
    LOWERING,
    RAISING,
    StructureTable,
    structure_constants,
)
from ospuir.linalg import add_scaled, psd_witness
from ospuir.weights import Signature, lowest_weight

Word = Tuple[Generator, ...]
VectorTerms = Dict[Word, Fraction]

MAX_LEVEL_DEFAULT = 4


@dataclass(frozen=True)
class ModuleVector:
    """Element of the Verma module, expanded over PBW monomials."""

    sig: Signature
    offset: Tuple[int, ...]          # weight offset from Lambda, simple basis
    terms: Dict[Word, Fraction]

    def __post_init__(self) -> None:
        clean = {w: Fraction(c) for w, c in self.terms.items() if c}
        object.__setattr__(self, "terms", clean)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c) -> "ModuleVector":
        c = Fraction(c)
        return ModuleVector(self.sig, self.offset,
                            {w: v * c for w, v in self.terms.items()})

    def plus(self, other: "ModuleVector") -> "ModuleVector":
        if other.sig != self.sig or (other.terms and self.terms
                                     and other.offset != self.offset):
            raise ValueError("vectors live in different weight spaces")
        terms = dict(self.terms)
        add_scaled(terms, other.terms, 1)
        offset = self.offset if self.terms else other.offset
        return ModuleVector(self.sig, offset, terms)


def word_name(word: Word) -> str:
    """Render a PBW word with collapsed exponents, e.g. X[d2-d3]^2*X[d3]."""
    if not word:
        return "1"
    parts = []
    idx = 0
    while idx < len(word):
        g = word[idx]
        run = 1
        while idx + run < len(word) and word[idx + run] == g:
            run += 1
        parts.append(g.name() if run == 1 else f"{g.name()}^{run}")
        idx += run
    return "*".join(parts)


def module_vector_to_text(vec: ModuleVector) -> str:
    """Canonical one-line form: terms sorted by PBW word, 'p/q' coefficients."""
    if vec.is_zero:
        return "0"
    facts = structure_constants(vec.sig.n).facts
    items = sorted(
        vec.terms.items(),
        key=lambda t: tuple(facts[g].pbw_key for g in t[0]),
    )
    return " + ".join(f"({c})*{word_name(w)}" for w, c in items)


class VermaEngine:
    """Normal-ordering engine for one signature."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.n = sig.n
        self.table: StructureTable = structure_constants(sig.n)
        self.facts = self.table.facts
        self.lam = lowest_weight(sig)
        self._act_memo: Dict[Tuple[Generator, Word], VectorTerms] = {}
        self._pair_memo: Dict[Tuple[Word, Word], Fraction] = {}

    # ---------------------------------------------------------- core action

    def act_word_terms(self, g: Generator, word: Word) -> VectorTerms:
        """g applied to the PBW monomial word * v0, as PBW terms."""
        memo = self._act_memo
        key = (g, word)
        hit = memo.get(key)
        if hit is not None:
            return hit
        facts = self.facts
        g_facts = facts[g]
        if not word:
            if g_facts.cls == RAISING:
                out: VectorTerms = {(g,): Fraction(1)}
            elif g_facts.cls == LOWERING:
                out = {}
            else:
                eig = 2 * self.lam[g.i - 1]
                out = {(): Fraction(eig)} if eig else {}
        else:
            head, rest = word[0], word[1:]
            if g_facts.cls == RAISING and g_facts.pbw_key <= facts[head].pbw_key:
                if g == head and g.kind == KIND_ODD:
                    square = Generator(KIND_DOUBLE, g.i, sign=1)
                    out = self.act_word_terms(square, rest)
                else:
                    out = {(g,) + word: Fraction(1)}
            else:
                sign = Fraction(-1 if (g.is_odd and head.is_odd) else 1)
                out = {}
                moved = self.act_word_terms(g, rest)
                for w2, c2 in moved.items():
                    add_scaled(out, self.act_word_terms(head, w2), sign * c2)
                for h, cb in self.table.bracket(g, head).items():
                    add_scaled(out, self.act_word_terms(h, rest), cb)
        memo[key] = out
        return out

    def act(self, g: Generator, vec: ModuleVector) -> ModuleVector:
        """Left action of a basis generator; result in PBW form."""
        out: VectorTerms = {}
        for w, c in vec.terms.items():
            add_scaled(out, self.act_word_terms(g, w), c)
        if not out:
            return ModuleVector(self.sig, (0,) * self.n, {})
        exp = self.facts[g].weight_exp
        offset = tuple(a + b for a, b in zip(vec.offset, exp))
        return ModuleVector(self.sig, offset, out)

    def apply_word(self, word: Word, vec: ModuleVector) -> ModuleVector:
        """Product of generators applied to vec; rightmost factor acts first."""
        for g in reversed(word):
            vec = self.act(g, vec)
        return vec

    def vacuum(self) -> ModuleVector:
        return ModuleVector(self.sig, (0,) * self.n, {(): Fraction(1)})

    def from_words(self, entries: Iterable[Tuple[Word, Fraction]]) -> ModuleVector:
        """Vector from (product word, coefficient) pairs applied to v0."""
        total: Optional[ModuleVector] = None
        for word, coeff in entries:
            term = self.apply_word(word, self.vacuum()).scaled(coeff)
            total = term if total is None else total.plus(term)
        if total is None:
            raise ValueError("no terms given")
        return total

    # -------------------------------------------------------- weight spaces

    def basis(self, offset: Sequence[int]) -> Tuple[Word, ...]:
        return weight_space_words(self.n, tuple(int(x) for x in offset))

    # ------------------------------------------------------ Shapovalov form

    def pair_words(self, u: Word, w: Word) -> Fraction:
        """<u v0, w v0>, memoized on suffix pairs.

        Peels the leftmost factor of u: <g rest v0, w v0> equals the sum of
        <rest v0, w' v0> over the expansion of omega(g) w v0.
        """
        if not u:
            return Fraction(1) if not w else Fraction(0)
        key = (u, w)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        rest = u[1:]
        total = Fraction(0)
        for w2, c in self.act_word_terms(self.facts[u[0]].omega, w).items():
            sub = self.pair_words(rest, w2)
            if sub:
                total += c * sub
        self._pair_memo[key] = total
        return total

    def pair_with_word(self, u: Word, vec: ModuleVector) -> Fraction:
        """<u v0, vec> = coefficient of v0 in omega(u) acting on vec."""
        total = Fraction(0)
        for w, c in vec.terms.items():
            sub = self.pair_words(u, w)
            if sub:
                total += c * sub
        return total

    def pair(self, left: ModuleVector, right: ModuleVector) -> Fraction:
        total = Fraction(0)
        for w, c in left.terms.items():
            total += c * self.pair_with_word(w, right)
        return total

    def norm(self, vec: ModuleVector) -> Fraction:
        return self.pair(vec, vec)

    def gram(self, offset: Sequence[int]) -> "GramMatrix":
        offset = tuple(int(x) for x in offset)
        basis = self.basis(offset)
        size = len(basis)
        entries = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                val = self.pair_words(basis[i], basis[j])
                entries[i][j] = val
                entries[j][i] = val
        return GramMatrix(
            weight_offset=offset,
            basis=basis,
            entries=tuple(tuple(row) for row in entries),
        )


@lru_cache(maxsize=None)
def _engine_cache(sig: Signature) -> VermaEngine:
    return VermaEngine(sig)


def engine_for(sig: Signature) -> VermaEngine:
    return _engine_cache(sig)


@lru_cache(maxsize=None)
def weight_space_words(n: int, offset: Tuple[int, ...]) -> Tuple[Word, ...]:
    """All PBW monomials with the given simple-basis weight offset.

    Deterministic: generators ascend in PBW order left to right; smaller
    multiplicities of the earlier generator come first.
    """
    if len(offset) != n:
        raise ValueError("offset length must equal the rank")
    if any(x < 0 for x in offset):
        raise ValueError("offset must be nonnegative")
    table = structure_constants(n)
    raising = table.raising
    exps = [table.facts[g].weight_exp for g in raising]

    out: List[Word] = []

    def rec(idx: int, remaining: Tuple[int, ...], word: Tuple[Generator, ...]) -> None:
        if not any(remaining):
            out.append(word)
            return
        if idx == len(raising):
            return
        g = raising[idx]
        e = exps[idx]
        limit = 1 if g.is_odd else None
        mult = 0
        cur = remaining
        while True:
            rec(idx + 1, cur, word + (g,) * mult)
            if limit is not None and mult >= limit:
                break
            nxt = tuple(a - b for a, b in zip(cur, e))
            if any(x < 0 for x in nxt):
                break
            cur = nxt
            mult += 1
    rec(0, tuple(offset), ())
    return tuple(out)


@dataclass(frozen=True)
class GramMatrix:
    """Shapovalov form restricted to one weight space."""

    weight_offset: Tuple[int, ...]
    basis: Tuple[Word, ...]
    entries: Tuple[Tuple[Fraction, ...], ...]

    def to_csv(self) -> str:
        header = ["monomial"] + [word_name(w) for w in self.basis]
        lines = [",".join(header)]
        for w, row in zip(self.basis, self.entries):
            lines.append(",".join([word_name(w)] + [str(x) for x in row]))
        return "\n".join(lines) + "\n"


def shapovalov_gram(sig: Signature, offset: Sequence[int]) -> GramMatrix:
    return engine_for(sig).gram(offset)


def weight_space(sig: Signature, offset: Sequence[int]) -> Tuple[Word, ...]:
    return weight_space_words(sig.n, tuple(int(x) for x in offset))


def level_offsets(n: int, level: int) -> List[Tuple[int, ...]]:
    """Dominant weight offsets at a given level, in the simple basis.

    The level counts odd creations: it is the sum of the delta coordinates
    of the offset.  The scan covers the dominant sector (all delta
    coordinates nonnegative); a simple-basis offset (c_1, ..., c_n) lies in
    it iff the c_k are the prefix sums of a composition of the level.
    """
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], rest: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (rest,))
            return
        for x in range(rest + 1):
            rec(prefix + (x,), rest - x, slots - 1)
    rec((), level, n)
    out.sort()
    simple = []
    for delta in out:
        acc = 0
        exp = []
        for c in delta:
            acc += c
            exp.append(acc)
        simple.append(tuple(exp))
    return simple


@dataclass(frozen=True)
class PsdReport:
    """Outcome of the level-by-level positivity scan."""

    sig: Signature
    max_level: int
    psd: bool
    witness: Optional[ModuleVector]
    witness_norm: Optional[Fraction]
    witness_offset: Optional[Tuple[int, ...]]
    levels_checked: Tuple[int, ...]


def gram_psd_check(sig: Signature, max_level: int = MAX_LEVEL_DEFAULT) -> PsdReport:
    """Scan dominant weight spaces by level; stop at a negative-norm vector.

    Levels count odd creations (delta-coordinate sums).  The verdict is psd
    exactly when every dominant Gram block up to max_level is positive
    semidefinite; otherwise the witness vector and its (negative) norm are
    reported.  Negativity first reaches the dominant sector on this grid;
    the bound max_level = 4 for rank three is empirical.  A max_level below
    1 would certify nothing and raises ValueError.
    """
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    engine = engine_for(sig)
    levels = []
    for level in range(1, max_level + 1):
        levels.append(level)
        for offset in level_offsets(sig.n, level):
            basis = engine.basis(offset)
            if not basis:
                continue
            gram = engine.gram(offset)
            coeffs = psd_witness(gram.entries)
            if coeffs is None:
                continue
            terms = {
                w: c for w, c in zip(basis, coeffs) if c
            }
            witness = ModuleVector(sig, offset, terms)
            norm = engine.norm(witness)
            if norm >= 0:
                raise AssertionError("claimed witness does not have negative norm")
            return PsdReport(
                sig=sig, max_level=max_level, psd=False, witness=witness,
                witness_norm=norm, witness_offset=offset,
                levels_checked=tuple(levels),
            )
    return PsdReport(
        sig=sig, max_level=max_level, psd=True, witness=None,
        witness_norm=None, witness_offset=None, levels_checked=tuple(levels),
    )
