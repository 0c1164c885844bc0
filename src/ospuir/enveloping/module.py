"""Verma modules over osp(1|2n): normal ordering and the Shapovalov form.

States are stored in the PBW basis: words of raising generators sorted by
(even before odd, root height, delta coordinates), with odd generators
appearing at most once since the square of an odd raising generator is the
corresponding double-root generator.  The lowest-weight vector v0 is the
empty word; lowering generators annihilate it and Cartan generators act by
the eigenvalue (Lambda, delta_i-vee) = 2 lambda_i = 2d + m_i, where
m_i = 2(a_1 + ... + a_{i-1}) - (a_1 + ... + a_{n-1}).

One engine serves a label set (n, a) for every d.  Lambda enters normal
ordering only through those eigenvalues, so every memoized coefficient is
a polynomial in d, stored as a tuple of ints in ascending degree.  The
coefficients are integers: the only non-integer bracket coefficients are
the halves in [X(d_i - d_j), X(d_j - d_i)] = (H_i - H_j)/2, and a bracket
of Cartan terms only is applied as one scalar on the remaining word,
sum_h c_h (2d + m_h + kappa_h(word)), where [H_h, g] = kappa_h(g) g.  Every
kappa value is even (+-2 or +-4), and for (H_i - H_j)/2 the d parts cancel
and m_i - m_j = 2(a_i + ... + a_{j-1}) is even, so the scalar is an integer
polynomial.  Every such bracket is checked: its slope and shifts once per
rank (_cartan_forms), its constant term sum_h c_h m_h when a label set's
engine is built.
Per-signature vectors and pairings are exact evaluations of those
polynomials at the signature's d: q^deg P(p/q) by an integer Horner loop,
then one Fraction.  A Gram block's upper triangle is gathered once per
engine and weight offset, as references to the memoized polynomials, and
split there into its parts: the connected components of the pattern of
nonzero pairing polynomials, a pattern that no d changes.  Rows that pair
to zero with every basis word belong to no part.  Ordering the basis part
by part makes the block block-diagonal, a congruence, so the block is
positive semidefinite exactly when every part is.  At d = p/q each part
becomes one integer matrix q^D G(p/q), D the block's top degree, with the
one positive scale q^D; the scan gives psd_witness the parts, and the
whole block, assembled from them, only where a part is not PSD, so that
the witness is the whole block's.  A generator's action from one weight
space to the next is evaluated the same way, into the int matrix that
singular-vector kernels are solved from.

An engine serves the "engine" ranks of root_system.RANKS, which
structure_constants checks.  A GramMatrix is plain data, its int rows
and their one scale, and compares field by field.

Inside the engine a generator is its int code in the rank's StructureTable
and a word is a tuple of codes, so the memoized recursions hash and compare
only ints.  Generator words stay the public form: ModuleVector terms, PBW
bases and Gram bases use them, and act/apply_word/pair/norm/gram encode on
the way in and decode on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ospuir.enveloping.algebra import (
    CARTAN,
    Generator,
    LOWERING,
    RAISING,
    StructureTable,
    structure_constants,
)
from ospuir.linalg import psd_witness
from ospuir.weights import Signature, lowest_weight

Word = Tuple[Generator, ...]
CodeWord = Tuple[int, ...]            # a Word as generator codes
Poly = Tuple[int, ...]                # integer polynomial in d, ascending; () is 0
CodeTerms = Dict[CodeWord, Poly]
# A Cartan combination acting on a PBW word, as (slope, constant, shift):
# the word's eigenvalue is slope*d + constant + the sum of shift[x] over
# its letters x.
ScalarForm = Tuple[int, int, Tuple[int, ...]]
# The same combination's label-free parts: the terms (h, c_h), slope, shift.
RankForm = Tuple[Tuple[Tuple[int, Fraction], ...], int, Tuple[int, ...]]
# A part of a Gram block: its basis indices, ascending, and its upper
# triangle over them row by row.
Part = Tuple[Tuple[int, ...], Tuple[Poly, ...]]
# A Gram block: its basis, its parts, and its top degree.
Block = Tuple[Tuple[Word, ...], Tuple[Part, ...], int]
IntRows = List[List[int]]

_ONE: Poly = (1,)
_ZERO = Fraction(0)

MAX_LEVEL_DEFAULT = 4


def _add_product(acc: List[int], p: Poly, q: Poly) -> None:
    """acc += p * q for a polynomial held as a growable list."""
    if len(acc) < len(p) + len(q) - 1:
        acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            acc[i + j] += x * y


def _trim(acc: List[int]) -> Poly:
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


def _padd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    return _trim(out)


def _pmul(p: Poly, q: Poly) -> Poly:
    """Product of two nonzero polynomials (nonzero again: no trimming)."""
    if len(p) == 1:
        c = p[0]
        return tuple(c * x for x in q)
    if len(q) == 1:
        c = q[0]
        return tuple(c * x for x in p)
    acc: List[int] = []
    _add_product(acc, p, q)
    return tuple(acc)


def _add_mul(acc: CodeTerms, terms: Mapping[CodeWord, Poly], coeff: Poly) -> None:
    """acc += coeff * terms, in place; keys that cancel to zero are dropped."""
    for k, p in terms.items():
        prod = _pmul(p, coeff)
        old = acc.get(k)
        if old is not None:
            prod = _padd(old, prod)
            if not prod:
                del acc[k]
                continue
        acc[k] = prod


def _evaluate(p: Poly, d: Fraction, scale: int = 1) -> Fraction:
    """p(d) / scale, exactly: den^deg p(num/den) by an integer Horner loop."""
    if not p:
        return _ZERO
    num, den = d.numerator, d.denominator
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return Fraction(acc, scale * (power // den))


def _weights(d: Fraction, top: int) -> List[int]:
    """num^k den^(top - k) for k = 0..top, d = num/den: the dot product of a
    polynomial of degree at most top with these is den^top p(d), an int."""
    num, den = d.numerator, d.denominator
    return [num ** k * den ** (top - k) for k in range(top + 1)]


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
    table = structure_constants(vec.sig.n)
    code, pbw_key = table.code, table.pbw_key
    items = sorted(
        vec.terms.items(),
        key=lambda t: tuple(pbw_key[code[g]] for g in t[0]),
    )
    return " + ".join(f"({c})*{word_name(w)}" for w, c in items)


class VermaEngine:
    """Normal-ordering engine for one label set (n, a), valid for every d.

    `act_word_terms` and `pair_words` work on generator codes and words of
    codes (see StructureTable) and return integer polynomials in d.  The
    other methods take and return Generator words and vectors of one
    signature in this label set, evaluated at that signature's d.
    """

    def __init__(self, n: int, a: Sequence[int]):
        self.n = n
        self.a = tuple(a)
        self.table: StructureTable = structure_constants(n)
        lam0 = lowest_weight(Signature(n, Fraction(0), self.a))
        eigen, brackets = _cartan_forms(n)
        m = {h: 2 * lam0[i] for i, h in enumerate(eigen)}   # eigen is in code order

        def form(rank_form: RankForm) -> ScalarForm:
            """The rank's slope and shift with this label set's constant
            term sum_h c_h m_h, checked to be an integer."""
            combo, slope, shift = rank_form
            constant = sum(c * m[h] for h, c in combo)
            if Fraction(constant).denominator != 1:
                raise AssertionError(f"Cartan combination {combo} is not integral")
            return slope, int(constant), shift

        self._eigen = {h: form(f) for h, f in eigen.items()}
        self._bracket_forms: Dict[Tuple[int, int], ScalarForm] = {
            xy: form(f) for xy, f in brackets.items()
        }
        self._act_memo: Dict[Tuple[int, CodeWord], CodeTerms] = {}
        self._pair_memo: Dict[Tuple[CodeWord, CodeWord], Poly] = {}
        self._blocks: Dict[Tuple[int, ...], Block] = {}

    def _check_signature(self, sig: Signature) -> None:
        if (sig.n, sig.a) != (self.n, self.a):
            raise ValueError(f"signature {sig} is not in the label set "
                             f"n = {self.n}, a = {self.a} of this engine")

    # ---------------------------------------------------------- core action

    def act_word_terms(self, g: int, word: CodeWord) -> CodeTerms:
        """Generator g applied to the PBW monomial word * v0, as PBW terms."""
        memo = self._act_memo
        key = (g, word)
        hit = memo.get(key)
        if hit is not None:
            return hit
        t = self.table
        cls = t.cls[g]
        if cls == CARTAN:
            s = _scalar(self._eigen[g], word)
            out: CodeTerms = {word: s} if s else {}
        elif not word:
            out = {(g,): _ONE} if cls == RAISING else {}
        else:
            head, rest = word[0], word[1:]
            if cls == RAISING and t.pbw_key[g] <= t.pbw_key[head]:
                if g == head and t.odd[g]:
                    out = self.act_word_terms(t.square[g], rest)
                else:
                    out = {(g,) + word: _ONE}
            else:
                flip = t.odd[g] and t.odd[head]
                out = {}
                for w2, c2 in self.act_word_terms(g, rest).items():
                    if flip:
                        c2 = tuple(-x for x in c2)
                    _add_mul(out, self.act_word_terms(head, w2), c2)
                form = self._bracket_forms.get((g, head))
                if form is not None:
                    s = _scalar(form, rest)
                    if s:
                        _add_mul(out, {rest: s}, _ONE)
                else:
                    for h, cb in t.brackets[g][head]:
                        _add_mul(out, self.act_word_terms(h, rest), (cb.numerator,))
        memo[key] = out
        return out

    def _apply(self, word: CodeWord, terms: CodeTerms) -> CodeTerms:
        for g in reversed(word):
            acted: CodeTerms = {}
            for w, c in terms.items():
                _add_mul(acted, self.act_word_terms(g, w), c)
            terms = acted
        return terms

    def _offset(self, word: CodeWord) -> Tuple[int, ...]:
        exps = self.table.weight_exp
        return tuple(sum(exps[g][k] for g in word) for k in range(self.n))

    def _scaled(self, vec: ModuleVector) -> Tuple[int, CodeTerms]:
        """(s, terms) with terms the vector's coefficients times s, as ints."""
        self._check_signature(vec.sig)
        scale = math.lcm(*(c.denominator for c in vec.terms.values()))
        encode = self.table.encode
        return scale, {
            encode(w): (c.numerator * (scale // c.denominator),)
            for w, c in vec.terms.items()
        }

    def _vector(self, sig: Signature, offset: Tuple[int, ...], terms: CodeTerms,
                scale: int) -> ModuleVector:
        """terms / scale evaluated at sig.d; a zero vector sits at offset 0."""
        decode = self.table.decode
        values = {decode(w): _evaluate(p, sig.d, scale) for w, p in terms.items()}
        values = {w: c for w, c in values.items() if c}
        return ModuleVector(sig, offset if values else (0,) * self.n, values)

    def act(self, g: Generator, vec: ModuleVector) -> ModuleVector:
        """Left action of a basis generator; result in PBW form."""
        return self.apply_word((g,), vec)

    def apply_word(self, word: Word, vec: ModuleVector) -> ModuleVector:
        """Product of generators applied to vec; rightmost factor acts first."""
        scale, terms = self._scaled(vec)
        code = self.table.encode(word)
        offset = tuple(a + b for a, b in zip(vec.offset, self._offset(code)))
        return self._vector(vec.sig, offset, self._apply(code, terms), scale)

    def _word_terms(
        self, entries: Iterable[Tuple[Word, Fraction]],
    ) -> Tuple[int, Tuple[int, ...], CodeTerms]:
        """(s, offset, terms): s times the sum of coeff * word v0, PBW-ordered."""
        encode = self.table.encode
        entries = [(encode(w), Fraction(c)) for w, c in entries]
        if not entries:
            raise ValueError("no terms given")
        scale = math.lcm(*(c.denominator for _, c in entries))
        total: CodeTerms = {}
        offset: Optional[Tuple[int, ...]] = None
        for word, c in entries:
            terms = self._apply(word, {(): _ONE}) if c else {}
            if not terms:
                continue
            if offset is None:
                offset = self._offset(word)
            elif self._offset(word) != offset:
                raise ValueError("vectors live in different weight spaces")
            _add_mul(total, terms, (c.numerator * (scale // c.denominator),))
        return scale, offset or (0,) * self.n, total

    def from_words(self, sig: Signature,
                   entries: Iterable[Tuple[Word, Fraction]]) -> ModuleVector:
        """Vector from (product word, coefficient) pairs applied to v0."""
        self._check_signature(sig)
        scale, offset, terms = self._word_terms(entries)
        return self._vector(sig, offset, terms, scale)

    # -------------------------------------------------------- weight spaces

    def basis(self, offset: Sequence[int]) -> Tuple[Word, ...]:
        return weight_space_words(self.n, tuple(int(x) for x in offset))

    # ------------------------------------------------------ Shapovalov form

    def pair_words(self, u: CodeWord, w: CodeWord) -> Poly:
        """<u v0, w v0> for words of codes, memoized on suffix pairs.

        Peels the leftmost factor of u: <g rest v0, w v0> equals the sum of
        <rest v0, w' v0> over the expansion of omega(g) w v0.
        """
        if not u:
            return _ONE if not w else ()
        key = (u, w)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        rest = u[1:]
        acc: List[int] = []
        for w2, c in self.act_word_terms(self.table.omega[u[0]], w).items():
            sub = self.pair_words(rest, w2)
            if sub:
                _add_product(acc, c, sub)
        total = _trim(acc)
        self._pair_memo[key] = total
        return total

    def _pair_terms(self, left: CodeTerms, right: CodeTerms) -> Poly:
        acc: List[int] = []
        for u, cu in left.items():
            for w, cw in right.items():
                sub = self.pair_words(u, w)
                if sub:
                    _add_product(acc, _pmul(cu, cw), sub)
        return _trim(acc)

    def pair(self, left: ModuleVector, right: ModuleVector) -> Fraction:
        if left.sig != right.sig:
            raise ValueError("vectors of different signatures")
        ls, lterms = self._scaled(left)
        rs, rterms = self._scaled(right)
        return _evaluate(self._pair_terms(lterms, rterms), left.sig.d, ls * rs)

    def norm(self, vec: ModuleVector) -> Fraction:
        return self.pair(vec, vec)

    def norm_polynomial(self, entries: Iterable[Tuple[Word, Fraction]]) -> List[Fraction]:
        """Norm of the sum of coeff * word v0 as a polynomial in d, ascending.

        The sum of c_u c_w P_uw(d) over the PBW expansion, with c_u and the
        pairing P_uw both integer polynomials in d; [0] for the zero norm.
        """
        scale, _offset, terms = self._word_terms(entries)
        poly = self._pair_terms(terms, terms)
        return [Fraction(c, scale * scale) for c in poly] or [_ZERO]

    def _block(self, offset: Tuple[int, ...]) -> Block:
        """The Gram block at offset, gathered once and split into its parts;
        their polynomials are the objects held in the pairing memo, not
        copies."""
        block = self._blocks.get(offset)
        if block is None:
            basis = self.basis(offset)
            words = [self.table.encode(w) for w in basis]
            nonzero = {}
            for i, u in enumerate(words):
                for j in range(i, len(words)):
                    p = self.pair_words(u, words[j])
                    if p:
                        nonzero[i, j] = p
            root = list(range(len(words)))

            def find(i: int) -> int:
                while root[i] != i:
                    root[i] = root[root[i]]
                    i = root[i]
                return i

            for i, j in nonzero:
                root[find(j)] = find(i)
            members: Dict[int, List[int]] = {}
            for i in sorted({i for ij in nonzero for i in ij}):
                members.setdefault(find(i), []).append(i)
            parts = tuple(
                (tuple(idx), tuple(nonzero.get((i, j), ()) for s, i in enumerate(idx)
                                   for j in idx[s:]))
                for idx in members.values()
            )
            top = max([1, *map(len, nonzero.values())]) - 1
            block = self._blocks[offset] = (basis, parts, top)
        return block

    def _parts(self, sig: Signature,
               offset: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], IntRows]]:
        """Each part of the block at offset at d = p/q: its basis indices
        and its square int matrix q^D G(p/q), D the block's top degree."""
        _basis, parts, top = self._block(offset)
        weights = _weights(sig.d, top)
        out = []
        for idx, upper in parts:
            vals = [sum(map(mul, p, weights)) for p in upper]
            # row s: column s of the rows above it, then its part of the triangle
            rows: IntRows = []
            start = 0
            for s in range(len(idx)):
                stop = start + len(idx) - s
                rows.append([row[s] for row in rows] + vals[start:stop])
                start = stop
            out.append((idx, rows))
        return out

    def gram(self, sig: Signature, offset: Sequence[int]) -> "GramMatrix":
        """The block at offset for d = p/q: q^D G(p/q) as int rows, scale q^D,
        assembled from its parts with zeros elsewhere."""
        self._check_signature(sig)
        offset = tuple(int(x) for x in offset)
        basis, _, top = self._block(offset)
        full = [[0] * len(basis) for _ in basis]
        for idx, rows in self._parts(sig, offset):
            for i, row in zip(idx, rows):
                target = full[i]
                for j, x in zip(idx, row):
                    target[j] = x
        return GramMatrix(weight_offset=offset, basis=basis,
                          scaled=tuple(map(tuple, full)), scale=sig.d.denominator ** top)

    def action_matrix(self, sig: Signature, g: Generator,
                      offset: Sequence[int]) -> List[List[int]]:
        """g from the weight space at offset to the next one, at d = p/q.

        Row i, column j is q^D times the coefficient of the i-th target PBW
        word in g applied to the j-th source word, D the top degree in d of
        those coefficients: one int matrix with the one positive scale q^D.
        It has no rows when the target offset has a negative coordinate.  A
        term outside the target basis raises AssertionError.
        """
        self._check_signature(sig)
        t = self.table
        code = t.code[g]
        target = tuple(int(a) + b for a, b in zip(offset, t.weight_exp[code]))
        if any(x < 0 for x in target):
            return []
        index = {t.encode(w): i for i, w in enumerate(self.basis(target))}
        columns = [self.act_word_terms(code, t.encode(w)) for w in self.basis(offset)]
        top = max([1, *(len(p) for col in columns for p in col.values())]) - 1
        weights = _weights(sig.d, top)
        rows = [[0] * len(columns) for _ in index]
        for j, col in enumerate(columns):
            for w, p in col.items():
                i = index.get(w)
                if i is None:
                    raise AssertionError("vector leaves its expected weight space")
                rows[i][j] = sum(map(mul, p, weights))
        return rows


@lru_cache(maxsize=None)
def _cartan_forms(n: int) -> Tuple[Dict[int, RankForm], Dict[Tuple[int, int], RankForm]]:
    """The label-free parts of the rank-n Cartan forms, slope and shift
    checked to be integers: each Cartan generator h, in code order, as the
    combination 1*H_h, and each bracket [x, y] of a lowering x and a
    raising y that is a combination of Cartan generators only, keyed by
    (x, y).  A label set adds only the constant term (VermaEngine)."""
    t = structure_constants(n)
    size = len(t.generators)
    cartan = [x for x, c in enumerate(t.cls) if c == CARTAN]
    kappa = {h: [dict(t.brackets[h][x]).get(x, 0) for x in range(size)] for h in cartan}

    def form(combo: Iterable[Tuple[int, Fraction]]) -> RankForm:
        combo = tuple(combo)
        slope = sum(2 * c for _, c in combo)
        shift = [sum(c * kappa[h][x] for h, c in combo) for x in range(size)]
        if any(Fraction(v).denominator != 1 for v in [slope] + shift):
            raise AssertionError(f"Cartan combination {combo} is not integral")
        return combo, int(slope), tuple(int(v) for v in shift)

    eigen = {h: form(((h, Fraction(1)),)) for h in cartan}
    brackets = {
        (x, y): form(t.brackets[x][y])
        for x, cx in enumerate(t.cls) if cx == LOWERING
        for y, cy in enumerate(t.cls) if cy == RAISING
        if t.brackets[x][y] and all(t.cls[h] == CARTAN for h, _ in t.brackets[x][y])
    }
    return eigen, brackets


def _scalar(form: ScalarForm, word: CodeWord) -> Poly:
    slope, constant, shift = form
    c = constant + sum(shift[x] for x in word)
    return (c, slope) if slope else (c,) if c else ()


@lru_cache(maxsize=None)
def _engine_cache(n: int, a: Tuple[int, ...]) -> VermaEngine:
    return VermaEngine(n, a)


def engine_for(sig: Signature) -> VermaEngine:
    """The shared engine of the signature's label set (n, a)."""
    return _engine_cache(sig.n, sig.a)


# The memo of _tail_words, on (generator index, remainder), for one rank at
# a time: a call at another rank, or one that finds more than
# _TAIL_MEMO_LIMIT entries, starts it afresh.  Every dominant basis of rank
# 4 to level 4 takes 9,054 entries.
_tail_memo: Tuple[int, Dict[Tuple[int, Tuple[int, ...]], Tuple[Word, ...]]] = (0, {})
_TAIL_MEMO_LIMIT = 1 << 14


def weight_space_words(n: int, offset: Tuple[int, ...]) -> Tuple[Word, ...]:
    """All PBW monomials with the given simple-basis weight offset.

    Deterministic: generators ascend in PBW order left to right; smaller
    multiplicities of the earlier generator come first.  The words are
    ordered lexicographically by their multiplicities, so those that use
    only the generators from the k-th on make one block, shared by every
    offset that reaches the same remainder there (_tail_words, whose memo
    holds each whole basis too).
    """
    global _tail_memo
    if len(offset) != n:
        raise ValueError("offset length must equal the rank")
    if any(x < 0 for x in offset):
        raise ValueError("offset must be nonnegative")
    rank, memo = _tail_memo
    if rank != n or len(memo) > _TAIL_MEMO_LIMIT:
        memo = {}
        _tail_memo = (n, memo)
    return _tail_words(structure_constants(n), memo, 0, tuple(offset))


def _tail_words(table: StructureTable, memo: Dict, idx: int,
                rem: Tuple[int, ...]) -> Tuple[Word, ...]:
    """The PBW words at offset rem in the raising generators from the
    idx-th on, in the order of weight_space_words; an odd generator is
    used at most once."""
    if not any(rem):
        return ((),)
    if idx == len(table.raising):
        return ()
    key = (idx, rem)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g = table.raising[idx]
    e = table.weight_exp[table.code[g]]
    out: List[Word] = []
    prefix: Word = ()
    while True:
        out.extend(prefix + tail for tail in _tail_words(table, memo, idx + 1, rem))
        if g.is_odd and prefix:
            break
        rem = tuple(a - b for a, b in zip(rem, e))
        if any(x < 0 for x in rem):
            break
        prefix += (g,)
    words = memo[key] = tuple(out)
    return words


@dataclass(frozen=True)
class GramMatrix:
    """Shapovalov form restricted to one weight space: its entries are the
    integers `scaled` divided by the one positive integer `scale`."""

    weight_offset: Tuple[int, ...]
    basis: Tuple[Word, ...]
    scaled: Tuple[Tuple[int, ...], ...]
    scale: int

    @property
    def entries(self) -> Tuple[Tuple[Fraction, ...], ...]:
        s = self.scale
        return tuple(tuple(Fraction(x, s) for x in row) for row in self.scaled)


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
    reported.  Each block is judged by its parts (VermaEngine._block); the
    first block with a part that is not PSD is built whole, and the witness
    is psd_witness's on it.  Negativity first reaches the dominant sector on
    this grid; the bound max_level = 4 for rank three is empirical.  A
    max_level below 1 would certify nothing and raises ValueError.
    """
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    engine = engine_for(sig)
    levels = []
    for level in range(1, max_level + 1):
        levels.append(level)
        for offset in level_offsets(sig.n, level):
            if all(psd_witness(rows) is None for _idx, rows in engine._parts(sig, offset)):
                continue
            gram = engine.gram(sig, offset)
            coeffs = psd_witness(gram.scaled)
            if coeffs is None:
                raise AssertionError("a part of a Gram block is not PSD but the block is")
            terms = {w: c for w, c in zip(gram.basis, coeffs) if c}
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
