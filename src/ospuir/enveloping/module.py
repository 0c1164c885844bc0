"""Verma modules over osp(1|2n): normal ordering and the Shapovalov form.

States are stored in the PBW basis: words of raising generators sorted by
(even before odd, root height, delta coordinates), with odd generators
appearing at most once since the square of an odd raising generator is the
corresponding double-root generator.  The lowest-weight vector v0 is the
empty word; lowering generators annihilate it and Cartan generators act by
the eigenvalue (Lambda, delta_i-vee) = 2 lambda_i = 2d + m_i, where
m_i = 2(a_1 + ... + a_{i-1}) - (a_1 + ... + a_{n-1}).

Normal ordering is held once per rank and free of labels
(ospuir.enveloping.ordering): one generator acting on a PBW word gives
ints from a raising generator and coefficients affine in (d, a) from a
lowering or Cartan one, and every engine of the rank reads the same
entries.  One engine serves a label set (n, a) for every d.  It reads
the shared entries in one place, VermaEngine._read, which actions and
pairings both go through: an int is used as it is, and each distinct
affine coefficient is evaluated at the engine's labels once, into an
integer polynomial in d of degree at most 1.  Pairings, memoized per
engine, are integer polynomials in d, stored as tuples of ints in
ascending degree.
Per-signature vectors and pairings are exact evaluations of those
polynomials at the signature's d: q^deg P(p/q) by an integer Horner loop,
then one Fraction (ospuir.dpoly holds the polynomial arithmetic).

The positivity scan judges a Gram block on fewer rows than its basis
where it can.  Let C be the submodule generated by the compact singular
vectors X_i^(a_i + 1) v0, X_i the compact simple raising generators.  C
lies in the radical of the form at every d, and M/C is the parabolic
Verma module U(p+) (x) F(Lambda), p+ the noncompact raising generators (odd,
double and sum; they span a subalgebra).  So the form on any complement
of C_mu is congruent to the whole block with zeros added: both are PSD
together and have the same rank.  At a = 0, F(Lambda) is trivial and the
PBW words with no compact (mix) letter, noncompact_words, are a basis of
U(p+) and so of a complement; the scan gathers those rows only.  They are
listed in delta coordinates, where every noncompact root is nonnegative,
so the listing stops at any remainder with a negative delta coordinate: no
noncompact word completes it.  For a != 0, F(Lambda) is not trivial and a
complement of C_mu is as large as (U(p+) (x) F(Lambda))_mu, more than the
noncompact words span, so there the scan keeps the whole basis.

A block's upper triangle is gathered once per engine and weight offset,
as references to the memoized polynomials, over its kept rows: the rows
with at least one nonzero pairing polynomial, a pattern that no d
changes.  A dropped row pairs to zero with every row, so the block is
PSD exactly when its kept rows are.  At d = p/q the kept rows become the
upper triangle of one integer matrix q^D G(p/q), packed row by row, D
the block's top degree, with the one positive scale q^D; the scan gives
that triangle to linalg.packed_psd as it is, and only where it is not
PSD builds the whole block, over the whole basis, for psd_witness, so
that the witness is the whole block's.  Many blocks have the same
triangle as another, most of them at a = 0 (13 distinct among the 34
dominant blocks of rank 3 to level 4, 14 among 69 at rank 4).  The
engine holds each triangle value as one object, so equal triangles are
the same object, and a scan skips a triangle it has already judged in
the same call: equal matrices have equal verdicts, and that one was PSD,
or the scan would have stopped there.  A generator's action from one
weight space to the next is evaluated the same way, into the int matrix
that singular-vector kernels are solved from.

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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, mul, sub
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from ospuir.dpoly import (
    ONE as _ONE,
    Poly,
    add as _padd,
    add_product as _add_product,
    evaluate as _evaluate,
    mul as _pmul,
    trim as _trim,
    weights as _weights,
)
from ospuir.enveloping.algebra import KIND_MIX, Generator, StructureTable, structure_constants
from ospuir.enveloping.ordering import CodeWord, normal_order
from ospuir.linalg import packed_psd, psd_witness
from ospuir.root_system import check_exact, check_rank, cleared, int_tuple, is_int
from ospuir.weights import Signature

Word = Tuple[Generator, ...]
CodeTerms = Dict[CodeWord, Poly]
# A Gram block: the basis words of its rows, the indices of its kept rows
# (ascending), its upper triangle over them packed row by row (row s pairs
# kept row s with kept rows s, s + 1, ...), and its top degree.
Triangle = Tuple[Tuple[Poly, ...], ...]
Block = Tuple[Tuple[Word, ...], Tuple[int, ...], Triangle, int]
IntRows = List[List[int]]

_ZERO = Fraction(0)

MAX_LEVEL_DEFAULT = 4


def _add_mul(acc: CodeTerms, terms: Iterable[Tuple[CodeWord, Poly]], coeff: Poly) -> None:
    """acc += coeff * terms, in place, terms given as (word, polynomial)
    pairs; keys that cancel to zero are dropped."""
    for k, p in terms:
        prod = _pmul(p, coeff)
        old = acc.get(k)
        if old is not None:
            prod = _padd(old, prod)
            if not prod:
                del acc[k]
                continue
        acc[k] = prod


class _ModuleVectorFields(NamedTuple):
    sig: Signature
    offset: Tuple[int, ...]          # weight offset from Lambda, simple basis
    terms: Dict[Word, Fraction]


class ModuleVector(_ModuleVectorFields):
    """Element of the Verma module, expanded over PBW monomials: the named
    tuple (sig, offset, terms).  The constructor keeps the nonzero terms,
    each coefficient as a Fraction; a coefficient must be exact
    (check_exact)."""

    __slots__ = ()

    def __new__(cls, sig: Signature, offset: Tuple[int, ...],
                terms: Mapping[Word, Fraction]) -> "ModuleVector":
        check_exact(terms.values())
        clean = {w: Fraction(c) for w, c in terms.items() if c}
        return super().__new__(cls, sig, offset, clean)

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
    signature in this label set, evaluated at that signature's d.  The
    normal ordering itself is the rank's, shared by every label set
    (ordering.NormalOrder); the engine evaluates its coefficients at a.
    The labels are checked as Signature checks them (ValueError).
    """

    def __init__(self, n: int, a: Sequence[int]):
        self.n = n
        self.a = Signature(n, 0, a).a
        self.table: StructureTable = structure_constants(n)
        self._act = normal_order(n).act
        self._at: Dict[Tuple[int, ...], Poly] = {}   # affine coefficient -> value at a
        self._pair_memo: Dict[Tuple[CodeWord, CodeWord], Poly] = {}
        self._blocks: Dict[Tuple[Tuple[int, ...], bool], Block] = {}   # (offset, whole)
        self._triangles: Dict[Triangle, Triangle] = {}   # value -> the one object held

    def _check_signature(self, sig: Signature) -> None:
        if (sig.n, sig.a) != (self.n, self.a):
            raise ValueError(f"signature {sig} is not in the label set "
                             f"n = {self.n}, a = {self.a} of this engine")

    # ---------------------------------------------------------- core action

    def _read(self, g: int, word: CodeWord) -> Iterator[Tuple[CodeWord, Poly]]:
        """The rank's entry for g on word * v0 at this label set, as
        (word, polynomial in d) pairs; terms that vanish here are skipped.
        The engine's one reader of the shared ordering: an affine
        coefficient (c_0, c_d, c_1, ...) is evaluated at a on first use,
        into c_0 + sum_k c_k a_k + c_d d."""
        at = self._at
        for w, c in self._act(g, word).items():
            if c.__class__ is int:
                yield w, (c,)
                continue
            p = at.get(c)
            if p is None:
                k = c[0] + sum(map(mul, c[2:], self.a))
                p = at[c] = (k, c[1]) if c[1] else (k,) if k else ()
            if p:
                yield w, p

    def act_word_terms(self, g: int, word: CodeWord) -> CodeTerms:
        """Generator g applied to the PBW monomial word * v0, as PBW terms."""
        return dict(self._read(g, word))

    def _apply(self, word: CodeWord, terms: CodeTerms) -> CodeTerms:
        for g in reversed(word):
            acted: CodeTerms = {}
            for w, c in terms.items():
                _add_mul(acted, self._read(g, w), c)
            terms = acted
        return terms

    def _offset(self, word: CodeWord) -> Tuple[int, ...]:
        exps = self.table.weight_exp
        return tuple(sum(exps[g][k] for g in word) for k in range(self.n))

    def _scaled(self, vec: ModuleVector) -> Tuple[int, CodeTerms]:
        """(s, terms) with terms the vector's coefficients times s, as ints."""
        self._check_signature(vec.sig)
        scale, coeffs = cleared(vec.terms.values())
        encode = self.table.encode
        return scale, {encode(w): (c,) for w, c in zip(vec.terms, coeffs)}

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
        entries = list(entries)
        scale, coeffs = cleared([c for _, c in entries])
        words = [self.table.encode(w) for w, _ in entries]
        if not entries:
            raise ValueError("no terms given")
        total: CodeTerms = {}
        offset: Optional[Tuple[int, ...]] = None
        for word, c in zip(words, coeffs):
            terms = self._apply(word, {(): _ONE}) if c else {}
            if not terms:
                continue
            if offset is None:
                offset = self._offset(word)
            elif self._offset(word) != offset:
                raise ValueError("vectors live in different weight spaces")
            _add_mul(total, terms.items(), (c,))
        return scale, offset or (0,) * self.n, total

    def from_words(self, sig: Signature,
                   entries: Iterable[Tuple[Word, Fraction]]) -> ModuleVector:
        """Vector from (product word, coefficient) pairs applied to v0."""
        self._check_signature(sig)
        scale, offset, terms = self._word_terms(entries)
        return self._vector(sig, offset, terms, scale)

    # -------------------------------------------------------- weight spaces

    def basis(self, offset: Sequence[int]) -> Tuple[Word, ...]:
        return weight_space_words(self.n, offset)

    # ------------------------------------------------------ Shapovalov form

    def pair_words(self, u: CodeWord, w: CodeWord) -> Poly:
        """<u v0, w v0> for words of codes, memoized on suffix pairs.

        Peels the leftmost factor of u: <g rest v0, w v0> equals the sum of
        c <rest v0, w' v0> over the terms (w', c) of omega(g) w v0, as
        _read gives them.
        """
        if not u:
            return _ONE if not w else ()
        key = (u, w)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        rest = u[1:]
        acc: List[int] = []
        for w2, c in self._read(self.table.omega[u[0]], w):
            sub = self.pair_words(rest, w2)
            if sub:
                _add_product(acc, c, sub)
        total = self._pair_memo[key] = _trim(acc)
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

    def _block(self, offset: Tuple[int, ...], whole: bool = False) -> Block:
        """The Gram block at offset over the rows the scan judges (the
        noncompact words at a = 0, the whole basis otherwise), or over the
        whole basis; gathered once and reduced to its kept rows, whose
        polynomials are the objects held in the pairing memo, not copies.
        A triangle equal in value to one gathered before, at any offset, is
        replaced by that one: equal triangles are one object."""
        whole = whole or any(self.a)
        block = self._blocks.get((offset, whole))
        if block is None:
            basis = self.basis(offset) if whole else noncompact_words(self.n, offset)
            words = [self.table.encode(w) for w in basis]
            nonzero = {}
            for i, u in enumerate(words):
                for j in range(i, len(words)):
                    p = self.pair_words(u, words[j])
                    if p:
                        nonzero[i, j] = p
            kept = tuple(sorted({i for ij in nonzero for i in ij}))
            upper = tuple(tuple(nonzero.get((i, j), ()) for j in kept[s:])
                          for s, i in enumerate(kept))
            upper = self._triangles.setdefault(upper, upper)
            top = max([1, *map(len, nonzero.values())]) - 1
            block = self._blocks[offset, whole] = (basis, kept, upper, top)
        return block

    def gram(self, sig: Signature, offset: Sequence[int]) -> "GramMatrix":
        """The block at offset for d = p/q: q^D G(p/q) as int rows, scale q^D,
        the kept rows' matrix with zeros elsewhere."""
        self._check_signature(sig)
        offset = int_tuple(offset)
        basis, kept, upper, top = self._block(offset, whole=True)
        full = [[0] * len(basis) for _ in basis]
        for s, row in enumerate(_evaluated(upper, _weights(sig.d, top))):
            i = kept[s]
            for j, x in zip(kept[s:], row):
                full[i][j] = full[j][i] = x
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
        offset = int_tuple(offset)
        target = tuple(a + b for a, b in zip(offset, t.weight_exp[code]))
        if any(x < 0 for x in target):
            return []
        index = {t.encode(w): i for i, w in enumerate(self.basis(target))}
        columns = [list(self._read(code, t.encode(w))) for w in self.basis(offset)]
        top = max([1, *(len(p) for col in columns for _, p in col)]) - 1
        weights = _weights(sig.d, top)
        rows = [[0] * len(columns) for _ in index]
        for j, col in enumerate(columns):
            for w, p in col:
                i = index.get(w)
                if i is None:
                    raise AssertionError("vector leaves its expected weight space")
                rows[i][j] = sum(map(mul, p, weights))
        return rows


def _evaluated(upper: Triangle, weights: List[int]) -> IntRows:
    """A packed triangle of polynomials in d at d = p/q, given
    weights = dpoly.weights(p/q, D) for its top degree D: each entry
    q^D P(p/q) as an int, packed as the triangle is."""
    return [[sum(map(mul, p, weights)) for p in row] for row in upper]


# An engine keeps its pairing memo and blocks while it is cached (0.3 to
# 0.5 MB for a rank-3 label set with a != 0 scanned at three d to level 3;
# the rank's shared normal ordering, about 0.55 MB there, is held once and
# goes with the rank's last engine), so a sweep over many label sets keeps
# only the 8 most recently used.
# Criterion 2 and unitarity_grid run label set by label set, and
# perfbench's catalog-r3 makes 75 lookups over 6 to 8 label sets: 8 slots
# rebuild no engine there, 4 slots rebuild 3.
@lru_cache(maxsize=8)
def _engine_cache(n: int, a: Tuple[int, ...]) -> VermaEngine:
    return VermaEngine(n, a)


def engine_for(sig: Signature) -> VermaEngine:
    """The shared engine of the signature's label set (n, a)."""
    return _engine_cache(sig.n, sig.a)


# A run of letters: generators in PBW order, each with its weight in the
# coordinates that _tail_words' remainders use.  _alphabets keeps a run as
# (its even letters, _tail_words' memo on them, its odd table): the table
# maps the weight of each subset of the trailing odd letters to the word it
# forms.
Letters = Tuple[Tuple[Generator, Tuple[int, ...]], ...]
Run = Tuple[Letters, Dict, Dict[Tuple[int, ...], Word]]
_TAIL_MEMO_LIMIT = 1 << 14   # every dominant basis of rank 4 to level 4 takes 6,680


def _run(n: int, letters: Letters) -> Run:
    """letters as _tail_words reads them, with an empty memo.  The odd
    table lists the subsets as the recursion over the odd letters met them:
    for each odd letter in turn, multiplicity 0 before 1.  An even letter
    after an odd one, or two subsets with one weight (a remainder that
    ends in two words), raises AssertionError."""
    even = tuple(letter for letter in letters if not letter[0].is_odd)
    odd = letters[len(even):]
    if not all(g.is_odd for g, _e in odd):
        raise AssertionError("an even letter follows an odd one")
    table: Dict[Tuple[int, ...], Word] = {(0,) * n: ()}
    for g, e in reversed(odd):
        table.update([(tuple(map(add, w, e)), (g,) + word) for w, word in table.items()])
    if len(table) != 1 << len(odd):
        raise AssertionError("two subsets of the odd letters share a weight")
    return even, {}, table


@lru_cache(maxsize=1)
def _alphabets(n: int) -> Tuple[Run, Run]:
    """Rank n's raising generators with their simple-basis weights, and
    its noncompact ones (no mix letter) with their delta-basis weights,
    each as a Run (see _run), its memo and odd table built once.  One rank
    at a time: the offsets of a rank share the memos, and a call at another
    rank starts afresh."""
    table = structure_constants(n)
    raising = table.raising
    return (_run(n, tuple((g, table.weight_exp[table.code[g]]) for g in raising)),
            _run(n, tuple((g, g.delta_weight(n)) for g in raising if g.kind != KIND_MIX)))


def _listing(n: int, offset: Sequence[int], noncompact: bool) -> Tuple[Word, ...]:
    """The offset checks (int_tuple's among them), then the words at offset
    in one run of _alphabets(n), by _tail_words over its even letters; a
    call that leaves the run's memo above _TAIL_MEMO_LIMIT entries empties
    it."""
    rem = int_tuple(offset)
    if len(rem) != n:
        raise ValueError("offset length must equal the rank")
    if any(x < 0 for x in rem):
        raise ValueError("offset must be nonnegative")
    letters, memo, odd = _alphabets(n)[noncompact]
    if noncompact:
        rem = tuple(c - b for b, c in zip((0,) + rem, rem))
        if any(x < 0 for x in rem):
            return ()
    words = _tail_words(letters, memo, odd, 0, rem)
    if len(memo) > _TAIL_MEMO_LIMIT:
        memo.clear()
    return words


def weight_space_words(n: int, offset: Tuple[int, ...]) -> Tuple[Word, ...]:
    """All PBW monomials with the given simple-basis weight offset.

    Deterministic: generators ascend in PBW order left to right; smaller
    multiplicities of the earlier generator come first.  The words are
    ordered lexicographically by their multiplicities, so those that use
    only the generators from the k-th on make one block, shared by every
    offset that reaches the same remainder there (_tail_words, whose memo
    holds each whole basis too).  The odd generators come last in PBW
    order, each at most once, and distinct sets of them have distinct
    weights, so a remainder left after the even ones ends in at most one
    word, read from the run's odd table (_run).
    """
    return _listing(n, offset, noncompact=False)


def noncompact_words(n: int, offset: Tuple[int, ...]) -> Tuple[Word, ...]:
    """The words of weight_space_words(n, offset) with no compact (mix)
    letter, in the same order: a PBW basis of U(p+) at that offset.

    They have multiplicity 0 at every compact generator, so in the
    lexicographic order of multiplicities they come as they do when the
    same recursion skips those generators; the whole basis is never built.
    The recursion runs in delta coordinates (the differences of the simple
    ones), where every noncompact root (delta_i, delta_i + delta_j,
    2 delta_i) is nonnegative: so a remainder with a negative delta
    coordinate, one whose simple coordinates decrease somewhere, can never
    be completed, and the recursion stops there.
    """
    return _listing(n, offset, noncompact=True)


def _tail_words(letters: Letters, memo: Dict, odd: Dict[Tuple[int, ...], Word],
                idx: int, rem: Tuple[int, ...]) -> Tuple[Word, ...]:
    """The PBW words at remainder rem in the even letters[idx:] followed by
    the odd letters of odd (a run's odd table), ordered as
    weight_space_words orders its words.  Past the even letters the one
    word, if any, is odd[rem].  Every letter's weight is nonnegative in the
    coordinates of rem, so a remainder with a negative coordinate has no
    word and ends the run."""
    if idx == len(letters):
        word = odd.get(rem)
        return () if word is None else (word,)
    if not any(rem):
        return ((),)
    key = (idx, rem)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g, e = letters[idx]
    idx += 1
    out: List[Word] = []
    prefix: Word = ()
    while True:
        out.extend(map(prefix.__add__, _tail_words(letters, memo, odd, idx, rem)))
        rem = tuple(map(sub, rem, e))
        if min(rem) < 0:
            break
        prefix += (g,)
    words = memo[key] = tuple(out)
    return words


class GramMatrix(NamedTuple):
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
    coordinates nonnegative); in the simple basis the coordinates are the
    prefix sums of the delta ones, so the dominant offsets are the
    nondecreasing (c_1, ..., c_{n-1}) with c_{n-1} <= level, followed by
    c_n = level.  They are listed in lexicographic order, which is also
    the lexicographic order of their delta coordinates.  A rank outside
    RANKS["roots"] and a level that is not a nonnegative int (a bool is not
    one) raise ValueError.
    """
    check_rank("roots", n)
    if not is_int(level) or level < 0:
        raise ValueError(f"level must be a nonnegative integer, got {level!r}")
    return [c + (level,) for c in combinations_with_replacement(range(level + 1), n - 1)]


class PsdReport(NamedTuple):
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
    reported.

    Each block is judged by the kept rows of its scanned rows
    (VermaEngine._block), with one packed_psd call on their packed int
    triangle: a row that pairs to zero with every row changes no verdict.
    Equal triangles are one object on the engine, and the call keeps the
    ids of those it has found PSD: a block whose triangle is among them is
    not evaluated or judged again.  Nothing is kept from one call to the
    next.  The powers of d are worked out once per top degree per call.
    At a = 0 the scanned rows are the noncompact words, which span a
    complement of the radical submodule C (see the module docstring), so
    the form on them is PSD exactly when the whole block is, with the same
    rank; for a != 0 they are the whole basis.  The first block whose kept
    rows are not PSD is built whole by VermaEngine.gram, and the witness
    is psd_witness's on it; if the whole block is PSD after all, the scan
    raises AssertionError.  Negativity first reaches the dominant sector
    on this grid; the bound max_level = 4 for rank three is empirical.  A
    max_level that is not an int (a bool is not one) raises ValueError,
    and so does one below 1, which would certify nothing.
    """
    if not is_int(max_level):
        raise ValueError(f"max_level must be an integer, got {max_level!r}")
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    engine = engine_for(sig)
    weights: Dict[int, List[int]] = {}   # top degree -> _weights(sig.d, top)
    # ids of the triangles found PSD in this call; the engine holds every
    # triangle, so no id is reused while the call runs
    judged: Set[int] = set()
    levels = []
    for level in range(1, max_level + 1):
        levels.append(level)
        for offset in level_offsets(sig.n, level):
            _basis, _kept, upper, top = engine._block(offset)
            if id(upper) in judged:
                continue
            w = weights.get(top)
            if w is None:
                w = weights[top] = _weights(sig.d, top)
            if packed_psd(_evaluated(upper, w)):
                judged.add(id(upper))
                continue
            gram = engine.gram(sig, offset)
            coeffs = psd_witness(gram.scaled)
            if coeffs is None:
                raise AssertionError("a Gram block's scanned rows are not PSD "
                                     "but the whole block is")
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
