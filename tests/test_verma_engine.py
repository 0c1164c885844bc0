"""The label-set Verma engine against a Generator-keyed reference recursion.

ReferenceEngine is the normal-ordering and pairing recursion over words of
Generator objects with Fraction coefficients for one signature, as the
engine ran before generators were coded as ints and before one engine
served every d of a label set with integer-polynomial coefficients.  It
takes its brackets from the recursive reference_bracket of
test_enveloping_algebra and its facts from Generator.delta_weight, so it
shares no table with the engine under test.
"""

import gc
import itertools
import random
import re
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

from ospuir.enveloping.algebra import (
    CARTAN,
    Generator,
    KIND_CARTAN,
    KIND_DOUBLE,
    KIND_MIX,
    KIND_ODD,
    LOWERING,
    RAISING,
    all_generators,
    omega,
    structure_constants,
)
from ospuir.dpoly import evaluate
from ospuir.enveloping import module, ordering
from ospuir.enveloping.module import (
    GramMatrix,
    ModuleVector,
    PsdReport,
    VermaEngine,
    engine_for,
    gram_psd_check,
    level_offsets,
    noncompact_words,
    weight_space_words,
)
from ospuir.enveloping.singular import singular_space
from ospuir.linalg import packed_psd, psd_witness, rref
from ospuir.weights import (
    FAMILY_COMPACT,
    Signature,
    lowest_weight,
    reducibility_report,
    reduction_points,
)

from test_enveloping_algebra import add_scaled, reference_bracket, reference_facts


class ReferenceEngine:
    """Normal ordering and the Shapovalov form over Generator words."""

    def __init__(self, sig):
        self.lam = lowest_weight(sig)
        self.facts = reference_facts(sig.n)
        self.brackets = {}
        self.act_memo = {}
        self.pair_memo = {}

    def bracket(self, x, y):
        if (x, y) not in self.brackets:
            self.brackets[(x, y)] = reference_bracket(x, y)
        return self.brackets[(x, y)]

    def act_word_terms(self, g, word):
        key = (g, word)
        if key in self.act_memo:
            return self.act_memo[key]
        facts = self.facts
        g_facts = facts[g]
        if not word:
            if g_facts.cls == RAISING:
                out = {(g,): Fraction(1)}
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
                for h, cb in self.bracket(g, head).items():
                    add_scaled(out, self.act_word_terms(h, rest), cb)
        self.act_memo[key] = out
        return out

    def pair_words(self, u, w):
        if not u:
            return Fraction(1) if not w else Fraction(0)
        key = (u, w)
        if key not in self.pair_memo:
            total = Fraction(0)
            for w2, c in self.act_word_terms(omega(u[0]), w).items():
                total += c * self.pair_words(u[1:], w2)
            self.pair_memo[key] = total
        return self.pair_memo[key]

    def gram(self, n, offset):
        basis = weight_space_words(n, offset)
        return tuple(tuple(self.pair_words(u, w) for w in basis) for u in basis)


def _assert_grams_match(sig, max_level):
    eng = engine_for(sig)
    ref = ReferenceEngine(sig)
    for level in range(1, max_level + 1):
        for offset in level_offsets(sig.n, level):
            assert eng.gram(sig, offset).entries == ref.gram(sig.n, offset), (sig, offset)


# The dyadic grid of the Gram scan, then values of d off it; the shared
# engine of each label set serves every d.
RANK3_A = [(0, 0), (1, 2)]
RANK3_D = [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(2),
           Fraction(-3, 2), Fraction(1, 3), Fraction(7, 5)]


def _rank4_sig():
    rng = random.Random(20261018)
    a = tuple(rng.randint(0, 2) for _ in range(3))
    return Signature(4, Fraction(rng.randint(0, 16), 4), a)


@pytest.mark.parametrize("a", RANK3_A)
@pytest.mark.parametrize("d", RANK3_D)
def test_rank3_grams_match_reference(a, d):
    _assert_grams_match(Signature(3, d, a), max_level=3)


def test_rank4_grams_match_reference():
    _assert_grams_match(_rank4_sig(), max_level=2)


def _assert_scaled_blocks(sig, max_level):
    eng = engine_for(sig)
    for level in range(1, max_level + 1):
        for offset in level_offsets(sig.n, level):
            gram = eng.gram(sig, offset)
            entries = gram.entries
            assert type(gram.scale) is int and gram.scale > 0, (sig, offset)
            assert all(type(x) is int for row in gram.scaled for x in row)
            assert [[x * gram.scale for x in row] for row in entries] == [
                list(row) for row in gram.scaled], (sig, offset)
            assert psd_witness(gram.scaled) == psd_witness(entries), (sig, offset)


# Each block is one integer matrix with one positive scale: its entries are
# the scaled integers over the scale, and the elimination finds the same
# witness on either.
@pytest.mark.parametrize("a", RANK3_A)
@pytest.mark.parametrize("d", RANK3_D)
def test_rank3_scaled_blocks_match_entries(a, d):
    _assert_scaled_blocks(Signature(3, d, a), max_level=3)


def test_rank4_scaled_blocks_match_entries():
    _assert_scaled_blocks(_rank4_sig(), max_level=2)


def test_gram_blocks_compare_by_entries():
    # blocks are plain values: a block is unequal to one that differs in an
    # entry, an offset or d, and its entries divide out its scale
    sig = Signature(3, Fraction(3, 4), (0, 1))
    eng = engine_for(sig)
    offset = next(off for off in level_offsets(3, 2) if len(eng.basis(off)) > 1)
    gram = eng.gram(sig, offset)

    def rescaled(k, bump=0):
        rows = [[k * x for x in row] for row in gram.scaled]
        rows[0][0] += bump
        return GramMatrix(offset, gram.basis, tuple(map(tuple, rows)), k * gram.scale)

    assert rescaled(6).scale != gram.scale and rescaled(6).entries == gram.entries
    assert rescaled(6, bump=1) != gram
    assert eng.gram(sig, level_offsets(3, 1)[0]) != gram
    assert eng.gram(Signature(3, Fraction(1, 2), (0, 1)), offset) != gram


def _unpacked(packed):
    """The symmetric matrix whose upper triangle is packed row by row."""
    rows = []
    for s, row in enumerate(packed):
        rows.append([r[s] for r in rows] + list(row))
    return rows


def _assert_kept_rows(n, a, max_level, ds):
    """The scan's rows are the noncompact words at a = 0 and the whole
    basis otherwise.  Over those rows and over the whole basis, each
    block's kept rows ascend and are exactly the rows with a nonzero
    pairing against the whole basis, so every pairing on a dropped row is
    zero; gram() equals the whole block evaluated entry by entry at the
    first d, and at each d both kept-row matrices are PSD exactly when the
    block is, judged on their packed triangles as the scan judges them and
    on the symmetric matrices they pack.  Returns the verdicts seen."""
    eng = engine_for(Signature(n, ds[0], a))
    verdicts = set()
    for level in range(1, max_level + 1):
        for offset in level_offsets(n, level):
            rows = eng.basis(offset) if any(a) else noncompact_words(n, offset)
            assert eng._block(offset)[0] == rows, (a, offset)
            assert any(a) == (eng._block(offset) is eng._block(offset, whole=True))
            everything = [eng.table.encode(w) for w in eng.basis(offset)]
            for whole in (False, True):
                basis, kept, _upper, _top = eng._block(offset, whole)
                words = [eng.table.encode(w) for w in basis]
                assert list(kept) == sorted(set(kept)), (a, offset)
                pairs = [[eng.pair_words(u, w) for w in everything] for u in words]
                assert kept == tuple(i for i, row in enumerate(pairs) if any(row)), (
                    a, offset, whole)
            for d in ds:
                sig = Signature(n, d, a)
                gram = eng.gram(sig, offset)
                assert d != ds[0] or gram.entries == tuple(
                    tuple(evaluate(eng.pair_words(u, w), d) for w in everything)
                    for u in everything), (a, offset, d)
                psd = psd_witness(gram.scaled) is None
                for whole in (False, True):
                    packed = eng._packed(sig, offset, whole)
                    assert psd == (psd_witness(_unpacked(packed)) is None), (
                        a, offset, d, whole)
                    assert psd == packed_psd(packed), (a, offset, d, whole)
                verdicts.add(psd)
    return verdicts


def test_gram_kept_rows_of_each_block():
    # rank 3, every a in {0,1,2}^2 to level 4, rank 4 at a = 0 to level 2
    # and rank 5 at a = 0 to level 2, each at a seeded d of the dyadic grid
    # and one off it
    rng = random.Random(20261023)
    verdicts = set()
    cases = [(3, (a1, a2), 4) for a1 in range(3) for a2 in range(3)] + [
        (4, (0, 0, 0), 2), (5, (0, 0, 0, 0), 2)]
    for n, a, max_level in cases:
        ds = [Fraction(rng.randint(0, 16), 4), Fraction(rng.randint(-20, 40), rng.randint(1, 7))]
        verdicts |= _assert_kept_rows(n, a, max_level, ds)
    assert verdicts == {True, False}


def test_kept_rows_and_whole_block_must_agree(monkeypatch):
    # kept rows called not PSD in a block that is PSD (d = 2 is unitary at
    # both label sets) trip the scan's own check: only the first call, the
    # packed_psd call on the first block's kept rows, lies, and the second,
    # psd_witness on the whole block, finds it PSD.  At a = (0, 0) those
    # are noncompact rows, at a = (0, 1) rows of the whole basis.
    for a in ((0, 0), (0, 1)):
        calls = []

        def first_block_fails(packed):
            calls.append(packed)
            return False if len(calls) == 1 else packed_psd(packed)

        def counted_witness(gram):
            calls.append(gram)
            return psd_witness(gram)

        monkeypatch.setattr(module, "packed_psd", first_block_fails)
        monkeypatch.setattr(module, "psd_witness", counted_witness)
        with pytest.raises(AssertionError, match="scanned rows are not PSD"):
            gram_psd_check(Signature(3, Fraction(2), a), max_level=1)
        assert len(calls) == 2, a


def test_scan_refuses_a_max_level_that_is_not_an_int():
    # a bool, a float and a str are refused before any block is judged,
    # and a level below 1 keeps its own message
    sig = Signature(3, Fraction(5, 2), (0, 0))
    for bad in (True, False, 2.5, "3", Fraction(2)):
        with pytest.raises(ValueError, match=re.escape(f"max_level must be an integer, got {bad!r}")):
            gram_psd_check(sig, max_level=bad)
    with pytest.raises(ValueError, match="max_level must be at least 1, got 0"):
        gram_psd_check(sig, max_level=0)
    assert gram_psd_check(sig, max_level=1).max_level == 1


def _generic_d(rng, n, a):
    """A seeded d at which no noncompact root is reducible."""
    while True:
        d = Fraction(rng.randint(-40, 40), rng.choice((3, 5, 7)))
        entries = reducibility_report(Signature(n, d, a)).entries
        if not any(e.satisfied for e in entries if e.family != FAMILY_COMPACT):
            return d


def test_noncompact_rows_match_whole_blocks():
    # At a = 0 the noncompact words span a complement of the submodule C
    # generated by the compact singular vectors, and C lies in the radical
    # of the form: on every block the rows the scan judges give the whole
    # block's PSD verdict and rank.  Where no noncompact root is reducible,
    # M/C = N(Lambda) is irreducible and the form on those rows is
    # nondegenerate, so a row too many or too few shows as a rank.
    rng = random.Random(20261019)
    verdicts = set()
    for n, max_level in ((3, 4), (4, 3), (5, 2)):
        a = (0,) * (n - 1)
        points = sorted(set(reduction_points(n, a).points.values()))
        on = rng.sample(points, 3)
        off = [_generic_d(rng, n, a) for _ in range(3)]
        eng = engine_for(Signature(n, on[0], a))
        for level in range(1, max_level + 1):
            for offset in level_offsets(n, level):
                rows = eng._block(offset)[0]
                for d in on + off:
                    sig = Signature(n, d, a)
                    packed = eng._packed(sig, offset)
                    kept = _unpacked(packed)
                    reduced_psd = psd_witness(kept) is None
                    assert packed_psd(packed) == reduced_psd, (n, offset, d)
                    reduced_rank = len(rref(kept)[1])
                    whole = eng.gram(sig, offset).scaled
                    assert (reduced_psd, reduced_rank) == (
                        psd_witness(whole) is None, len(rref(whole)[1])), (n, offset, d)
                    assert d in on or reduced_rank == len(rows), (n, offset, d)
                    verdicts.add(reduced_psd)
    assert verdicts == {True, False}


def _reference_psd_check(sig, max_level):
    """The Gram scan as it ran on Fraction entries: each entry is its
    pairing polynomial evaluated at d on its own."""
    eng = engine_for(sig)
    levels = []
    for level in range(1, max_level + 1):
        levels.append(level)
        for offset in level_offsets(sig.n, level):
            basis = weight_space_words(sig.n, offset)
            if not basis:
                continue
            words = [eng.table.encode(w) for w in basis]
            entries = [[evaluate(eng.pair_words(u, w), sig.d) for w in words]
                       for u in words]
            coeffs = psd_witness(entries)
            if coeffs is None:
                continue
            witness = ModuleVector(sig, offset, dict(zip(basis, coeffs)))
            return PsdReport(sig, max_level, False, witness, eng.norm(witness),
                             offset, tuple(levels))
    return PsdReport(sig, max_level, True, None, None, None, tuple(levels))


def test_psd_scan_matches_fraction_reference():
    # a seeded sample of the criterion-2 cells (a in {0,1,2}^2, d = k/4),
    # with the nonunitary (0,0) cells d = 1/4 and 3/4 always in it
    rng = random.Random(20261021)
    cells = [((0, 0), Fraction(1, 4)), ((0, 0), Fraction(3, 4))]
    cells += [((rng.randint(0, 2), rng.randint(0, 2)), Fraction(rng.randint(0, 16), 4))
              for _ in range(6)]
    verdicts = set()
    for a, d in cells:
        sig = Signature(3, d, a)
        report = gram_psd_check(sig, max_level=4)
        assert report == _reference_psd_check(sig, max_level=4), sig
        verdicts.add(report.psd)
    assert verdicts == {True, False}


def _every_block_psd_check(sig, max_level):
    """The Gram scan with nothing skipped: every dominant block in the
    scan's order, judged whole by psd_witness, up to the first witness."""
    eng = engine_for(sig)
    levels = []
    for level in range(1, max_level + 1):
        levels.append(level)
        for offset in level_offsets(sig.n, level):
            gram = eng.gram(sig, offset)
            coeffs = psd_witness(gram.scaled)
            if coeffs is None:
                continue
            witness = ModuleVector(sig, offset, dict(zip(gram.basis, coeffs)))
            return PsdReport(sig, max_level, False, witness, eng.norm(witness),
                             offset, tuple(levels))
    return PsdReport(sig, max_level, True, None, None, None, tuple(levels))


@pytest.mark.parametrize("n, max_level", [(2, 4), (3, 4), (4, 3), (5, 2)])
def test_scan_of_distinct_triangles_matches_every_block_scan(n, max_level):
    # a = 0, where most blocks repeat an earlier block's triangle, and one
    # seeded nonzero label set, each on one engine at d = n (every block
    # PSD), then the nonunitary d = 1/4 and 3/4 of a = 0, then seeded d on
    # the k/4 grid: a verdict kept from one d to the next, or a triangle
    # taken for an earlier one of the same shape, shows in a field
    rng = random.Random(20261024 + n)
    a = [rng.randint(0, 2) for _ in range(n - 1)]
    a[rng.randrange(n - 1)] = rng.randint(1, 2)
    ds = [Fraction(n), Fraction(1, 4), Fraction(3, 4)]
    ds += [Fraction(rng.randint(0, 4 * n), 4) for _ in range(3)]
    verdicts = set()
    for labels in ((0,) * (n - 1), tuple(a)):
        for d in ds:
            sig = Signature(n, d, labels)
            report = gram_psd_check(sig, max_level)
            assert report == _every_block_psd_check(sig, max_level), sig
            verdicts.add(report.psd)
    assert verdicts == {True, False}


def test_scan_judges_each_distinct_triangle_once(monkeypatch):
    # one packed_psd call per distinct scanned triangle in a unitary scan
    # (the scan used to make one per block: 34, 69 and 34 here); at
    # a = (0, 1) no two blocks have the same triangle
    judged = []

    def counted(packed):
        judged.append(packed)
        return packed_psd(packed)

    monkeypatch.setattr(module, "packed_psd", counted)
    for n, a, d, blocks, distinct in (
            (3, (0, 0), Fraction(3), 34, 13),
            (4, (0, 0, 0), Fraction(5, 2), 69, 14),
            (3, (0, 1), Fraction(5, 2), 34, 34)):
        judged.clear()
        sig = Signature(n, d, a)
        assert gram_psd_check(sig, max_level=4).psd, sig
        offsets = [off for level in range(1, 5) for off in level_offsets(n, level)]
        triangles = {engine_for(sig)._block(off)[2] for off in offsets}
        assert (len(offsets), len(triangles), len(judged)) == (blocks, distinct, distinct), sig


def test_scan_gathers_blocks_only_where_it_reaches(monkeypatch):
    # on a fresh engine a nonunitary scan gathers the scanned block of each
    # offset up to the witness's, in the scan's order, and the witness's
    # whole block, and nothing ahead of the witness
    for n, a, d in ((4, (0, 0, 0), Fraction(5, 4)), (3, (0, 1), Fraction(1, 2))):
        eng = VermaEngine(n, a)
        monkeypatch.setattr(module, "engine_for", lambda sig: eng)
        report = gram_psd_check(Signature(n, d, a), max_level=4)
        offsets = [off for level in range(1, 5) for off in level_offsets(n, level)]
        reached = offsets[:offsets.index(report.witness_offset) + 1]
        assert set(eng._blocks) == {(off, any(a)) for off in reached} | {
            (report.witness_offset, True)}, (a, report.witness_offset)


def _assert_acts_match(n, a, rng):
    sig = Signature(n, Fraction(rng.randint(0, 16), 4), a)
    eng = VermaEngine(n, a)
    ref = ReferenceEngine(sig)
    offsets = [off for level in (0, 1, 2, 3) for off in level_offsets(n, level)]
    words = [rng.choice(weight_space_words(n, off)) for off in rng.sample(offsets, 8)]
    for g in all_generators(n):
        for word in words:
            offset = tuple(sum(ref.facts[h].weight_exp[k] for h in word) for k in range(n))
            out = eng.act(g, ModuleVector(sig, offset, {word: Fraction(1)}))
            expected = ref.act_word_terms(g, word)
            assert out.terms == expected, (a, g, word)
            view = eng.act_word_terms(eng.table.code[g], eng.table.encode(word))
            assert {eng.table.decode(w): evaluate(p, sig.d) for w, p in view.items()
                    if evaluate(p, sig.d)} == expected, (a, g, word)
            if expected:
                assert out.offset == tuple(
                    a + b for a, b in zip(offset, ref.facts[g].weight_exp)
                ), (g, word)
    # omega(y) omega(x) on a vector with the word x y, for noncompact x and
    # y: each lowering letter meets its raising partner in a Cartan
    # eigenvalue of degree 1 in d, so the second multiplies two polynomials
    # of degree 1 (dpoly.mul's general branch); checked against the
    # reference applied twice
    cases = [(off, w) for off in offsets if sum(off) > 1 for w in weight_space_words(n, off)
             if len(w) == 2 and all(g.kind != KIND_MIX for g in w)]
    for off, (x, y) in rng.sample(cases, min(4, len(cases))):
        basis = weight_space_words(n, off)
        terms = {w: Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
                 for w in rng.sample(basis, min(2, len(basis))) + [(x, y)]}
        pair = (omega(y), omega(x))
        expected = terms
        for g in reversed(pair):
            acted = {}
            for w, c in expected.items():
                add_scaled(acted, ref.act_word_terms(g, w), c)
            expected = acted
        out = eng.apply_word(pair, ModuleVector(sig, off, terms))
        assert out.terms == expected, (a, pair, terms)
    return eng


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_act_matches_reference(n):
    # The second label set differs from the first in a_1, so sum(a) changes
    # parity, and reads the rank's normal ordering after the first filled
    # it: a stale or mis-specialised label would show in its terms.
    rng = random.Random(20261019 + n)
    a = tuple(rng.randint(0, 2) for _ in range(n - 1))
    first = _assert_acts_match(n, a, rng)
    filled = len(first._act.__self__.memo)
    second = _assert_acts_match(n, (a[0] + 1,) + a[1:], rng)
    assert second._act.__self__ is first._act.__self__
    assert filled > 0


def test_label_sets_of_a_rank_share_one_normal_ordering(monkeypatch):
    # Once a = (0, 0) has solved the singular space at offset (2, 4, 4),
    # the same solve at a = (0, 2) and at a = (1, 1) expands no new
    # normal-ordering entry: every (g, word) it needs is already shared.
    module._engine_cache.cache_clear()
    gc.collect()   # the rank's ordering goes with its last engine
    misses = []
    expand = ordering.NormalOrder._expand

    def counted(self, g, word):
        misses.append((g, word))
        return expand(self, g, word)

    monkeypatch.setattr(ordering.NormalOrder, "_expand", counted)
    offset = (2, 4, 4)
    counts = []
    for a in ((0, 0), (0, 2), (1, 1)):
        del misses[:]
        sig = Signature(3, Fraction(5, 2), a)
        singular_space(sig, offset)
        assert engine_for(sig)._act.__self__ is ordering.normal_order(3)
        counts.append(len(misses))
    assert counts[0] > 0 and counts[1:] == [0, 0], counts


def test_one_engine_serves_every_d_of_a_label_set():
    sig = Signature(3, Fraction(1, 3), (1, 2))
    other = Signature(3, Fraction(7, 5), (1, 2))
    assert engine_for(sig) is engine_for(other)
    assert engine_for(sig) is not engine_for(Signature(3, Fraction(1, 3), (2, 1)))
    with pytest.raises(ValueError, match="label set"):
        engine_for(sig).gram(Signature(3, Fraction(1, 3), (2, 1)), (0, 0, 1))


def test_engine_cache_keeps_at_most_eight_engines():
    # each engine keeps its memos while it is cached: a sweep over 16 label
    # sets leaves at most 8 of them alive
    refs = []
    for a in itertools.product(range(6, 10), repeat=2):
        sig = Signature(3, 30, a)
        assert gram_psd_check(sig, max_level=2).psd
        refs.append(weakref.ref(engine_for(sig)))
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 8
    assert module._engine_cache.cache_info().currsize <= 8
    assert refs[-1]() is engine_for(Signature(3, Fraction(1, 2), (9, 9)))


def test_sweep_over_100_label_sets_holds_bounded_memory():
    # a long sweep keeps only the cached engines: traced memory after 100
    # label sets is no higher than after 25, within a margin of 256 KiB,
    # and at most 8 engines are alive.  With every engine kept, it reads
    # about 2.2 MB after 25 and 3.6 MB after 100.
    module._engine_cache.cache_clear()
    refs, traced = [], []
    tracemalloc.start()
    try:
        for a in itertools.product(range(10), repeat=2):
            sig = Signature(3, Fraction(7, 2), a)
            gram_psd_check(sig, max_level=2)
            refs.append(weakref.ref(engine_for(sig)))
            if len(refs) in (25, 100):
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    after_25, after_100 = traced
    assert after_100 <= after_25 + 256 * 1024, (after_25, after_100)
    assert sum(ref() is not None for ref in refs) <= 8


def test_normal_ordering_goes_with_the_last_engine_of_its_rank():
    # the rank-4 ordering a level-3 scan fills (23,887 entries, about 8.5 MB
    # traced) is freed with the engine that held it
    module._engine_cache.cache_clear()
    sig = Signature(4, Fraction(9, 2), (0, 0, 1))
    assert gram_psd_check(sig, max_level=3).psd
    order = weakref.ref(ordering.normal_order(4))
    assert engine_for(sig)._act.__self__ is order()
    module._engine_cache.cache_clear()
    gc.collect()
    assert order() is None


def reference_cartan_forms(n):
    """ordering.cartan_forms built over Fractions: each combination's part
    in d and in each a_k is summed as Fractions from the eigenvalues on v0
    that lowest_weight gives, its shifts from the bracket table, and all
    are checked to be integers."""
    t = structure_constants(n)
    size = len(t.generators)
    cartan = [x for x, c in enumerate(t.cls) if c == CARTAN]
    kappa = {h: [dict(t.brackets[h][x]).get(x, 0) for x in range(size)] for h in cartan}
    zero = (0,) * (n - 1)
    units = [zero[:k] + (1,) + zero[k + 1:] for k in range(n - 1)]

    def vacuum(h, d, a):   # H_h on v0: 2 lambda_i, h = H_i
        return 2 * lowest_weight(Signature(n, Fraction(d), a))[t.generators[h].i - 1]

    def form(combo):
        combo = tuple(combo)
        parts = [(1, zero)] + [(0, e) for e in units]
        assert sum(c * vacuum(h, 0, zero) for h, c in combo) == 0, combo
        tail = [sum(c * (vacuum(h, d, e) - vacuum(h, 0, zero)) for h, c in combo)
                for d, e in parts]
        shift = [sum(c * kappa[h][x] for h, c in combo) for x in range(size)]
        assert all(Fraction(v).denominator == 1 for v in tail + shift), combo
        return tuple(int(v) for v in tail), tuple(int(v) for v in shift)

    eigen = {h: form(((h, Fraction(1)),)) for h in cartan}
    brackets = {
        (x, y): form(t.brackets[x][y])
        for x, cx in enumerate(t.cls) if cx == LOWERING
        for y, cy in enumerate(t.cls) if cy == RAISING
        if t.brackets[x][y] and all(t.cls[h] == CARTAN for h, _ in t.brackets[x][y])
    }
    return eigen, brackets


@pytest.mark.parametrize("n", range(2, 9))
def test_cartan_forms_match_fraction_reference(n):
    # repr also tells an int from an equal Fraction
    assert repr(ordering.cartan_forms(n)) == repr(reference_cartan_forms(n))


def _table_with(monkeypatch, n, x, y, terms):
    """Make ordering.structure_constants return rank n's table with
    brackets[x][y] replaced by terms."""
    t = structure_constants(n)
    rows = [list(row) for row in t.brackets]
    rows[x][y] = terms
    patched = t._replace(brackets=tuple(tuple(row) for row in rows))
    monkeypatch.setattr(ordering, "structure_constants", lambda _n: patched)


def test_cartan_forms_refuse_non_integral_coefficients(monkeypatch):
    # a third of H_1 has slope 2/3, a half of H_1 has integral slope and
    # shifts but enters the labels as +-a_k/2, and a half-integral
    # eigenvalue of H_1 on a_1^+ makes a shift non-integral
    t = structure_constants(3)
    h1 = t.code[Generator(KIND_CARTAN, 1)]
    lower = t.code[Generator(KIND_ODD, 1, sign=-1)]
    raise_ = t.code[Generator(KIND_ODD, 1, sign=1)]
    assert t.brackets[lower][raise_] == ((h1, Fraction(1)),)
    for part in (Fraction(1, 3), Fraction(1, 2)):
        _table_with(monkeypatch, 3, lower, raise_, ((h1, part),))
        with pytest.raises(AssertionError, match="not integral"):
            ordering.cartan_forms(3)
        monkeypatch.undo()
    _table_with(monkeypatch, 3, h1, raise_, ((raise_, Fraction(3, 2)),))
    with pytest.raises(AssertionError, match="non-integral"):
        ordering.cartan_forms(3)


@pytest.mark.parametrize("n", range(2, 9))
def test_cartan_bracket_scalars_are_integer_polynomials(n):
    # Every bracket of a lowering and a raising generator that is a
    # combination of Cartan generators acts on a PBW word w v0 as
    # sum_h c_h (2 lambda_h + 2 delta_h(w)); the rank holds it as one
    # coefficient, integral over (1, d, a), that each engine evaluates
    # into an integer polynomial in d.  Every other bracket has integer
    # coefficients.  Checked against lowest_weight and
    # Generator.delta_weight, for label sets of both parities of sum(a).
    rng = random.Random(20261020 + n)
    table = structure_constants(n)
    gens = table.generators
    raising = [g for g, c in zip(gens, table.cls) if c == RAISING]
    brackets = ordering.cartan_forms(n)[1]
    for a in ((0,) * (n - 1), tuple(rng.randint(0, 3) for _ in range(n - 1)),
              (1,) + (0,) * (n - 2)):
        eng = VermaEngine(n, a)
        lam = [lowest_weight(Signature(n, Fraction(d), a)) for d in (0, 1)]
        words = [()] + [(g,) for g in raising] + [tuple(rng.sample(raising, 3))]
        forms = 0
        for x, gx in enumerate(gens):
            for y, gy in enumerate(gens):
                combo = reference_bracket(gx, gy)
                if not combo or any(table.cls[table.code[h]] != CARTAN for h in combo):
                    assert all(c.denominator == 1 for c in combo.values()), (gx, gy)
                    continue
                if table.cls[x] != LOWERING or table.cls[y] != RAISING:
                    continue
                form = brackets[(x, y)]
                forms += 1
                for word in words:
                    weight = [sum(g.delta_weight(n)[k] for g in word) for k in range(n)]
                    at_0, at_1 = (sum(c * (2 * lam_d[h.i - 1] + 2 * weight[h.i - 1])
                                      for h, c in combo.items()) for lam_d in lam)
                    assert at_0.denominator == 1 and at_1.denominator == 1, (gx, gy)
                    want = [int(at_0), int(at_1 - at_0)]
                    while want and not want[-1]:
                        want.pop()
                    coeff = ordering.scalar(form, table.encode(word))
                    assert type(coeff) is int or all(type(c) is int for c in coeff)
                    value = coeff if type(coeff) is int else eng._at[coeff]
                    poly = value if type(value) is tuple else (value,) if value else ()
                    assert all(type(c) is int for c in poly), (gx, gy, word)
                    assert poly == tuple(want), (gx, gy, word)
        # one Cartan-only bracket per positive root and its negative
        assert forms == len(raising) == n * (n + 1)


def test_engine_refuses_vectors_it_cannot_build_or_pair():
    sig = Signature(3, Fraction(5, 2), (0, 0))
    eng = engine_for(sig)
    low, high = eng.basis((0, 0, 1))[0], eng.basis((0, 1, 1))[0]
    with pytest.raises(ValueError, match="no terms given"):
        eng.from_words(sig, [])
    with pytest.raises(ValueError, match="different weight spaces"):
        eng.from_words(sig, [(low, 1), (high, 1)])
    # one engine serves every d of the label set, but a pairing does not
    other = Signature(3, Fraction(3), (0, 0))
    assert engine_for(other) is eng
    with pytest.raises(ValueError, match="different signatures"):
        eng.pair(eng.from_words(sig, [(low, 1)]), eng.from_words(other, [(low, 1)]))


def test_engine_entry_points_take_exact_input_only():
    # a float coefficient was read as its binary Fraction, and a float
    # offset was truncated: basis((0.5, 1.9, 1)) gave the basis at (0, 1, 1)
    sig = Signature(3, Fraction(5, 2), (0, 0))
    eng = engine_for(sig)
    word = eng.basis((0, 0, 1))[0]
    for bad in (0.5, "1/2", Decimal("0.5")):
        with pytest.raises(ValueError, match="ints or Fractions"):
            ModuleVector(sig, (0, 0, 1), {word: bad})
        with pytest.raises(ValueError, match="ints or Fractions"):
            eng.from_words(sig, [(word, 1), (word, bad)])
        with pytest.raises(ValueError, match="ints or Fractions"):
            eng.norm_polynomial([(word, bad)])
    # a bool coefficient counts as an int, as everywhere check_exact reads
    assert eng.from_words(sig, [(word, True)]) == eng.from_words(sig, [(word, 1)])
    assert ModuleVector(sig, (0, 0, 1), {word: True}).terms == {word: 1}
    lowering = Generator(KIND_ODD, 3, sign=-1)
    for offset in ((0.5, 1.9, 1), (0, 1.5, 1), (Fraction(0), 1, 1), (0, True, 1)):
        with pytest.raises(ValueError, match="entries must be ints"):
            eng.basis(offset)
        with pytest.raises(ValueError, match="entries must be ints"):
            eng.gram(sig, offset)
        with pytest.raises(ValueError, match="entries must be ints"):
            eng.action_matrix(sig, lowering, offset)
    assert eng.gram(sig, (0, 1, 1)).weight_offset == (0, 1, 1)
