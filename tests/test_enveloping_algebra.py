"""Oscillator realization, normal ordering, and the contravariant form."""

import hashlib
import itertools
import pathlib
import random
from typing import NamedTuple, Tuple

import pytest
from fractions import Fraction

from ospuir.characters import partition_count
from ospuir.enveloping.algebra import (
    CARTAN,
    Generator,
    KIND_CARTAN,
    KIND_DOUBLE,
    KIND_MIX,
    KIND_ODD,
    KIND_SUM,
    LOWERING,
    RAISING,
    _named,
    all_generators,
    omega,
    structure_constants,
)
from ospuir.enveloping import algebra
from ospuir.root_system import delta_to_simple
from ospuir.enveloping import module
from ospuir.enveloping.module import (
    engine_for,
    gram_psd_check,
    level_offsets,
    module_vector_to_text,
    noncompact_words,
    weight_space_words,
    word_name,
)
from ospuir.weights import Signature

from test_root_system import _module_state, cached_memo

SIG = Signature(3, Fraction(2), (0, 2))
GOLDEN = pathlib.Path(__file__).parent / "golden"
TABLE_DIGESTS = GOLDEN / "structure_tables_sha256.txt"
BASIS_DIGESTS = GOLDEN / "weight_space_words_sha256.txt"


def add_scaled(acc, terms, coeff):
    """acc += coeff * terms for sparse vectors (dicts of Fractions), in
    place; keys whose coefficient cancels to zero are dropped."""
    if not coeff:
        return
    for k, c in terms.items():
        v = acc.get(k, Fraction(0)) + c * coeff
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]


def _trilinear(pair, k, e):
    """[{a_p, a_q}, a_k^e] as a combination of odd raw generators (i, s):
    (e - s) d_ik a_j^t + (e - t) d_jk a_i^s for pair ((i, s), (j, t))."""
    (i, s), (j, t) = pair
    out = {}
    if i == k:
        add_scaled(out, {(j, t): 1}, e - s)
    if j == k:
        add_scaled(out, {(i, s): 1}, e - t)
    return out


def pair_to_combo(p, q):
    """Expand the raw anticommutator {a_p, a_q} in the scaled basis, as
    {Generator: Fraction}."""
    g = _named((p, q))
    return {g: 1 / g.factors()[0]}


def reference_bracket(x, y):
    """Super-bracket [x, y] of two generators, as {Generator: Fraction},
    by recursion on Generator.factors and the trilinear relations: the
    reference the int-coded table of structure_constants is checked
    against, term for term and in the same order."""
    if x.is_odd and y.is_odd:
        return pair_to_combo((x.i, x.sign), (y.i, y.sign))
    if x.is_odd:
        return {g: -c for g, c in reference_bracket(y, x).items()}
    cx, pair = x.factors()
    out = {}
    if y.is_odd:
        for (idx, sgn), c in _trilinear(pair, y.i, y.sign).items():
            add_scaled(out, {Generator(KIND_ODD, idx, sign=sgn): Fraction(1)}, c * cx)
        return out
    # both even: [x, {a_c, a_d}] = {[x, a_c], a_d} + {a_c, [x, a_d]}
    cy, (pc, pd) = y.factors()
    for first, second in ((pc, pd), (pd, pc)):
        br = reference_bracket(x, Generator(KIND_ODD, first[0], sign=first[1]))
        for g, c in br.items():
            add_scaled(out, pair_to_combo((g.i, g.sign), second), c * cy)
    return out


def _vec_terms(v):
    return {w: c for w, c in v.terms.items() if c}


def _vacuum(eng):
    """The lowest-weight vector v0 of SIG, the empty PBW word."""
    return eng.from_words(SIG, [((), Fraction(1))])


def test_structure_table_shape():
    tab = structure_constants(3)
    kinds = {}
    for g in tab.generators:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    assert kinds[KIND_ODD] == 6
    # even part sp(6): 3 cartan + 6 mix + 3 sum + 3 lowered sums + 3+3 doubles
    assert sum(v for k, v in kinds.items() if k != KIND_ODD) == 21
    assert len(tab.generators) == 27


@pytest.mark.parametrize("kind, i, j, sign", [
    ("even", 1, 0, 1),                                    # unknown kind
    (KIND_ODD, 1, 2, 1), (KIND_DOUBLE, 1, 2, -1),         # j != 0
    (KIND_SUM, 2, 2, 1), (KIND_SUM, 3, 1, -1),            # i >= j
    (KIND_MIX, 2, 2, 1), (KIND_MIX, 1, 2, -1),            # i == j, sign -1
    (KIND_CARTAN, 1, 2, 1), (KIND_CARTAN, 1, 0, -1),      # j != 0, sign -1
    (KIND_ODD, 1, 0, 0), (KIND_SUM, 1, 2, 2),             # sign not +-1
    (KIND_ODD, 0, 0, 1), (KIND_SUM, -1, 2, 1),            # an index below 1
    (KIND_ODD, 1.5, 0, 1), (KIND_ODD, True, 0, 1),        # an index not an int
    (KIND_ODD, 1, 0, True), (KIND_ODD, 1, 0, -1.0),       # a sign not an int
    (KIND_MIX, 1, 2, 1.0),
])
def test_generator_is_the_one_its_factors_name(kind, i, j, sign):
    with pytest.raises(ValueError):
        Generator(kind, i, j, sign)


def test_basis_count_mismatch_is_a_failed_check(monkeypatch):
    # a wrong basis count is an internal fault, an AssertionError like the
    # library's other failed checks; __wrapped__ skips the per-rank cache
    monkeypatch.setattr(algebra, "all_generators", lambda n: all_generators(n)[1:])
    with pytest.raises(AssertionError, match="expected 14 basis elements, got 13"):
        structure_constants.__wrapped__(2)


def test_bracket_examples():
    tab = structure_constants(3)
    h1 = Generator(KIND_CARTAN, 1)
    a1p = Generator(KIND_ODD, 1, sign=1)
    a1m = Generator(KIND_ODD, 1, sign=-1)
    assert reference_bracket(h1, a1p) == {a1p: Fraction(2)}
    assert reference_bracket(a1p, a1m) == {h1: Fraction(1)}
    assert tab.brackets[tab.code[h1]][tab.code[a1p]] == ((tab.code[a1p], Fraction(2)),)


def _jacobi_holds(tab, x, y, z):
    """Graded Leibniz form: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]],
    on the stored table entries, with x, y, z generator codes."""
    br = tab.brackets
    lhs = {}
    for g, c in br[y][z]:
        add_scaled(lhs, dict(br[x][g]), c)
    rhs = {}
    for g, c in br[x][y]:
        add_scaled(rhs, dict(br[g][z]), c)
    sign = Fraction(-1 if (tab.odd[x] and tab.odd[y]) else 1)
    for g, c in br[x][z]:
        add_scaled(rhs, dict(br[y][g]), c * sign)
    return lhs == rhs


@pytest.mark.parametrize("n", range(2, 9))
def test_graded_jacobi_identity(n):
    # exhaustive at low rank, seeded random sample above
    tab = structure_constants(n)
    gens = range(len(tab.generators))
    if n <= 4:
        triples = [(x, y, z) for x in gens for y in gens for z in gens]
    else:
        rng = random.Random(20260818 + n)
        triples = [
            (rng.choice(gens), rng.choice(gens), rng.choice(gens))
            for _ in range(3000)
        ]
    bad = [tab.decode(t) for t in triples if not _jacobi_holds(tab, *t)]
    assert not bad, f"Jacobi identity fails on {len(bad)} triples, e.g. {bad[0]}"


def structure_table_digest(n):
    """sha256 of the repr of every StructureTable field at rank n (bracket
    terms in stored order, `code` listed in code order), followed by each
    generator's name(), delta_weight(n) and omega image."""
    tab = structure_constants(n)
    h = hashlib.sha256()
    for name in tab._fields:
        value = getattr(tab, name)
        if name == "code":
            value = sorted(value.items(), key=lambda item: item[1])
        h.update(f"{name}={value!r}\n".encode())
    for g in tab.generators:
        h.update(f"{g!r} {g.name()} {g.delta_weight(n)!r} {omega(g)!r}\n".encode())
    return h.hexdigest()


def test_structure_tables_match_pinned_digests():
    # captured before the generator facts were derived from Generator.factors
    pinned = dict(line.split() for line in TABLE_DIGESTS.read_text().splitlines())
    assert sorted(pinned) == [str(n) for n in range(2, 9)]
    for n in range(2, 9):
        assert structure_table_digest(n) == pinned[str(n)], n


class ReferenceFacts(NamedTuple):
    """Fixed data about one basis element at a given rank."""

    weight_exp: Tuple[int, ...]   # weight in the simple-root basis
    pbw_key: tuple                # (odd, root height, delta weight)
    cls: str                      # RAISING, LOWERING or CARTAN
    omega: Generator              # image under the anti-involution


def reference_facts(n):
    """ReferenceFacts of every rank-n generator, derived from scratch from
    Generator.delta_weight and delta_to_simple."""
    gens = all_generators(n)
    by_weight = {g.delta_weight(n): g for g in gens if g.kind != KIND_CARTAN}
    out = {}
    for g in gens:
        delta = g.delta_weight(n)
        exp = tuple(int(x) for x in delta_to_simple(delta))
        key = (int(g.is_odd), sum(exp), delta)
        nonzero = [c for c in delta if c]
        cls = CARTAN if not nonzero else RAISING if nonzero[0] > 0 else LOWERING
        image = g if g.kind == KIND_CARTAN else by_weight[tuple(-c for c in delta)]
        out[g] = ReferenceFacts(exp, key, cls, image)
    return out


@pytest.mark.parametrize("n", range(2, 9))
def test_int_table_matches_generators(n):
    tab = structure_constants(n)
    gens = tab.generators
    assert gens == tuple(all_generators(n))
    assert [tab.code[g] for g in gens] == list(range(len(gens)))
    assert tab.decode(tab.encode(gens)) == gens
    for x, g in enumerate(gens):
        for y, h in enumerate(gens):
            expected = tuple((tab.code[k], c) for k, c in reference_bracket(g, h).items())
            assert tab.brackets[x][y] == expected, (g, h)
    raising = {}
    for x, (g, ref) in enumerate(reference_facts(n).items()):
        assert gens[x] == g
        assert tab.cls[x] == ref.cls, g
        assert tab.pbw_key[x] == ref.pbw_key, g
        assert tab.weight_exp[x] == ref.weight_exp, g
        assert tab.odd[x] == g.is_odd, g
        assert gens[tab.omega[x]] == ref.omega, g
        assert tab.omega[tab.omega[x]] == x, g
        if g.is_odd and ref.cls == RAISING:
            assert gens[tab.square[x]] == Generator(KIND_DOUBLE, g.i, sign=1), g
        else:
            assert tab.square[x] == -1, g
        if ref.cls == RAISING:
            raising[g] = ref.pbw_key
    assert tab.raising == tuple(sorted(raising, key=raising.get))


@pytest.mark.parametrize("n", range(2, 9))
def test_omega_is_an_involution(n):
    for g in all_generators(n):
        assert omega(omega(g)) == g
    a2p = Generator(KIND_ODD, 2, sign=1)
    assert omega(a2p).sign == -1


def test_lowering_annihilates_vacuum():
    eng = engine_for(SIG)
    v0 = _vacuum(eng)
    for i in (1, 2, 3):
        low = Generator(KIND_ODD, i, sign=-1)
        assert _vec_terms(eng.act(low, v0)) == {}


def test_cartan_eigenvalues_on_vacuum():
    eng = engine_for(SIG)
    v0 = _vacuum(eng)
    lam = (
        SIG.d + Fraction(-2, 2),
        SIG.d + Fraction(-2, 2),
        SIG.d + Fraction(2, 2),
    )
    for i in (1, 2, 3):
        out = eng.act(Generator(KIND_CARTAN, i), v0)
        assert _vec_terms(out) == {(): 2 * lam[i - 1]}


def test_raising_creates_pbw_monomial():
    eng = engine_for(SIG)
    out = eng.act(Generator(KIND_ODD, 1, sign=1), _vacuum(eng))
    assert len(out.terms) == 1
    ((word, coeff),) = out.terms.items()
    assert coeff == 1
    assert word_name(word) == "X[d1]"
    assert out.offset == (1, 1, 1)


def test_sum_generator_weight_additivity():
    eng = engine_for(SIG)
    out = eng.act(Generator(KIND_SUM, 1, 2), _vacuum(eng))
    # delta_1 + delta_2 in the simple-root basis
    assert out.offset == (1, 2, 2)


def test_weight_space_dimensions_match_partition_count():
    eng = engine_for(SIG)
    assert eng.basis((0, 0, 0)) == ((),)
    names = [word_name(w) for w in eng.basis((0, 1, 1))]
    assert names == ["X[d2]", "X[d2-d3]*X[d3]"]
    for level in (1, 2, 3):
        for off in level_offsets(3, level):
            assert len(eng.basis(off)) == partition_count(3, off), off


@pytest.mark.parametrize("n", range(2, 6))
def test_partition_count_sizes_every_dominant_block(n):
    # the gram size guard counts block dimensions with partition_count
    for level in range(4 if n < 5 else 3):
        for off in level_offsets(n, level):
            assert len(weight_space_words(n, off)) == partition_count(n, off), off


def test_weight_space_words_leaves_no_growing_state(monkeypatch):
    # the shared tails serve one rank at a time: after each round of calls
    # at ranks 2..5, with new offsets every round, the memo holds exactly
    # what the round's rank-5 calls leave on their own, and no other
    # module-level state grows; the same holds for the noncompact words'
    # own memo
    for words, run in ((weight_space_words, 0), (noncompact_words, 1)):
        rng = random.Random(20261019)
        states = []
        for _ in range(3):
            calls = {n: [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(5)]
                     for n in range(2, 6)}
            bases = [words(n, off) for n, offs in calls.items() for off in offs]
            states.append(_module_state(module))
            assert module._alphabets.cache_info().currsize == 1
            memo = cached_memo(module._alphabets, 5)[run][1]
            module._alphabets.cache_clear()
            assert [words(5, off) for off in calls[5]] == bases[-5:]
            assert len(memo) == len(cached_memo(module._alphabets, 5)[run][1])
        assert states[0] == states[1] == states[2], words
        # a memo above the limit is emptied by the call that overfilled it
        module._alphabets.cache_clear()
        basis = words(5, (1, 2, 2, 2, 2))
        assert len(cached_memo(module._alphabets, 5)[run][1]) > 10
        module._alphabets.cache_clear()
        monkeypatch.setattr(module, "_TAIL_MEMO_LIMIT", 10)
        assert words(5, (1, 2, 2, 2, 2)) == basis
        assert cached_memo(module._alphabets, 5)[run][1] == {}
        assert len(words(5, (0, 0, 0, 0, 1))) == 1
        monkeypatch.undo()


def test_one_large_call_leaves_no_oversize_memo():
    # each call that overfills its memo empties it, so after one large
    # call the memo holds at most its limit (a limit checked only before a
    # call would leave 298,461 and 21,074 entries behind)
    for size, expected, memo, limit in (
        (lambda: len(weight_space_words(8, (2,) * 8)), 9500,
         lambda: cached_memo(module._alphabets, 8)[0][1], module._TAIL_MEMO_LIMIT),
        (lambda: len(noncompact_words(8, (2, 3, 4, 5, 6, 7, 8, 14))), 3838,
         lambda: cached_memo(module._alphabets, 8)[1][1], module._TAIL_MEMO_LIMIT),
    ):
        assert size() == expected
        held = memo()
        assert isinstance(held, dict) and len(held) <= limit
    # partition_count keeps no memo; its count over this box is pinned
    assert partition_count(8, (3,) * 8) == 341502


def test_noncompact_words_filter_the_whole_basis():
    # the direct enumeration lists exactly the basis words with no compact
    # (mix) letter, in the basis order: every dominant offset to level 4 at
    # ranks 2..4, level 3 at rank 5 and level 2 at ranks 6..8, and seeded
    # offsets off the dominant sector
    rng = random.Random(20261020)
    for n, top in ((2, 4), (3, 4), (4, 4), (5, 3), (6, 2), (7, 2), (8, 2)):
        offsets = [off for level in range(top + 1) for off in level_offsets(n, level)]
        offsets += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(10)]
        for off in offsets:
            assert noncompact_words(n, off) == tuple(
                w for w in weight_space_words(n, off)
                if all(g.kind != KIND_MIX for g in w)), (n, off)
    # a negative delta coordinate (simple coordinates that decrease) has no
    # noncompact word, though the whole basis there is not empty
    for off in ((2, 1, 1), (1, 0, 1), (0, 1, 0), (1, 2, 1)):
        assert weight_space_words(3, off) and noncompact_words(3, off) == (), off
    assert noncompact_words(5, (1, 2, 2, 1, 3)) == ()
    # both listings refuse an offset as partition_count does, a bool or a
    # float entry included
    for bad in ((1, 1), (0, -1, 1), (True, 1, 1), (1.0, 1, 1)):
        for listing in (weight_space_words, noncompact_words):
            with pytest.raises(ValueError):
                listing(3, bad)


def _brute_force_words(n, offset, noncompact=False):
    """The PBW words at a simple-basis offset, found without the module's
    recursion: every multiplicity vector over the raising generators (no
    mix generator when noncompact) whose weight is offset, an odd generator
    at most once, sorted lexicographically and spelt in PBW order.  The
    generators are tried from the last to the first, so the simple compact
    ones, unit vectors in simple coordinates, come last and close every
    remainder whose last coordinate is 0."""
    gens = [g for g in structure_constants(n).raising
            if not (noncompact and g.kind == KIND_MIX)]
    weights = [tuple(int(c) for c in delta_to_simple(g.delta_weight(n))) for g in gens]
    found = []

    def extend(k, rem, mults):   # the generators before k are left
        if k == 0:
            if not any(rem):
                found.append(tuple(reversed(mults)))
            return
        k -= 1
        top = min(r // c for r, c in zip(rem, weights[k]) if c)
        for m in range((min(top, 1) if gens[k].is_odd else top) + 1):
            extend(k, tuple(r - m * c for r, c in zip(rem, weights[k])), mults + [m])

    extend(len(gens), tuple(offset), [])
    return tuple(tuple(g for g, m in zip(gens, mults) for _ in range(m))
                 for mults in sorted(found))


def test_listings_match_a_brute_force_enumeration():
    # both listings, whole basis and noncompact words, on every dominant
    # offset to level 4 at ranks 2..4 and level 3 at rank 5, and on seeded
    # offsets outside the dominant sector (simple coordinates that decrease)
    rng = random.Random(20261021)
    for n, top in ((2, 4), (3, 4), (4, 4), (5, 3)):
        offsets = [off for level in range(top + 1) for off in level_offsets(n, level)]
        outside = []
        while len(outside) < 8:
            off = tuple(rng.randint(0, 3) for _ in range(n))
            if any(a > b for a, b in zip(off, off[1:])):
                outside.append(off)
        for off in offsets + outside:
            assert weight_space_words(n, off) == _brute_force_words(n, off), (n, off)
            assert noncompact_words(n, off) == _brute_force_words(n, off, True), (n, off)


@pytest.mark.parametrize("n", range(2, 9))
def test_each_run_tables_every_subset_of_its_odd_letters(n):
    # a run recurses over its even letters and reads what is left from a
    # table with one entry per subset of the n odd letters: its weight (in
    # the run's coordinates) to the word it forms, listed as the recursion
    # over the odd letters met them, multiplicity 0 before 1
    odd = [g for g in structure_constants(n).raising if g.is_odd]
    module._alphabets.cache_clear()
    for run, coords in enumerate((delta_to_simple, tuple)):
        letters, memo, table = module._alphabets(n)[run]
        assert memo == {} and not any(g.is_odd for g, _e in letters)
        assert len(table) == 2 ** n
        expected = {}
        for mults in itertools.product((0, 1), repeat=n):
            word = tuple(g for g, m in zip(odd, mults) if m)
            weight = [sum(g.delta_weight(n)[k] for g in word) for k in range(n)]
            expected[tuple(int(c) for c in coords(weight))] = word
        assert list(table.items()) == list(expected.items())


def test_a_run_that_cannot_table_its_odd_tail_is_refused():
    even = (Generator(KIND_DOUBLE, 1, sign=1), (2, 0))
    odd1, odd2 = Generator(KIND_ODD, 1, sign=1), Generator(KIND_ODD, 2, sign=1)
    assert module._run(2, (even, (odd1, (1, 0)), (odd2, (0, 1))))[2] == {
        (0, 0): (), (0, 1): (odd2,), (1, 0): (odd1,), (1, 1): (odd1, odd2)}
    # an even letter after an odd one
    with pytest.raises(AssertionError, match="even letter follows an odd one"):
        module._run(2, ((odd1, (1, 0)), even, (odd2, (0, 1))))
    # two subsets, {odd1, odd2} and {odd3}, of one weight
    odd3 = Generator(KIND_ODD, 3, sign=1)
    with pytest.raises(AssertionError, match="share a weight"):
        module._run(2, (even, (odd1, (1, 0)), (odd2, (0, 1)), (odd3, (1, 1))))


def test_weight_space_words_match_pinned_digests():
    # captured before the bases were built from shared tails: one line per
    # (n, offset) with the dimension and the sha256 of the word names, one
    # word a line, for every dominant offset to level 4 (level 3 at n = 5)
    # and the other offsets that verify --all visits
    pinned = {}
    for line in BASIS_DIGESTS.read_text().splitlines():
        n, offset, dim, digest = line.split()
        pinned[int(n), tuple(int(x) for x in offset.split(","))] = int(dim), digest
    dominant = {(n, off) for n in range(2, 6) for level in range(4 if n == 5 else 5)
                for off in level_offsets(n, level)}
    assert dominant < set(pinned)
    assert {n for n, off in set(pinned) - dominant} == {3}
    for (n, off), (dim, digest) in pinned.items():
        basis = weight_space_words(n, off)
        text = "\n".join(word_name(w) for w in basis)
        assert (len(basis), hashlib.sha256(text.encode()).hexdigest()) == (dim, digest), (n, off)


def test_gram_examples():
    eng = engine_for(SIG)
    assert eng.gram(SIG, (0, 0, 0)).entries == ((Fraction(1),),)
    val = eng.gram(SIG, (0, 0, 1)).entries[0][0]
    assert val == 2 * SIG.d + 0 + 2


def test_gram_symmetry_and_block_orthogonality():
    eng = engine_for(SIG)
    for off in ((0, 1, 1), (1, 2, 2), (0, 1, 2)):
        g = eng.gram(SIG, off)
        m = g.entries
        size = len(m)
        assert all(len(row) == size for row in m)
        assert all(m[i][j] == m[j][i] for i in range(size) for j in range(size))
    # vectors in different weight spaces pair to zero
    u = eng.from_words(SIG, [(eng.basis((0, 1, 1))[0], Fraction(1))])
    w = eng.from_words(SIG, [(eng.basis((0, 0, 1))[0], Fraction(2))])
    assert eng.pair(u, w) == 0


def test_adjointness_of_omega():
    rng = random.Random(71)
    eng = engine_for(SIG)
    raises = [
        Generator(KIND_ODD, 1, sign=1),
        Generator(KIND_ODD, 3, sign=1),
        Generator(KIND_SUM, 2, 3),
        Generator(KIND_MIX, 1, 2),
    ]
    for g in raises:
        base = eng.act(g, _vacuum(eng))
        if not base.terms:
            continue
        target = base.offset
        src_words = eng.basis((0, 1, 1))
        dst_words = eng.basis(
            tuple(t + s for t, s in zip(target, (0, 1, 1)))
        )
        for _ in range(5):
            u = eng.from_words(
                SIG, [(w, Fraction(rng.randint(-3, 3))) for w in src_words]
            )
            v = eng.from_words(
                SIG, [(w, Fraction(rng.randint(-3, 3))) for w in dst_words]
            )
            assert eng.pair(eng.act(g, u), v) == eng.pair(u, eng.act(omega(g), v))


def test_normal_ordering_matches_brackets():
    # g h - (-1)^{|g||h|} h g acts as the tabulated super-bracket
    rng = random.Random(73)
    tab = structure_constants(3)
    eng = engine_for(SIG)
    pairs = [
        (g, h) for g in tab.generators for h in tab.generators if rng.random() < 0.08
    ]
    offsets = level_offsets(3, 1) + level_offsets(3, 2)
    for g, h in pairs[:30]:
        off = rng.choice(offsets)
        words = eng.basis(off)
        u = eng.from_words(SIG, [(w, Fraction(rng.randint(-2, 2))) for w in words])
        sign = -1 if (g.kind == KIND_ODD and h.kind == KIND_ODD) else 1
        gh, hg = eng.act(g, eng.act(h, u)), eng.act(h, eng.act(g, u))
        assert gh.is_zero or hg.is_zero or gh.offset == hg.offset
        lhs = dict(gh.terms)
        add_scaled(lhs, hg.terms, -sign)
        rhs = {}
        for c, coeff in reference_bracket(g, h).items():
            add_scaled(rhs, eng.act(c, u).terms, coeff)
        assert lhs == rhs


def test_engine_memoization_gram_and_vector_text():
    assert engine_for(SIG) is engine_for(SIG)
    g = engine_for(SIG).gram(SIG, (0, 0, 1))
    assert [word_name(w) for w in g.basis] == ["X[d3]"]
    assert g.entries == ((6,),)
    u = engine_for(SIG).from_words(SIG, [(engine_for(SIG).basis((0, 1, 1))[0], Fraction(1))])
    assert module_vector_to_text(u) == "(1)*X[d2]"


def test_level_offsets_enumeration():
    assert level_offsets(3, 1) == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert level_offsets(3, 2) == [
        (0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2),
    ]
    # every n-tuple of delta coordinates with the level as its sum, sorted,
    # then written as prefix sums: the same offsets in the same order
    for n in range(1, 9):
        for level in range(6):
            deltas = sorted(
                x for x in itertools.product(range(level + 1), repeat=n) if sum(x) == level
            )
            expected = [tuple(itertools.accumulate(x)) for x in deltas]
            assert level_offsets(n, level) == expected, (n, level)
    # a level that is not a nonnegative int (a bool is not one) is refused
    for bad in (True, -1, 1.0):
        with pytest.raises(ValueError, match=f"level must be a nonnegative integer, got {bad!r}$"):
            level_offsets(3, bad)


def test_psd_check_cases():
    r = gram_psd_check(Signature(3, Fraction(0), (0, 0)), max_level=2)
    assert r.psd and r.witness is None

    r = gram_psd_check(Signature(3, Fraction(1, 4), (0, 0)), max_level=2)
    assert not r.psd
    assert r.witness_norm < 0

    r = gram_psd_check(Signature(3, Fraction(3, 4), (0, 0)), max_level=3)
    assert not r.psd
    assert r.witness_offset == (1, 2, 3)
    assert r.witness_norm == Fraction(-7, 3)
    assert r.levels_checked == (1, 2, 3)
    # the reported witness really has negative norm
    eng = engine_for(Signature(3, Fraction(3, 4), (0, 0)))
    assert eng.norm(r.witness) == r.witness_norm


@pytest.mark.parametrize("max_level", [0, -2])
def test_psd_check_rejects_an_empty_scan(max_level):
    with pytest.raises(ValueError, match="max_level"):
        gram_psd_check(Signature(3, Fraction(1, 4), (0, 0)), max_level=max_level)


def test_psd_check_above_first_reduction_point():
    r = gram_psd_check(Signature(3, Fraction(5), (0, 0)), max_level=2)
    assert r.psd
