"""Oscillator realization, normal ordering, and the contravariant form."""

import random

import pytest
from fractions import Fraction

from ospuir.characters import partition_count
from ospuir.enveloping.algebra import (
    CARTAN,
    Generator,
    KIND_CARTAN,
    KIND_MIX,
    KIND_ODD,
    KIND_SUM,
    LOWERING,
    RAISING,
    all_generators,
    omega,
    structure_constants,
)
from ospuir.linalg import add_scaled
from ospuir.root_system import delta_to_simple
from ospuir.enveloping.module import (
    VermaEngine,
    engine_for,
    gram_psd_check,
    level_offsets,
    module_vector_to_text,
    shapovalov_gram,
    word_name,
)
from ospuir.weights import Signature

SIG = Signature(3, Fraction(2), (0, 2))


def _vec_terms(v):
    return {w: c for w, c in v.terms.items() if c}


def test_structure_table_shape():
    tab = structure_constants(3)
    kinds = {}
    for g in tab.generators:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    assert kinds[KIND_ODD] == 6
    # even part sp(6): 3 cartan + 6 mix + 3 sum + 3 lowered sums + 3+3 doubles
    assert sum(v for k, v in kinds.items() if k != KIND_ODD) == 21
    assert len(tab.generators) == 27


def test_bracket_examples():
    tab = structure_constants(3)
    h1 = Generator(KIND_CARTAN, 1)
    a1p = Generator(KIND_ODD, 1, sign=1)
    a1m = Generator(KIND_ODD, 1, sign=-1)
    assert tab.brackets[(h1, a1p)] == {a1p: Fraction(2)}
    assert tab.brackets[(a1p, a1m)] == {h1: Fraction(1)}


def _jacobi_holds(tab, x, y, z):
    """Graded Leibniz form: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]."""
    lhs = {}
    for g, c in tab.brackets[(y, z)].items():
        add_scaled(lhs, tab.brackets[(x, g)], c)
    rhs = {}
    for g, c in tab.brackets[(x, y)].items():
        add_scaled(rhs, tab.brackets[(g, z)], c)
    sign = Fraction(-1 if (x.is_odd and y.is_odd) else 1)
    for g, c in tab.brackets[(x, z)].items():
        add_scaled(rhs, tab.brackets[(y, g)], c * sign)
    return lhs == rhs


@pytest.mark.parametrize("n", range(2, 9))
def test_graded_jacobi_identity(n):
    # exhaustive at low rank, seeded random sample above
    tab = structure_constants(n)
    gens = all_generators(n)
    if n <= 4:
        triples = [(x, y, z) for x in gens for y in gens for z in gens]
    else:
        rng = random.Random(20260818 + n)
        triples = [
            (rng.choice(gens), rng.choice(gens), rng.choice(gens))
            for _ in range(3000)
        ]
    bad = [t for t in triples if not _jacobi_holds(tab, *t)]
    assert not bad, f"Jacobi identity fails on {len(bad)} triples, e.g. {bad[0]}"


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_facts_match_reference(n):
    tab = structure_constants(n)
    by_weight = {g.delta_weight(n): g for g in tab.generators if g.kind != KIND_CARTAN}
    assert set(tab.facts) == set(tab.generators)
    raising = {}
    for g in tab.generators:
        delta = g.delta_weight(n)
        exp = tuple(int(x) for x in delta_to_simple(delta))
        key = (int(g.is_odd), sum(exp), delta)
        nonzero = [c for c in delta if c]
        cls = CARTAN if not nonzero else RAISING if nonzero[0] > 0 else LOWERING
        image = g if g.kind == KIND_CARTAN else by_weight[tuple(-c for c in delta)]
        facts = tab.facts[g]
        assert facts.weight_exp == exp, g
        assert facts.pbw_key == key, g
        assert facts.cls == cls, g
        assert facts.omega == image, g
        if cls == RAISING:
            raising[g] = key
    assert tab.raising == tuple(sorted(raising, key=raising.get))


@pytest.mark.parametrize("n", range(2, 9))
def test_omega_is_an_involution(n):
    for g in all_generators(n):
        assert omega(omega(g)) == g
    a2p = Generator(KIND_ODD, 2, sign=1)
    assert omega(a2p).sign == -1


def test_lowering_annihilates_vacuum():
    eng = engine_for(SIG)
    v0 = eng.vacuum()
    for i in (1, 2, 3):
        low = Generator(KIND_ODD, i, sign=-1)
        assert _vec_terms(eng.act(low, v0)) == {}


def test_cartan_eigenvalues_on_vacuum():
    eng = engine_for(SIG)
    v0 = eng.vacuum()
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
    out = eng.act(Generator(KIND_ODD, 1, sign=1), eng.vacuum())
    assert len(out.terms) == 1
    ((word, coeff),) = out.terms.items()
    assert coeff == 1
    assert word_name(word) == "X[d1]"
    assert out.offset == (1, 1, 1)


def test_sum_generator_weight_additivity():
    eng = engine_for(SIG)
    out = eng.act(Generator(KIND_SUM, 1, 2), eng.vacuum())
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


def test_gram_examples():
    eng = engine_for(SIG)
    assert eng.gram((0, 0, 0)).entries == ((Fraction(1),),)
    val = eng.gram((0, 0, 1)).entries[0][0]
    assert val == 2 * SIG.d + 0 + 2


def test_gram_symmetry_and_block_orthogonality():
    eng = engine_for(SIG)
    for off in ((0, 1, 1), (1, 2, 2), (0, 1, 2)):
        g = eng.gram(off)
        m = g.entries
        size = len(m)
        assert all(len(row) == size for row in m)
        assert all(m[i][j] == m[j][i] for i in range(size) for j in range(size))
    # vectors in different weight spaces pair to zero
    u = eng.from_words([(eng.basis((0, 1, 1))[0], Fraction(1))])
    w = eng.from_words([(eng.basis((0, 0, 1))[0], Fraction(2))])
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
        base = eng.act(g, eng.vacuum())
        if not base.terms:
            continue
        target = base.offset
        src_words = eng.basis((0, 1, 1))
        dst_words = eng.basis(
            tuple(t + s for t, s in zip(target, (0, 1, 1)))
        )
        for _ in range(5):
            u = eng.from_words(
                [(w, Fraction(rng.randint(-3, 3))) for w in src_words]
            )
            v = eng.from_words(
                [(w, Fraction(rng.randint(-3, 3))) for w in dst_words]
            )
            assert eng.pair(eng.act(g, u), v) == eng.pair(u, eng.act(omega(g), v))


def test_normal_ordering_matches_brackets():
    # g h - (-1)^{|g||h|} h g acts as the tabulated super-bracket
    rng = random.Random(73)
    tab = structure_constants(3)
    eng = engine_for(SIG)
    pairs = [k for k in tab.brackets if rng.random() < 0.08]
    offsets = level_offsets(3, 1) + level_offsets(3, 2)
    for g, h in pairs[:30]:
        off = rng.choice(offsets)
        words = eng.basis(off)
        u = eng.from_words([(w, Fraction(rng.randint(-2, 2))) for w in words])
        sign = -1 if (g.kind == KIND_ODD and h.kind == KIND_ODD) else 1
        lhs = eng.act(g, eng.act(h, u)).plus(
            eng.act(h, eng.act(g, u)).scaled(Fraction(-sign))
        )
        rhs_terms = {}
        for c, coeff in tab.brackets[(g, h)].items():
            out = eng.act(c, u).scaled(coeff)
            for w, x in out.terms.items():
                rhs_terms[w] = rhs_terms.get(w, Fraction(0)) + x
        assert _vec_terms(lhs) == {w: c for w, c in rhs_terms.items() if c}


def test_engine_memoization_and_gram_csv():
    assert engine_for(SIG) is engine_for(SIG)
    g = shapovalov_gram(SIG, (0, 0, 1))
    csv_text = g.to_csv()
    assert csv_text.splitlines()[0] == "monomial,X[d3]"
    assert csv_text.splitlines()[1] == "X[d3],6"
    u = engine_for(SIG).from_words([(engine_for(SIG).basis((0, 1, 1))[0], Fraction(1))])
    assert module_vector_to_text(u) == "(1)*X[d2]"


def test_level_offsets_enumeration():
    assert level_offsets(3, 1) == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert level_offsets(3, 2) == [
        (0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2), (2, 2, 2),
    ]


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
