"""The int-coded Verma engine against a Generator-keyed reference recursion.

ReferenceEngine is the normal-ordering and pairing recursion over words of
Generator objects that the engine ran before generators were coded as ints.
It takes its brackets straight from algebra._bracket and its facts from
Generator.delta_weight, so it shares no table with the engine under test.
"""

import random
from fractions import Fraction

import pytest

from ospuir.enveloping.algebra import (
    Generator,
    KIND_DOUBLE,
    KIND_ODD,
    LOWERING,
    RAISING,
    _bracket,
    all_generators,
    omega,
)
from ospuir.enveloping.module import (
    ModuleVector,
    VermaEngine,
    level_offsets,
    weight_space_words,
)
from ospuir.linalg import add_scaled
from ospuir.weights import Signature, lowest_weight

from test_enveloping_algebra import reference_facts


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
            self.brackets[(x, y)] = _bracket(x, y)
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
    eng = VermaEngine(sig)
    ref = ReferenceEngine(sig)
    for level in range(1, max_level + 1):
        for offset in level_offsets(sig.n, level):
            assert eng.gram(offset).entries == ref.gram(sig.n, offset), (sig, offset)


@pytest.mark.parametrize("a", [(0, 0), (1, 2)])
@pytest.mark.parametrize("d", [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(2)])
def test_rank3_grams_match_reference(a, d):
    _assert_grams_match(Signature(3, d, a), max_level=3)


def test_rank4_grams_match_reference():
    rng = random.Random(20261018)
    a = tuple(rng.randint(0, 2) for _ in range(3))
    sig = Signature(4, Fraction(rng.randint(0, 16), 4), a)
    _assert_grams_match(sig, max_level=2)


@pytest.mark.parametrize("n", [3, 4])
def test_act_matches_reference(n):
    rng = random.Random(20261019 + n)
    a = tuple(rng.randint(0, 2) for _ in range(n - 1))
    sig = Signature(n, Fraction(rng.randint(0, 16), 4), a)
    eng = VermaEngine(sig)
    ref = ReferenceEngine(sig)
    offsets = [off for level in (0, 1, 2, 3) for off in level_offsets(n, level)]
    words = [rng.choice(weight_space_words(n, off)) for off in rng.sample(offsets, 8)]
    for g in all_generators(n):
        for word in words:
            offset = tuple(sum(ref.facts[h].weight_exp[k] for h in word) for k in range(n))
            out = eng.act(g, ModuleVector(sig, offset, {word: Fraction(1)}))
            expected = ref.act_word_terms(g, word)
            assert out.terms == expected, (g, word)
            if expected:
                assert out.offset == tuple(
                    a + b for a, b in zip(offset, ref.facts[g].weight_exp)
                ), (g, word)
