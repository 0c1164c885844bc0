"""Signed-permutation Weyl group: words, actions, orbits."""

import itertools
import random

import pytest
from fractions import Fraction

from ospuir.characters import weight_from_labels
from ospuir.root_system import build_root_system, inner, pairing
from ospuir.weights import labels_of_weight
from ospuir.weyl import (
    apply,
    compose,
    dot_act,
    find_w_lambda,
    from_word,
    generate,
    identity,
    length_by_inversions,
    multiplet_orbit,
    multiplet_to_dot,
    simple_reflection,
    WeylElement,
)

# One reduced word per element of W(B_3), as listed in the source tables.
B3_WORDS = [
    (),
    (1,), (2,), (3,),
    (1, 2), (1, 3), (2, 1), (2, 3), (3, 2),
    (1, 2, 1), (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 2), (3, 2, 1), (3, 2, 3),
    (1, 2, 1, 3), (1, 2, 3, 2), (1, 3, 2, 1), (1, 3, 2, 3),
    (2, 3, 2, 1), (2, 1, 3, 2), (3, 2, 3, 1), (3, 2, 3, 2),
    (1, 2, 3, 2, 1), (1, 3, 2, 1, 3), (1, 2, 1, 3, 2), (1, 3, 2, 3, 2),
    (2, 1, 3, 2, 1), (2, 1, 3, 2, 3), (3, 2, 3, 1, 2), (3, 2, 3, 2, 1),
    (1, 3, 2, 3, 2, 1), (1, 3, 2, 1, 3, 2), (1, 2, 1, 3, 2, 1),
    (2, 1, 3, 2, 1, 3), (2, 1, 3, 2, 3, 2), (3, 2, 3, 1, 2, 1), (3, 2, 3, 1, 2, 3),
    (2, 1, 3, 2, 3, 2, 1), (2, 1, 3, 2, 3, 1, 2), (3, 2, 1, 2, 3, 2, 1),
    (3, 2, 3, 1, 2, 1, 3), (3, 2, 3, 1, 2, 3, 2),
    (2, 3, 2, 1, 2, 3, 2, 1), (3, 2, 1, 3, 2, 3, 2, 1), (3, 2, 1, 3, 2, 3, 1, 2),
    (2, 3, 2, 1, 3, 2, 3, 2, 1),
]


def _key(w):
    return (w.perm, w.signs)


def test_group_orders():
    # W(B_1) is the identity and the one simple reflection, the sign flip
    assert [(w.reduced_word, w.perm, w.signs) for w in generate(1)] == [
        ((), (0,), (1,)), ((1,), (0,), (-1,))]
    assert len(generate(2)) == 8
    assert len(generate(3)) == 48
    with pytest.raises(ValueError):
        generate(0)


def test_defining_relations():
    n = 3
    s = {k: simple_reflection(n, k) for k in (1, 2, 3)}
    e = identity(n)
    for k in (1, 2, 3):
        assert _key(compose(s[k], s[k])) == _key(e)
    braid12 = e
    for _ in range(3):
        braid12 = compose(braid12, compose(s[1], s[2]))
    assert _key(braid12) == _key(e)
    braid23 = e
    for _ in range(4):
        braid23 = compose(braid23, compose(s[2], s[3]))
    assert _key(braid23) == _key(e)
    assert _key(compose(s[1], s[3])) == _key(compose(s[3], s[1]))


def test_unique_longest_element():
    els = generate(3)
    longest = [w for w in els if w.length == 9]
    assert len(longest) == 1
    assert els[-1].length == 9
    counts = {}
    for w in els:
        counts[w.length] = counts.get(w.length, 0) + 1
    assert [counts.get(i, 0) for i in range(10)] == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


def test_listed_words_cover_group():
    els = generate(3)
    by_key = {_key(w): w for w in els}
    seen = set()
    for word in B3_WORDS:
        w = from_word(3, word)
        # each listed word is reduced
        assert w.length == len(word)
        k = _key(w)
        assert k in by_key
        assert k not in seen
        seen.add(k)
    assert len(seen) == 48
    # the final listed word is the longest element
    assert _key(from_word(3, B3_WORDS[-1])) == _key(els[-1])


def test_length_equals_inversion_count():
    for n in (2, 3):
        for w in generate(n):
            assert length_by_inversions(w) == w.length


def test_apply_preserves_inner_product():
    rng = random.Random(41)
    els = generate(3)
    for _ in range(25):
        w = rng.choice(els)
        u = tuple(Fraction(rng.randint(-5, 5), 2) for _ in range(3))
        v = tuple(Fraction(rng.randint(-5, 5), 2) for _ in range(3))
        assert inner(apply(w, u), apply(w, v)) == inner(u, v)


def test_inverse_and_compose():
    # s_{k_1} ... s_{k_r} has the inverse s_{k_r} ... s_{k_1}
    rng = random.Random(43)
    els = generate(3)
    e = identity(3)
    for _ in range(20):
        w = rng.choice(els)
        inverse = from_word(3, w.reduced_word[::-1])
        assert inverse.length == w.length
        assert _key(compose(w, inverse)) == _key(e)
        assert _key(compose(inverse, w)) == _key(e)


def test_index_and_rank_refusals():
    for k in (0, 4):
        with pytest.raises(ValueError, match=r"generator index must be in \[1, 3\]"):
            simple_reflection(3, k)
    with pytest.raises(ValueError, match="rank mismatch"):
        compose(identity(2), identity(3))
    # an index is an int, not a bool or a float: s_1 was made for True,
    # and 1.0 raised TypeError
    for k in (True, 1.0, Fraction(1), "1"):
        with pytest.raises(ValueError, match=r"generator index must be in \[1, 3\]"):
            simple_reflection(3, k)
        with pytest.raises(ValueError, match=r"generator index must be in \[1, 3\]"):
            from_word(3, [k, 2])
    # a weight must have the element's rank: a short one was padded with
    # zeros, and a long one raised IndexError
    for lam in ((1, 2), (1, 2, 3, 4)):
        for act in (apply, dot_act):
            with pytest.raises(ValueError, match="rank mismatch"):
                act(identity(3), lam)


def test_weyl_element_equality_ignores_length_and_word():
    # generate and the multiplet search look elements up by (perm, signs);
    # the length and reduced word they carry must not split one element
    bare = WeylElement((1, 0), (1, -1))
    full = WeylElement((1, 0), (1, -1), 3, (1, 2, 1))
    assert bare == full and not bare != full
    assert hash(bare) == hash(full)
    assert {full: "w"}[bare] == "w"
    assert len({bare, full, WeylElement((1, 0), (1, -1), 5, (2, 1, 2, 1, 2))}) == 1
    other = WeylElement((1, 0), (-1, 1), 3, (1, 2, 1))
    assert other != full and not other == full
    assert WeylElement((0, 1), (1, -1), 3, (1, 2, 1)) != full


def reflect(beta, lam):
    """The reflection lam - (lam, beta-vee) beta."""
    c = pairing(lam, beta)
    return tuple(Fraction(x) - c * Fraction(b) for x, b in zip(lam, beta))


def test_reflect_basics():
    rs = build_root_system(3)
    alpha1 = rs.simple[0].coords
    assert reflect(alpha1, rs.rho) == tuple(
        r - c for r, c in zip(rs.rho, alpha1)
    )
    lam = (Fraction(2), Fraction(-1), Fraction(3, 2))
    for beta in rs.positive_even + rs.positive_odd:
        assert reflect(beta.coords, reflect(beta.coords, lam)) == lam
    assert reflect((1, 0, 0), (1, 0, 0)) == (-1, 0, 0)
    # the simple reflections of W(B_3) are the reflections in the simple roots
    for k, alpha in enumerate(rs.simple, start=1):
        assert apply(simple_reflection(3, k), lam) == reflect(alpha.coords, lam)
    with pytest.raises(ValueError):
        reflect((0, 0, 0), lam)


def test_dot_action_on_labels():
    # s_3 . (1,0,1) = (1,1,-1), and s_1 sends (m1,m2,m3) to (-m1,m1+m2,m3)
    s3 = simple_reflection(3, 3)
    moved = dot_act(s3, weight_from_labels((1, 0, 1)))
    assert labels_of_weight(moved) == (1, 1, -1)
    s1 = simple_reflection(3, 1)
    rng = random.Random(47)
    for _ in range(20):
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        got = labels_of_weight(dot_act(s1, weight_from_labels(m)))
        assert got == (-m[0], m[0] + m[1], m[2])


def test_dot_action_is_a_homomorphism():
    rng = random.Random(53)
    els = generate(3)
    for _ in range(20):
        u, v = rng.choice(els), rng.choice(els)
        lam = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(3))
        assert dot_act(u, dot_act(v, lam)) == dot_act(compose(u, v), lam)


def test_find_w_lambda_cases():
    w, lam0 = find_w_lambda(weight_from_labels((1, 1, -1)))
    assert w.reduced_word == (3,)
    assert labels_of_weight(lam0) == (1, 0, 1)

    # labels (1, m2, 1-2m2) lie three reflections from the dominant chamber
    for m2 in (3, 4, 5):
        w, lam0 = find_w_lambda(weight_from_labels((1, m2, 1 - 2 * m2)))
        assert w.reduced_word == (3, 2, 1)
        assert w.length == 3

    for labels in ((1, 1, 1), (2, 3, 4)):
        lam = weight_from_labels(labels)
        w, lam0 = find_w_lambda(lam)
        assert w.reduced_word == ()
        assert lam0 == lam

    # lam = w . lam0 always holds
    rng = random.Random(59)
    for _ in range(20):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        lam = weight_from_labels(m)
        w, lam0 = find_w_lambda(lam)
        assert dot_act(w, lam0) == lam


def test_find_w_lambda_rejects_nonintegral():
    with pytest.raises(ValueError):
        find_w_lambda((Fraction(1, 3), Fraction(0), Fraction(0)))


def test_find_w_lambda_refuses_inexact_entries():
    # a float is refused as a float, even where its value is integral
    for lam in ((0.5, -1.0), (Fraction(3, 2), 1.0), (Fraction(1, 2), "1/2")):
        with pytest.raises(ValueError, match="entries must be ints or Fractions"):
            find_w_lambda(lam)


def test_multiplet_node_counts():
    main = multiplet_orbit(weight_from_labels((1, 1, 1)))
    assert len(main.nodes) == 48
    half1 = multiplet_orbit(weight_from_labels((1, 0, 1)))
    half2 = multiplet_orbit(weight_from_labels((1, 1, 0)))
    assert len(half1.nodes) == 24
    assert len(half2.nodes) == 24
    generic = multiplet_orbit(weight_from_labels((2, 3, 4)))
    assert len({n.weight for n in generic.nodes}) == 48


def test_multiplet_edges_raise_length_by_one():
    mult = multiplet_orbit(weight_from_labels((1, 0, 1)))
    assert mult.nodes[0].w.reduced_word == ()
    for (u, v, k) in mult.edges:
        s = simple_reflection(3, k)
        assert dot_act(s, mult.nodes[u].weight) == mult.nodes[v].weight
        assert mult.nodes[v].w.length == mult.nodes[u].w.length + 1


@pytest.mark.parametrize("n, top", [(2, 2), (3, 2), (4, 1)])
def test_multiplet_nodes_and_edges_match_find_w_lambda(n, top):
    # every node carries find_w_lambda's minimal w, and the edges are all
    # (u, v, k) with s_k . u = v and length going up by one.  Labels run
    # over {0..top}^n; at n = 4, {0, 1}^4 already meets every set of zero
    # labels (every stabiliser), and {0, 1, 2}^4 would take about a minute.
    gens = [simple_reflection(n, k) for k in range(1, n + 1)]
    for labels in itertools.product(range(top + 1), repeat=n):
        mult = multiplet_orbit(weight_from_labels(labels))
        for node in mult.nodes:
            w = find_w_lambda(node.weight)[0]
            assert (node.w.perm, node.w.signs) == (w.perm, w.signs), (labels, node)
            assert node.w.length == w.length, (labels, node)
            assert node.w.reduced_word == w.reduced_word, (labels, node)
        index = {node.weight: node.index for node in mult.nodes}
        expected = sorted(
            (u.index, index[dot_act(g, u.weight)], k)
            for u in mult.nodes
            for k, g in enumerate(gens, start=1)
            if mult.nodes[index[dot_act(g, u.weight)]].w.length == u.w.length + 1
        )
        assert list(mult.edges) == expected, labels


def test_multiplet_rejects_noncanonical_start():
    with pytest.raises(ValueError):
        multiplet_orbit(weight_from_labels((1, 1, -1)))


def test_dot_export_is_deterministic():
    lam0 = weight_from_labels((1, 0, 1))
    a = multiplet_to_dot(multiplet_orbit(lam0))
    b = multiplet_to_dot(multiplet_orbit(lam0))
    assert a == b
    assert a.splitlines()[0] == "digraph multiplet {"
    assert a.count("->") == 32
