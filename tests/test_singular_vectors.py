"""Singular vector catalog, kernel solving, and norm polynomials."""

import random
from decimal import Decimal
from itertools import product

import pytest
from fractions import Fraction

from ospuir.enveloping import singular
from ospuir.enveloping.module import ModuleVector, engine_for, word_name
from ospuir.enveloping.singular import (
    AnomalyError,
    CATALOG,
    PRINTED_IDS,
    find_singular,
    is_subsingular,
    norm_polynomial_in_d,
    printed_regime,
    printed_vector,
    rational_zero_set,
    simple_lowering,
    singular_space,
    submodule_component,
    verify_singular,
    verify_subsingular,
)
from ospuir.linalg import nullspace
from ospuir.weights import Signature, reduction_points


def _named(vec):
    return {word_name(w): c for w, c in vec.terms.items() if c}


def _proportional(u, v):
    ratio = None
    keys = set(u) | set(v)
    for k in keys:
        a, b = u.get(k, Fraction(0)), v.get(k, Fraction(0))
        if (a == 0) != (b == 0):
            return False
        if a:
            r = b / a
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


def test_printed_ids_and_regimes():
    assert PRINTED_IDS == (
        "sv_d1", "sv_d12", "sv_d2", "sv_d13", "subsing_d13", "sv_d23",
    )
    expected = {
        "sv_d1": (Fraction(3), (1, 1)),
        "sv_d12": (Fraction(5, 2), (0, 2)),
        "sv_d2": (Fraction(2), (0, 2)),
        "sv_d13": (Fraction(1), (0, 2)),
        "subsing_d13": (Fraction(1), (0, 0)),
        "sv_d23": (Fraction(1, 2), (0, 0)),
    }
    for vid, (d, a) in expected.items():
        sig = printed_regime(vid)
        assert (sig.d, sig.a) == (d, a), vid
    with pytest.raises(ValueError):
        printed_regime("sv_bogus")


def test_all_printed_vectors_verify_at_their_regimes():
    for vid in PRINTED_IDS:
        sig = printed_regime(vid)
        if vid == "subsing_d13":
            assert verify_subsingular(vid, sig), vid
        else:
            assert verify_singular(vid, sig), vid


def test_compact_vectors_verify():
    sig = printed_regime("compact_1")
    assert verify_singular("compact_1", sig)
    assert verify_singular("compact_2", sig)
    v = printed_vector("compact_1", sig)
    assert _named(v) == {"X[d1-d2]": Fraction(1)}


def test_find_singular_at_d2_point():
    sig = Signature(3, Fraction(2), (0, 2))
    vecs = find_singular(sig, (0, 1, 0), 1)
    assert len(vecs) == 1
    printed = printed_vector("sv_d2", sig)
    assert _named(printed) == {
        "X[d2]": Fraction(3), "X[d2-d3]*X[d3]": Fraction(-1),
    }
    assert _proportional(_named(vecs[0]), _named(printed))


def test_find_singular_at_d1_point():
    sig = Signature(3, Fraction(3), (1, 1))
    vecs = find_singular(sig, (1, 0, 0), 1)
    assert len(vecs) == 1
    assert _proportional(_named(vecs[0]), _named(printed_vector("sv_d1", sig)))


def test_find_singular_away_from_reduction_points():
    sig = Signature(3, Fraction(17, 3), (1, 1))
    assert find_singular(sig, (1, 0, 0), 1) == []


def test_find_singular_refuses_an_m_that_is_not_a_positive_int():
    # a bool is not an int here, as in every other integer input
    sig = Signature(3, Fraction(17, 3), (1, 1))
    for bad in (True, 0, -1, 1.0, "1"):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            find_singular(sig, (1, 0, 0), bad)


def test_find_singular_refuses_a_beta_that_is_not_an_exact_positive_root():
    # beta must be one of the rank's positive roots, with exact entries;
    # every other tuple is refused, never answered with an empty basis
    sig = Signature(3, Fraction(1), (0, 0))
    for beta, m in (((1, 1, 1), 1), ((1, 2, 0), 1), ((Fraction(1, 2), Fraction(1, 2), 0), 2),
                    ((-1, 0, 0), 1), ((1, 1), 1), ((1, 1, 0, 0), 1), ((0, 0, 0), 1)):
        with pytest.raises(ValueError, match="is not a positive root of rank 3"):
            find_singular(sig, beta, m)
    for beta in ((1.0, 1.0, 0.0), (1, 0.5, 0), ("1", 0, 0)):
        with pytest.raises(ValueError, match="entries must be ints or Fractions"):
            find_singular(sig, beta, 1)
    # each family's roots are accepted, as ints or as Fractions
    for beta in ((1, -1, 0), (0, 1, 1), (0, 0, 1), (2, 0, 0), (Fraction(1), 0, Fraction(1))):
        assert isinstance(find_singular(sig, beta, 1), list)


def test_singular_vectors_are_annihilated_by_simple_lowerings():
    sig = Signature(3, Fraction(2), (0, 2))
    eng = engine_for(sig)
    space = singular_space(sig, (0, 1, 1))
    assert len(space) == 1
    for j in (1, 2, 3):
        out = eng.act(simple_lowering(3, j), space[0])
        assert all(c == 0 for c in out.terms.values())


def _fraction_singular_space(sig, offset):
    """The kernel built term by term: each basis word as a unit vector,
    every simple lowering applied with engine.act, Fraction rows."""
    engine = engine_for(sig)
    basis = engine.basis(offset)
    if not basis:
        return []
    unit = [ModuleVector(sig, offset, {w: Fraction(1)}) for w in basis]
    rows = []
    for j in range(1, sig.n + 1):
        low = simple_lowering(sig.n, j)
        drop = engine.table.weight_exp[engine.table.code[low]]
        target = tuple(a + b for a, b in zip(offset, drop))
        if any(x < 0 for x in target):
            continue
        images = [engine.act(low, u) for u in unit]
        for t_word in engine.basis(target):
            rows.append([img.terms.get(t_word, Fraction(0)) for img in images])
    return [
        ModuleVector(sig, offset, {w: c for w, c in zip(basis, sol) if c})
        for sol in nullspace(rows, cols=len(basis))
    ]


@pytest.mark.parametrize("n, labels, offsets", [
    (3, (0, 1, 2), [(a, b, c) for a in range(3) for b in range(a, 4)
                    for c in range(b, 5) if a + b + c <= 7]),
    (4, (0, 1), [(a, b, c, e) for a in range(2) for b in range(a, 3)
                 for c in range(b, 3) for e in range(c, 4) if a + b + c + e <= 6]),
])
def test_singular_space_matches_fraction_reference(n, labels, offsets):
    # seeded label sets, each at all of its reduction points and at one
    # generic d, over offsets of the dominant sector and a few others
    rng = random.Random(20261018 + n)
    nonempty = empty = 0
    for _ in range(2):
        a = tuple(rng.choice(labels) for _ in range(n - 1))
        points = sorted(set(reduction_points(n, a).points.values()))
        for d in points + [Fraction(rng.randint(1, 40), 7) + Fraction(1, 13)]:
            sig = Signature(n, d, a)
            for offset in offsets + [tuple(rng.randint(0, 2) for _ in range(n))]:
                got = singular_space(sig, offset)
                want = _fraction_singular_space(sig, offset)
                assert [(v.offset, v.terms) for v in got] == [
                    (v.offset, v.terms) for v in want], (sig, offset)
                nonempty += bool(got) and offset != (0,) * n
                empty += not got
    assert nonempty > 10 and empty > 10, (nonempty, empty)


def test_verify_rejects_wrong_parameters():
    assert not verify_singular("sv_d2", Signature(3, Fraction(7), (0, 2)))
    assert not verify_subsingular("subsing_d13", Signature(3, Fraction(1, 2), (0, 0)))
    # the subsingular claim is read off the catalog entry: one with a beta
    # is singular, and an unknown id is refused as everywhere else
    for vid in ("sv_d13", "compact_1"):
        with pytest.raises(ValueError, match=f"{vid} carries no subsingular claim"):
            verify_subsingular(vid, printed_regime(vid))
    with pytest.raises(ValueError, match="unknown printed vector id"):
        verify_subsingular("sv_bogus", Signature(3, 1, (0, 0)))


def test_verify_rejects_a_vector_outside_a_nonempty_kernel():
    # the kernel has one vector and the printed one is nonzero, so the
    # answer comes from the span test, not from an empty kernel
    sig = Signature(3, Fraction(1, 2), (0, 1))
    assert len(find_singular(sig, (0, 1, 1), 1)) == 1
    assert not printed_vector("sv_d23", sig).is_zero
    assert not verify_singular("sv_d23", sig)


def test_subsingular_check_solves_each_singular_space_once(monkeypatch):
    # the slices at the vector and at its lowering images share their
    # singular spaces: each offset below the vector is solved once, through
    # the module's singular_space, and the verdict is unchanged
    from ospuir.enveloping import singular

    solved = []

    def counted(sig, offset):
        solved.append(tuple(offset))
        return singular_space(sig, offset)

    sig = printed_regime("subsing_d13")
    nu = printed_vector("subsing_d13", sig).offset
    below = {s for s in product(*(range(x + 1) for x in nu)) if any(s)}
    monkeypatch.setattr(singular, "singular_space", counted)
    assert verify_subsingular("subsing_d13", sig)
    assert sorted(solved) == sorted(below)
    # a slice asked for on its own solves every offset below it, once
    solved.clear()
    assert submodule_component(sig, nu)
    assert sorted(solved) == sorted(below)


def test_compact_vector_is_not_subsingular():
    sig = Signature(3, Fraction(1), (0, 0))
    assert not is_subsingular(printed_vector("compact_1", sig))


def test_norm_polynomial_subsingular():
    coeffs = norm_polynomial_in_d("subsing_d13", (0, 0))
    # 16d(d-1)(2d-1) = 16d - 48d^2 + 32d^3, ascending order
    assert coeffs == [Fraction(0), Fraction(16), Fraction(-48), Fraction(32)]
    roots, residual = rational_zero_set(coeffs)
    assert roots == {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 1}
    assert residual == [Fraction(32)]


def test_norm_polynomial_sv_d12():
    coeffs = norm_polynomial_in_d("sv_d12", (0, 2))
    # 4608(d - 2)(d - 5/2)
    assert coeffs == [Fraction(23040), Fraction(-20736), Fraction(4608)]
    roots, residual = rational_zero_set(coeffs)
    assert roots == {Fraction(2): 1, Fraction(5, 2): 1}
    assert residual == [Fraction(4608)]

    coeffs = norm_polynomial_in_d("sv_d12", (1, 1))
    # 1536 d (d - 2)
    assert coeffs == [Fraction(0), Fraction(-3072), Fraction(1536)]
    roots, residual = rational_zero_set(coeffs)
    assert roots == {Fraction(0): 1, Fraction(2): 1}
    assert residual == [Fraction(1536)]


def test_norms_vanish_at_reduction_points():
    # every catalog norm at its regime labels: degree at most the longest
    # PBW word, the polynomial matches norms taken away from its samples,
    # and it vanishes at the regime point
    for vid in CATALOG:
        sig = printed_regime(vid)
        coeffs = norm_polynomial_in_d(vid, sig.a)
        longest = max(len(w) for w in printed_vector(vid, sig).terms)
        assert len(coeffs) - 1 <= longest, vid
        for d in (Fraction(1, 3), Fraction(5, 2), Fraction(-3)):
            other = Signature(3, d, sig.a)
            assert poly_eval(coeffs, d) == engine_for(other).norm(
                printed_vector(vid, other)), (vid, d)
        assert poly_eval(coeffs, sig.d) == 0


def poly_eval(coeffs, x):
    """The polynomial with ascending coefficients coeffs at x, by Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _lagrange(points):
    """Interpolating polynomial coefficients, ascending degree."""
    size = len(points)
    coeffs = [Fraction(0)] * size
    for i, (xi, yi) in enumerate(points):
        # numerator poly prod_{j != i} (x - x_j), built incrementally
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= xj * num[k + 1]
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_norm_polynomials_match_interpolation():
    # The direct sum over PBW pairs against exact interpolation of
    # per-signature norms through L + 1 samples of d, L the longest printed
    # word (each letter contributes at most one Cartan eigenvalue, linear
    # in d), confirmed on one more sample.
    for vid in CATALOG:
        a = printed_regime(vid).a

        def norm_at(d):
            sig = Signature(3, d, a)
            return engine_for(sig).norm(printed_vector(vid, sig))

        longest = max(len(w) for w, _ in CATALOG[vid].terms(*map(Fraction, a)))
        samples = [Fraction(17 + s) for s in range(longest + 2)]
        coeffs = _lagrange([(d, norm_at(d)) for d in samples[:-1]])
        assert poly_eval(coeffs, samples[-1]) == norm_at(samples[-1]), vid
        assert norm_polynomial_in_d(vid, a) == coeffs, vid


def test_poly_eval_and_zero_set_helpers():
    assert poly_eval([Fraction(1), Fraction(2)], Fraction(3)) == 7
    assert poly_eval([], Fraction(5)) == 0
    roots, residual = rational_zero_set([Fraction(-2), Fraction(1)])
    assert roots == {Fraction(2): 1}
    assert residual == [Fraction(1)]
    roots, residual = rational_zero_set([Fraction(1), Fraction(0), Fraction(1)])
    assert roots == {}
    assert residual == [Fraction(1), Fraction(0), Fraction(1)]
    # exact input only: a float coefficient once read as the root
    # -36028797018963968/3602879701896397; a bool is an int
    for bad in (0.1, "1/10", Decimal("0.1")):
        with pytest.raises(ValueError, match="ints or Fractions"):
            rational_zero_set([1, bad])
    assert rational_zero_set([-2, True]) == ({Fraction(2): 1}, [Fraction(1)])


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def test_zero_set_recovers_seeded_linear_factors():
    # products of known linear factors (repeated roots, 0 as a root) times a
    # factor with no rational root, some with trailing zero coefficients
    rng = random.Random(20261018)
    root_free = ([1], [1, 0, 1], [-2, 0, 1], [3, 1, 2], [1, 1, 1, 1, 1])
    for _ in range(300):
        want = {}
        for _ in range(rng.randint(0, 4)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            want[r] = want.get(r, 0) + rng.randint(1, 2)
        scale = Fraction(rng.choice((1, -1)) * rng.randint(1, 7), rng.randint(1, 3))
        free = [scale * c for c in rng.choice(root_free)]
        coeffs = free
        for r, m in want.items():
            for _ in range(m):
                coeffs = _times(coeffs, [-r, Fraction(1)])
        padded = coeffs + [Fraction(0)] * rng.randint(0, 2)
        roots, residual = rational_zero_set(padded)
        assert roots == want, padded
        zero_first = [Fraction(0)] if Fraction(0) in want else []
        assert list(roots) == zero_first + sorted(r for r in want if r != 0), padded
        back = residual
        for r, m in roots.items():
            for _ in range(m):
                back = _times(back, [-r, Fraction(1)])
        assert back == coeffs, padded
        assert residual == free, padded


def test_anomaly_error_is_an_exception():
    assert issubclass(AnomalyError, Exception)


def test_find_singular_reports_a_predicted_vector_that_is_missing(monkeypatch):
    # m_delta1 = 1 at d = 3, a = (1, 1): an empty kernel there is an anomaly,
    # while at m = 2, which the criterion does not predict, it is an answer
    monkeypatch.setattr(singular, "singular_space", lambda sig, offset: [])
    sig = Signature(3, Fraction(3), (1, 1))
    with pytest.raises(AnomalyError, match="reducibility holds"):
        find_singular(sig, (1, 0, 0), 1)
    assert find_singular(sig, (1, 0, 0), 2) == []


def test_singular_solvers_refuse_an_offset_that_is_not_ints():
    # a float offset was truncated to the offset below it
    sig = Signature(3, Fraction(1, 2), (0, 0))
    for offset in ((0, 1.5, 1), (Fraction(1), 1, 1), (True, 0, 0)):
        with pytest.raises(ValueError, match="entries must be ints"):
            singular_space(sig, offset)
        with pytest.raises(ValueError, match="entries must be ints"):
            submodule_component(sig, offset)
