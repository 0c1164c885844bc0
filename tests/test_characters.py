"""Truncated character series and the closed character formulae."""

import itertools
import json
import random
import tracemalloc

import pytest
from fractions import Fraction
from math import factorial

from ospuir.characters import (
    UNITARY,
    UNITARY_CASES,
    CharacterSeries,
    NormalizedCharacter,
    p_divide_one_minus,
    p_mul,
    partition_count,
    series_to_json,
    series_to_text,
    sl3_character,
    unitary_character,
    verma_character,
    weight_from_labels,
    weyl_character,
    weyl_dimension,
)
from ospuir import characters
from ospuir.enveloping.module import engine_for
from ospuir.linalg import rref
from ospuir.root_system import delta_to_simple, rho_shift
from ospuir.weights import Signature, labels_of_weight, lowest_weight, reduction_points
from ospuir.weyl import apply, generate

# simple-root exponents of the six noncompact restricted roots of rank 3
NONCOMPACT_EXPS = ((1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 2, 2), (1, 1, 2), (0, 1, 2))


# Plain series helpers over raw dicts, written term by term so that they
# do not go through p_divide_one_minus.

def one(n):
    return {(0,) * n: Fraction(1)}


def add(f, g):
    """f + g, without the terms that cancel."""
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def p_sub(f, g):
    """f - g, without the terms that cancel."""
    return add(f, {e: -c for e, c in g.items()})


def one_minus(nvars, v):
    """The polynomial 1 - t^v in nvars variables."""
    return {(0,) * nvars: Fraction(1), tuple(v): Fraction(-1)}


def geometric(v, maxdeg):
    """The series of 1 / (1 - t^v) to maxdeg: the sum of the t^(k v)."""
    out = {}
    k = 0
    while k * sum(v) <= maxdeg:
        out[tuple(k * x for x in v)] = Fraction(1)
        k += 1
    return out


def lifted(f, n, maxdeg):
    """f in n variables (trailing zero exponents), truncated at maxdeg."""
    return {e + (0,) * (n - len(e)): c for e, c in f.items() if sum(e) <= maxdeg}


def six_factor_inverse(maxdeg):
    inv = one(3)
    for e in NONCOMPACT_EXPS:
        inv = p_mul(inv, geometric(e, maxdeg), maxdeg)
    return inv


def test_series_arithmetic_and_truncation():
    v = (1, 0, 1)
    geo = geometric(v, 6)
    assert p_mul(one_minus(3, v), geo, 6) == one(3)
    prod = p_mul(geo, geo, 6)
    assert all(sum(e) <= 6 for e in prod)
    series = CharacterSeries(3, 4, prod)
    assert series.coeffs == {e: c for e, c in prod.items() if sum(e) <= 4}
    assert series.truncate(2).coeffs == {(0, 0, 0): 1, (1, 0, 1): 2}
    with pytest.raises(ValueError):
        partition_count(2, (0, 0, 1))


def _random_poly(rng, n, terms, top):
    f = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, top) for _ in range(n))
        f[e] = f.get(e, Fraction(0)) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return {e: c for e, c in f.items() if c}


def test_divide_one_minus_matches_geometric_product():
    rng = random.Random(20261018)
    below_top = 0
    for trial in range(120):
        n = rng.randint(2, 4)
        vs = []
        for _ in range(rng.randint(1, 2)):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            vs.append(v if any(v) else (1,) + v[1:])
        f = _random_poly(rng, n, rng.randint(0, 8), 4)
        if trial % 2:
            # a multiple of the first factor plus a few terms, so that most
            # sums g[e] = f[e] + g[e - v] cancel to zero
            f = add(p_mul(f, one_minus(n, vs[0])), _random_poly(rng, n, 2, 2))
        top = max((sum(e) for e in f), default=0)
        maxdeg = rng.randint(max(0, top - 3), top + 6)
        below_top += maxdeg < top
        want = f
        for v in vs:
            want = p_mul(want, geometric(v, maxdeg), maxdeg)
        assert p_divide_one_minus(f, vs, maxdeg) == want, (f, vs, maxdeg)
    assert below_top > 10
    # an exact multiple comes back exactly, with nothing past the quotient
    h = {(0, 1): Fraction(2), (2, 1): Fraction(-1)}
    f = p_mul(h, one_minus(2, (1, 1)))
    assert p_divide_one_minus(f, [(1, 1)], 12) == h
    # zero terms are dropped whether or not there are factors
    assert p_divide_one_minus({(0, 0): 1, (1, 0): 0}, [], 3) == {(0, 0): 1}
    assert p_divide_one_minus({(0, 0): 1, (1, 0): 0}, [(0, 1)], 1) == {
        (0, 0): 1, (0, 1): 1}


def test_divide_one_minus_packing_boundaries():
    # exponents are packed in base maxdeg + 1, so let every variable reach
    # maxdeg, through f and through the recurrence, in one to five
    # variables, with coefficients over several denominators
    rng = random.Random(20261019)
    at_edge = 0
    for n in range(1, 6):
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        for maxdeg in (0, 1, 2, 5):
            for k in range(n):
                f = _random_poly(rng, n, 3, 2)
                f[(0,) * n] = Fraction(1, 4)
                f[tuple(maxdeg * x for x in units[k])] = Fraction(-5, 6)
                v = tuple(rng.randint(0, 2) for _ in range(n))
                vs = [units[k], units[-1 - k]] + ([v] if any(v) else [])
                want = f
                for v in vs:
                    want = p_mul(want, geometric(v, maxdeg), maxdeg)
                got = p_divide_one_minus(f, vs, maxdeg)
                assert got == want, (f, vs, maxdeg)
                assert all(type(c) is Fraction and c for c in got.values())
                at_edge += any(maxdeg in e for e in got)
    assert at_edge > 50  # of 60 cases
    # negative exponents in f are shifted into range before packing; f has
    # a term of degree -2, so the factors are needed to degree 6
    f = {(-1, 2): Fraction(1, 2), (0, -2): Fraction(-1, 3), (3, 0): Fraction(2)}
    want = p_mul(f, p_mul(geometric((1, 0), 6), geometric((1, 1), 6), 6), 4)
    assert p_divide_one_minus(f, [(1, 0), (1, 1)], 4) == want


def _assert_shared_fractions(coeffs):
    """Every value is a Fraction, and equal values are one object."""
    assert all(type(c) is Fraction for c in coeffs.values())
    assert len({id(c) for c in coeffs.values()}) == len(set(coeffs.values()))


def test_divide_one_minus_output_keys_and_values():
    # the output splits each packed key into two halves, n // 2
    # coordinates and the rest, so take n = 1 to 5 (an empty first half,
    # even and odd splits), negative exponents in either half and
    # coefficients from a short list, so that output values repeat
    rng = random.Random(20261020)
    repeated = 0
    for n in range(1, 6):
        units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        for trial in range(6):
            f = {}
            for _ in range(4):
                e = tuple(rng.randint(-3, 2) for _ in range(n))
                f[e] = rng.choice((Fraction(1, 2), Fraction(-1, 3), Fraction(2)))
            f[(0,) * n] = Fraction(1, 2)
            vs = [units[trial % n], tuple(rng.randint(0, 1) for _ in range(n - 1)) + (1,)]
            maxdeg = rng.randint(2, 6)
            # a term of f below degree 0 needs the factors past maxdeg
            reach = maxdeg - min(0, *(sum(e) for e in f))
            want = f
            for v in vs:
                want = p_mul(want, geometric(v, reach), maxdeg)
            got = p_divide_one_minus(f, vs, maxdeg)
            assert got == want, (f, vs, maxdeg)
            assert all(type(e) is tuple and len(e) == n and all(type(x) is int for x in e)
                       for e in got)
            _assert_shared_fractions(got)
            repeated += len(got) - len(set(got.values()))
    assert repeated > 100


def test_divide_one_minus_memory_follows_the_output():
    # one far-negative exponent makes the packing base 3003; the output
    # has 3,005 terms, so its memos stay small, where a table of every
    # two-coordinate half would hold 3003 ** 2 tuples
    f = {(-3000, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 1): Fraction(-1, 3)}
    tracemalloc.start()
    try:
        got = p_divide_one_minus(f, [(0, 0, 0, 1)], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak
    assert len(got) == 3005
    assert got[(-3000, 0, 0, 3002)] == Fraction(1, 2)
    assert got[(0, 0, 0, 2)] == Fraction(-1, 3)
    _assert_shared_fractions(got)


def test_divide_one_minus_rejects_bad_exponents():
    for v in ((0, 0), (2, -1), (-1, 0)):
        with pytest.raises(ValueError):
            p_divide_one_minus({(0, 0): Fraction(1)}, [v], 5)
        with pytest.raises(ValueError):
            p_divide_one_minus({}, [v], 5)


def test_partition_count_examples():
    assert partition_count(3, (0, 0, 0)) == 1
    assert partition_count(3, (0, 0, 1)) == 1
    assert partition_count(3, (0, 1, 2)) == 3
    assert partition_count(3, (0, 0, 4)) == 1
    # (1,1) is delta_1 itself or (delta_1 - delta_2) + delta_2
    assert partition_count(2, (1, 1)) == 2


def test_verma_series_matches_partition_count():
    series = verma_character(3, 5)
    assert series.coefficient((0, 0, 0)) == 1
    assert series.coefficient((0, 1, 1)) == 2
    # every coefficient to total degree maxdeg, at ranks 1..5
    for n, maxdeg in ((1, 10), (2, 8), (3, 6), (4, 5), (5, 4)):
        series = verma_character(n, maxdeg)
        for mu in itertools.product(range(maxdeg + 1), repeat=n):
            if sum(mu) <= maxdeg:
                assert series.coefficient(mu) == partition_count(n, mu), (n, mu)


def test_sl3_character_values():
    assert sl3_character(1, 1).coeffs == {(0, 0): Fraction(1)}
    assert sl3_character(2, 1).coeffs == {
        (0, 0): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1),
    }
    assert sl3_character(1, 2).coeffs == {
        (0, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1),
    }
    assert sl3_character(0, 3).coeffs == {}
    assert sl3_character(3, 0).coeffs == {}
    with pytest.raises(ValueError):
        sl3_character(-1, 2)


def test_sl3_dimension_formula():
    for m1 in range(1, 7):
        for m2 in range(1, 7):
            s = sl3_character(m1, m2)
            total = sum(s.coeffs.values())
            assert total == Fraction(m1 * m2 * (m1 + m2), 2)
            assert all(c > 0 and c.denominator == 1 for c in s.coeffs.values())


def sl3_weyl_numerator(m1, m2):
    """The sum over S_3 of sgn(w) t^(mu0 - w mu0), mu0 with labels
    (m1, m2): each w is a reduced word in s1, s2, applied right to left."""
    alpha = ((2, -1), (-1, 2))  # the simple roots in fundamental-weight coordinates
    out = {}
    for word in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        lam, e = [m1, m2], [0, 0]
        for i in reversed(word):
            c = lam[i]
            lam = [x - c * a for x, a in zip(lam, alpha[i])]
            e[i] += c
        out = add(out, {tuple(e): Fraction((-1) ** len(word))})
    return out


def test_sl3_character_times_compact_factors_is_its_numerator():
    for m1 in range(7):
        for m2 in range(7):
            product = sl3_character(m1, m2).coeffs
            for v in ((1, 0), (0, 1), (1, 1)):
                product = p_mul(product, one_minus(2, v))
            assert product == sl3_weyl_numerator(m1, m2), (m1, m2)


def test_sl3_character_refuses_an_inexact_numerator(monkeypatch):
    # labels (2, 3) are mu0 = (5, 3, 0)
    full = characters._weyl_numerator
    for dropped in full((5, 3, 0), flips=False):
        def short(mu0, flips, dropped=dropped):
            return {e: c for e, c in full(mu0, flips).items() if e != dropped}

        monkeypatch.setattr(characters, "_weyl_numerator", short)
        with pytest.raises(ValueError, match="division check failed"):
            sl3_character(2, 3)


def test_weight_from_labels_roundtrip():
    rng = random.Random(67)
    for _ in range(20):
        m = tuple(rng.randint(-5, 5) for _ in range(3))
        assert labels_of_weight(weight_from_labels(m)) == tuple(Fraction(x) for x in m)


def test_weyl_character_trivial_and_dimensions():
    triv = weyl_character(weight_from_labels((1, 1, 1)), 6)
    assert triv.series.coeffs == {(0, 0, 0): Fraction(1)}
    for labels in ((2, 1, 1), (1, 1, 2)):
        nc = weyl_character(weight_from_labels(labels), 28)
        total = sum(nc.series.coeffs.values())
        assert total == weyl_dimension(weight_from_labels(labels))
        assert all(c > 0 and c.denominator == 1 for c in nc.series.coeffs.values())
    with pytest.raises(ValueError):
        weyl_character(weight_from_labels((1, 0, 1)), 6)


def group_walk_weyl_numerator(lam0, flips):
    """The sum over W(B_n), or over its sign-free subgroup S_n when flips
    is false, of (-1)^length(w) t^(mu0 - w mu0), mu0 = rho - lam0: the
    group listed by weyl.generate, each element applied on Fractions and
    the shift expanded in the simple roots."""
    mu0 = rho_shift(lam0)
    out = {}
    for w in generate(len(lam0)):
        if not flips and -1 in w.signs:
            continue
        shift = tuple(a - b for a, b in zip(mu0, apply(w, mu0)))
        exp = delta_to_simple(shift)
        assert all(x >= 0 and x.denominator == 1 for x in exp), exp
        out = add(out, {tuple(int(x) for x in exp): Fraction((-1) ** w.length)})
    return out


def test_weyl_numerator_matches_the_group_walk():
    label_sets = [(1,), (2,), (5,), (1, 1), (3, 1), (1, 4), (2, 3),
                  (1, 1, 1), (3, 2, 2), (1, 2, 1), (2, 1, 3),
                  (1, 1, 1, 1), (2, 1, 1, 3), (1, 3, 2, 1)]
    for labels in label_sets:
        lam0 = weight_from_labels(labels)
        for flips, order in ((True, len(generate(len(labels)))),
                             (False, factorial(len(labels)))):
            got = characters._weyl_numerator(rho_shift(lam0), flips)
            assert got == group_walk_weyl_numerator(lam0, flips), (labels, flips)
            # every label is positive, so no two elements share an exponent
            assert len(got) == order, (labels, flips)
    with pytest.raises(ValueError, match=r"\[1, 6\] for weyl_group, got 7"):
        weyl_character(weight_from_labels((1,) * 7), 3)


def test_unitary_case_d23_closed_form():
    nc = unitary_character("d23", maxdeg=12)
    closed = one(3)
    for e in ((0, 0, 1), (0, 1, 1), (1, 1, 1)):
        closed = p_mul(closed, geometric(e, 12), 12)
    assert nc.series.coeffs == closed
    assert nc.prefix == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_unitary_case_d2eq13_numerator():
    maxdeg = 8
    nc = unitary_character("d2eq13", maxdeg=maxdeg)
    numerator = nc.series.coeffs
    for e in NONCOMPACT_EXPS:
        numerator = p_mul(numerator, one_minus(3, e), maxdeg)
    assert numerator == {(0, 0, 0): Fraction(1), (1, 2, 3): Fraction(-1)}
    # the subtracted exponent is the weight delta_1+delta_2+delta_3
    assert tuple(int(x) for x in delta_to_simple((1, 1, 1))) == (1, 2, 3)
    assert unitary_character("d2_eq_d13", maxdeg=4).series.coeffs == \
        unitary_character("d2eq13", maxdeg=4).series.coeffs


def test_unitary_case_d1_single_term_at_m1_one():
    maxdeg = 6
    nc = unitary_character("d1", maxdeg=maxdeg, m1=1, m2=3)
    expected = p_mul(lifted(sl3_character(1, 3).coeffs, 3, maxdeg),
                     six_factor_inverse(maxdeg), maxdeg)
    assert nc.series.coeffs == expected
    assert nc.prefix == lowest_weight(Signature(3, Fraction(3), (0, 2)))


def test_unitary_case_d2_collapses_at_m2_two():
    maxdeg = 6
    nc = unitary_character("d2", maxdeg=maxdeg, m2=2)
    bracket = p_sub(
        lifted(sl3_character(1, 2).coeffs, 3, maxdeg),
        p_mul({(0, 1, 1): Fraction(1)}, lifted(sl3_character(2, 1).coeffs, 3, maxdeg),
              maxdeg),
    )
    expected = p_mul(bracket, six_factor_inverse(maxdeg), maxdeg)
    assert nc.series.coeffs == expected
    # the d_2 point of a=(0,1) sits at d = 1 + a_2/2 = 3/2
    assert nc.prefix == lowest_weight(Signature(3, Fraction(3, 2), (0, 1)))


def test_unitary_cases_have_nonnegative_integer_coefficients():
    cases = (
        ("d1", {"m1": 2, "m2": 1}),
        ("d12", {"m2": 2}),
        ("d2eq13", {}),
        ("d2", {"m2": 2}),
        ("d23", {}),
    )
    for case, kwargs in cases:
        nc = unitary_character(case, maxdeg=6, **kwargs)
        assert all(
            c.denominator == 1 and c >= 0 for c in nc.series.coeffs.values()
        ), case
        assert nc.series.coefficient((0, 0, 0)) == 1


def _assert_canonical(series):
    """Keys are int tuples of length n, values nonzero Fractions, degrees
    at most maxdeg, and the public constructor leaves the series as it is."""
    for e, c in series.coeffs.items():
        assert type(e) is tuple and len(e) == series.n, e
        assert all(type(x) is int for x in e), e
        assert type(c) is Fraction and c, (e, c)
        assert sum(e) <= series.maxdeg, e
    assert series == CharacterSeries(series.n, series.maxdeg, dict(series.coeffs))


def test_library_series_are_canonical():
    built = [verma_character(3, 9), verma_character(4, 6),
             weyl_character(weight_from_labels((2, 1, 2)), 10).series,
             sl3_character(2, 3), sl3_character(0, 2)]
    for case in UNITARY_CASES:
        built.append(unitary_character(case, 9, m1=2, m2=3).series)
    built += [s.truncate(5) for s in built] + [built[0].truncate(20)]
    for series in built:
        _assert_canonical(series)
        _assert_shared_fractions(series.coeffs)
    assert built[0].truncate(20).coeffs == built[0].coeffs
    assert built[0].truncate(20).coeffs is not built[0].coeffs


class _Exp(tuple):
    """A tuple subclass, standing for an outside caller's key type."""


def test_constructor_normalises_outside_input():
    # a key that is a tuple subclass; int values; a Fraction value not in
    # lowest terms; zero values; a term above maxdeg
    raw = {(0, 0): 1, (1, 0): 0, (0, 1): Fraction(-2, 4),
           _Exp((1, 1)): 3, (2, 2): 5, (1, 2): Fraction(0)}
    series = CharacterSeries(2, 3, raw)
    assert series.coeffs == {(0, 0): 1, (0, 1): Fraction(-1, 2), (1, 1): 3}
    assert all(type(c) is Fraction for c in series.coeffs.values())
    _assert_canonical(series)
    # an exponent entry must be an int: a bool or a Fraction is refused,
    # not read as the int it equals, also on a zero term or past maxdeg
    for key in ((Fraction(0), 1), (0, True), (1.5, 0), (Fraction(9), 0)):
        with pytest.raises(ValueError, match="entries must be ints"):
            CharacterSeries(2, 3, {key: 1})
        with pytest.raises(ValueError, match="entries must be ints"):
            CharacterSeries(2, 3, {(0, 0): 1, key: 0})


# ------------------------------------------- five-branch unitary reference

def reference_unitary_character(case, maxdeg=10, m1=None, m2=None):
    """The unitary characters written as one branch per case: the form the
    UNITARY table replaced, kept to check the table against."""
    name = {"d2_eq_d13": "d2eq13", "d2=d13": "d2eq13"}.get(case, case)
    if name not in ("d1", "d12", "d2eq13", "d2", "d23"):
        raise ValueError(f"unknown case {case!r}")
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")

    def mono(e):
        return {e: Fraction(1)}

    def lift(x, y):
        return lifted(sl3_character(x, y).coeffs, 3, maxdeg)

    def sub(f, g):
        return p_sub(f, g)

    def mul(f, g):
        return p_mul(f, g, maxdeg)

    if name == "d1":
        if m1 is None or m2 is None or m1 < 1 or m2 < 1:
            raise ValueError("case d1 needs integer labels m1 >= 1, m2 >= 1")
        bracket = sub(lift(m1, m2), mul(mono((1, 1, 1)), lift(m1 - 1, m2)))
        a = (m1 - 1, m2 - 1)
        d = reduction_points(3, a).value(1)
    elif name == "d12":
        if m2 is None or m2 <= 1:
            raise ValueError("case d12 needs an integer label m2 > 1")
        bracket = sub(lift(1, m2), mul(mono((m2, 2 * m2, 2 * m2)), lift(1, m2 - 1)))
        a = (0, m2 - 1)
        d = reduction_points(3, a).value(1, 2)
    elif name == "d2eq13":
        bracket = sub(one(3), mono((1, 2, 3)))
        a = (0, 0)
        d = reduction_points(3, a).value(2)
    elif name == "d2":
        if m2 is None or m2 < 2:
            raise ValueError("case d2 needs an integer label m2 >= 2")
        bracket = sub(
            add(sub(lift(1, m2), mul(mono((0, 1, 1)), lift(2, m2 - 1))),
                mul(mono((1, 3, 3)), lift(2, m2 - 2))),
            mul(mono((2, 4, 4)), lift(1, m2 - 2)),
        )
        a = (0, m2 - 1)
        d = reduction_points(3, a).value(2)
    else:
        bracket = sub(
            add(sub(one(3), mul(mono((0, 1, 2)), lift(2, 1))),
                mul(mono((1, 2, 4)), lift(1, 2))),
            mono((2, 4, 6)),
        )
        a = (0, 0)
        d = reduction_points(3, a).value(2, 3)
    series = CharacterSeries(
        3, maxdeg, p_divide_one_minus(bracket, NONCOMPACT_EXPS, maxdeg)
    )
    return NormalizedCharacter(lowest_weight(Signature(3, d, a)), series)


def test_unitary_table_matches_five_branch_reference():
    assert UNITARY_CASES == ("d1", "d12", "d2eq13", "d2", "d23")
    requests = [("d1", m1, m2) for m1 in range(1, 5) for m2 in range(1, 7)]
    requests += [(case, None, m2) for case in ("d12", "d2") for m2 in range(2, 7)]
    requests += [(case, None, None) for case in ("d2eq13", "d2_eq_d13", "d2=d13", "d23")]
    ref = reference_unitary_character
    for case, m1, m2 in requests:
        for top in (0, 1):
            assert unitary_character(case, top, m1, m2) == ref(case, top, m1, m2), \
                (case, m1, m2, top)
        want = ref(case, 24, m1, m2)
        got = unitary_character(case, 24, m1, m2)
        assert got.prefix == want.prefix, (case, m1, m2)
        assert got.series.coeffs == want.series.coeffs, (case, m1, m2)
        for maxdeg in range(24):
            assert unitary_character(case, maxdeg, m1, m2).series.coeffs == \
                want.series.truncate(maxdeg).coeffs, (case, m1, m2, maxdeg)
    # the same refusals, with the same messages
    for case, m1, m2 in (("d1", 0, 1), ("d1", 1, None), ("d1", None, 2),
                         ("d12", 3, 1), ("d12", None, None), ("d2", 1, 1),
                         ("d2", None, None), ("bogus", 1, 2)):
        with pytest.raises(ValueError) as want_err:
            ref(case, 4, m1, m2)
        with pytest.raises(ValueError) as got_err:
            unitary_character(case, 4, m1, m2)
        if case != "bogus":
            assert str(got_err.value) == str(want_err.value), (case, m1, m2)


D12_ROW = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the d12 row of characters.UNITARY places its second term at "
    "t^(m2, 2m2, 2m2); the Gram ranks disagree first at mu = (1,2,2), "
    "see ROADMAP item 1"))


@pytest.mark.parametrize("case, m1, m2", [
    ("d23", None, None), ("d2eq13", None, None),
    ("d1", 1, 1), ("d1", 1, 2), ("d1", 2, 1),
    ("d2", None, 2), ("d2", None, 3),
    pytest.param("d12", None, 2, marks=D12_ROW),
    pytest.param("d12", None, 3, marks=D12_ROW),
])
def test_unitary_characters_match_gram_ranks(case, m1, m2):
    # the Shapovalov form on M(Lambda)_mu has rank dim L(Lambda)_mu, so each
    # coefficient of a unitary character is the rank of its Gram block; the
    # character differs from the Verma one somewhere, so the check bites
    maxdeg = 8
    row = UNITARY[case]
    a = row.labels(m1, m2)
    sig = Signature(3, reduction_points(3, a).value(*row.point), a)
    char = unitary_character(case, maxdeg, m1, m2)
    assert char.prefix == lowest_weight(sig)
    mus = [mu for mu in itertools.product(range(maxdeg + 1), repeat=3) if sum(mu) <= maxdeg]
    assert len(mus) == 165
    verma = verma_character(3, maxdeg)
    assert any(char.series.coefficient(mu) != verma.coefficient(mu) for mu in mus)
    engine = engine_for(sig)
    wrong = [mu for mu in mus
             if char.series.coefficient(mu) != len(rref(engine.gram(sig, mu).scaled)[1])]
    assert wrong == []


D12_TERM = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the d12 row's second term, at t^(m2, 2m2, 2m2), carries sl(3) labels "
    "(1, m2 - 1), but the compact labels of its weight are (1, 0); "
    "see ROADMAP item 1"))


@pytest.mark.parametrize("case, m1, m2", (
    [("d1", m1, m2) for m1 in range(1, 5) for m2 in range(1, 5)]
    + [("d2", None, m2) for m2 in range(2, 5)]
    + [("d2eq13", None, None), ("d23", None, None)]
    + [pytest.param("d12", None, m2, marks=D12_TERM) for m2 in range(2, 5)]))
def test_each_unitary_term_names_one_weight(case, m1, m2):
    # a term (sign, shift, labels) is the compact sl(3) character whose
    # lowest weight is Lambda + shift, so its labels are that weight's
    # first two; the shift is in simple roots, whose delta coordinates are
    # its successive differences
    row = UNITARY[case]
    a = row.labels(m1, m2)
    lam = lowest_weight(Signature(3, reduction_points(3, a).value(*row.point), a))
    for _, shift, labels in row.bracket(m1, m2):
        delta = [x - y for x, y in zip(shift, (0,) + shift[:-1])]
        weight = tuple(x + y for x, y in zip(lam, delta))
        assert labels_of_weight(weight)[:2] == labels, (shift, labels)


def test_unitary_case_parameter_validation():
    with pytest.raises(ValueError):
        unitary_character("bogus")
    with pytest.raises(ValueError):
        unitary_character("d1", m1=0, m2=1)
    with pytest.raises(ValueError):
        unitary_character("d12", m2=1)
    with pytest.raises(ValueError):
        unitary_character("d2", m2=1)
    # a label the case uses must be an int; an unused one is not read
    for case, m1, m2 in (("d1", 1.5, 2), ("d2", None, 2.0), ("d12", None, Fraction(5, 2))):
        with pytest.raises(ValueError, match="labels must be nonnegative integers"):
            unitary_character(case, 4, m1, m2)
    assert unitary_character("d23", 4, 1.5, None) == unitary_character("d23", 4)


def test_series_inputs_are_checked_by_type():
    labels = "labels must be nonnegative integers"
    with pytest.raises(ValueError, match=labels):
        sl3_character(True, 2)
    with pytest.raises(ValueError, match=labels):
        sl3_character(2, False)
    for m1, m2 in ((True, True), ("2", 1), (2, "1")):
        with pytest.raises(ValueError, match=labels):
            unitary_character("d1", 4, m1, m2)
    with pytest.raises(ValueError, match=labels):
        unitary_character("d2", 4, None, "3")
    # maxdeg is one check, shared by the three series kinds
    lam0 = weight_from_labels((2, 1, 1))
    for maxdeg in (2.5, True, False, -1, Fraction(3), "4"):
        for build in (lambda: unitary_character("d23", maxdeg),
                      lambda: unitary_character("d1", maxdeg, 2, 1),
                      lambda: verma_character(3, maxdeg),
                      lambda: weyl_character(lam0, maxdeg)):
            with pytest.raises(ValueError, match="maxdeg must be a nonnegative integer"):
                build()
    assert verma_character(3, 0).coeffs == {(0, 0, 0): 1}


def series_to_json_obj(series):
    """The series as one dict per term: the reference that series_to_json
    must print byte for byte through json.dumps."""
    coeffs = series.coeffs
    return {
        "n": series.n,
        "maxdeg": series.maxdeg,
        "terms": [
            {"exp": list(e), "coeff": str(coeffs[e])} for e in series._exps_sorted()
        ],
    }


def test_text_and_json_serialization():
    s = sl3_character(2, 1)
    assert series_to_text(s) == "1\n1 * t1^1\n1 * t1^1 t2^1\n"
    obj = json.loads(series_to_json(s))
    assert obj["n"] == 2
    assert obj["terms"][0] == {"exp": [0, 0], "coeff": "1"}
    # graded-lex order: degree first, then exponent vector
    degs = [sum(t["exp"]) for t in obj["terms"]]
    assert degs == sorted(degs)


def test_json_writer_matches_the_dict_reference():
    lam0 = weight_from_labels((2, 1, 1))
    weyl = weyl_character(lam0, 5)
    d23 = unitary_character("d23", 6)
    cases = [
        (CharacterSeries(2, 3), {}),                     # the empty series
        (sl3_character(0, 1).truncate(0), {"case": "sl3"}),
        (CharacterSeries(1, 4, {(0,): Fraction(-3, 2), (4,): 7}), {}),
        (verma_character(1, 6), {"case": "verma"}),
        (verma_character(3, 5), {"case": "verma"}),
        (weyl.series, {"lowest_weight": [str(x) for x in weyl.prefix], "case": "weyl"}),
        (d23.series, {"lowest_weight": [str(x) for x in d23.prefix], "case": "d23"}),
    ]
    for series, fields in cases:
        expected = json.dumps({**series_to_json_obj(series), **fields},
                              sort_keys=True, indent=2) + "\n"
        assert series_to_json(series, **fields) == expected, (series, fields)


def test_series_inputs_are_exact():
    # a float coefficient or label was read as its binary Fraction:
    # weight_from_labels([0.1, 1, 1]) had 32425917317067571/36028797018963968
    for bad in (0.5, "1/2"):
        with pytest.raises(ValueError, match="ints or Fractions"):
            CharacterSeries(1, 2, {(1,): bad})
        with pytest.raises(ValueError, match="ints or Fractions"):
            weight_from_labels([bad, 1, 1])
    assert weight_from_labels([Fraction(1, 2), True, 1]) == weight_from_labels(
        [Fraction(1, 2), 1, 1])
    # an exponent was truncated: CharacterSeries(1, 2, {(1.5,): 1}) stored (1,)
    series = verma_character(2, 3)
    assert series.coefficient((1, 1)) == partition_count(2, (1, 1)) == 2
    for exp in ((1.5, 0), (Fraction(1), 1), (True, 0)):
        with pytest.raises(ValueError, match="entries must be ints"):
            series.coefficient(exp)
        with pytest.raises(ValueError, match="entries must be ints"):
            partition_count(2, exp)
