"""Signatures, lowest weights, reducibility conditions, reduction points."""

import random

import pytest
from fractions import Fraction

from ospuir.enveloping.module import engine_for
from ospuir.root_system import pairing
from ospuir.weights import (
    Signature,
    dynkin_labels,
    labels_of_weight,
    lowest_weight,
    mn_at_reduction,
    reducibility_report,
    reduction_points,
)
from ospuir.unitarity import subsingular_points


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(3, Fraction(1), (1,))
    with pytest.raises(ValueError):
        Signature(3, Fraction(1), (-1, 0))
    # d is exact: an int, a Fraction or a "p/q" string, never a float
    for d in (Fraction(5, 2), "5/2"):
        assert Signature(3, d, (0, 2)).d == Fraction(5, 2)
    assert Signature(3, 2, (0, 2)).d == Fraction(2)
    for d in (0.1, 2.5, 2.0):
        with pytest.raises(ValueError, match="float"):
            Signature(3, d, (0, 0))
    # labels given as a list are kept as a tuple, so the signature hashes
    # and finds the engine of its label set
    sig = Signature(3, 1, [0, 0])
    assert sig.a == (0, 0) and sig == Signature(3, 1, (0, 0))
    assert hash(sig) == hash(Signature(3, 1, (0, 0)))
    assert engine_for(sig) is engine_for(Signature(3, 1, (0, 0)))
    # a string d goes through parse_rational: an integer or "p/q", nothing else
    for d in ("-3/2", " -3/2 ", "-6/4"):
        assert Signature(3, d, (0, 0)).d == Fraction(-3, 2)
    assert Signature(3, "7", (0, 0)).d == Fraction(7)
    for d in ("1.5", "1e1", "3/0", "inf", "", "3/-2"):
        with pytest.raises(ValueError, match="exact rational"):
            Signature(3, d, (0, 0))
    # a bool is an int to Python but no d and no label
    for d in (True, False):
        with pytest.raises(ValueError, match="bool"):
            Signature(3, d, (0, 0))
    for a in ((True, 0), (0, False)):
        with pytest.raises(ValueError, match="labels"):
            Signature(3, 1, a)


def test_lowest_weight_components():
    # lambda_i = d + (a_1+...+a_{i-1} - a_i-...-a_{n-1})/2
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 5))
        a = tuple(rng.randint(0, 4) for _ in range(n - 1))
        d = Fraction(rng.randint(0, 12), rng.choice((1, 2, 4)))
        lam = lowest_weight(Signature(n, d, a))
        for i in range(1, n + 1):
            lo = sum(a[: i - 1])
            hi = sum(a[i - 1 :])
            assert lam[i - 1] == d + Fraction(lo - hi, 2)


def test_pairing_forms_against_closed_expressions():
    # (Lambda, beta-vee) for the three noncompact families and the compact one
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice((3, 4))
        a = tuple(rng.randint(0, 3) for _ in range(n - 1))
        d = Fraction(rng.randint(0, 9), 2)
        lam = lowest_weight(Signature(n, d, a))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                minus = tuple(
                    1 if k == i else (-1 if k == j else 0) for k in range(1, n + 1)
                )
                plus = tuple(
                    1 if k == i else (1 if k == j else 0) for k in range(1, n + 1)
                )
                assert pairing(lam, minus) == -sum(a[i - 1 : j - 1])
                assert pairing(lam, plus) == (
                    2 * d + sum(a[: i - 1]) - sum(a[j - 1 :])
                )
            delta_i = tuple(1 if k == i else 0 for k in range(1, n + 1))
            double_i = tuple(2 if k == i else 0 for k in range(1, n + 1))
            # odd coroot is 2*delta_i, long coroot is delta_i
            assert pairing(lam, delta_i) == 2 * pairing(lam, double_i)


def test_dynkin_labels_roundtrip():
    sig = Signature(3, Fraction(5, 2), (0, 2))
    labels = dynkin_labels(sig)
    assert labels == (1, 3, -6)
    assert labels_of_weight(lowest_weight(sig)) == labels
    # m_k = 1 + a_k for the first n-1 slots
    assert labels[0] == 1 + sig.a[0]
    assert labels[1] == 1 + sig.a[1]


def test_reducibility_report_families():
    rep = reducibility_report(Signature(3, Fraction(2), (0, 0)))
    families = [e.family for e in rep.entries]
    assert families.count("delta_i-delta_j") == 3
    assert families.count("delta_i+delta_j") == 3
    assert families.count("delta_i") == 3
    assert families.count("2delta_i") == 3
    sat = {(e.family, e.i, e.j) for e in rep.entries if e.satisfied}
    # at d = d_1 = 2 the odd root delta_1 fires, plus the three compact roots
    assert ("delta_i", 1, None) in sat
    assert ("delta_i+delta_j", 1, 2) not in sat
    assert ("delta_i-delta_j", 1, 2) in sat


def test_m_equals_twice_double_m():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice((2, 3, 4, 5, 6))
        a = tuple(rng.randint(0, 5) for _ in range(n - 1))
        d = Fraction(rng.randint(0, 14), rng.choice((1, 2, 4)))
        rep = reducibility_report(Signature(n, d, a))
        odd = {e.i: e.m_value for e in rep.entries if e.family == "delta_i"}
        dbl = {e.i: e.m_value for e in rep.entries if e.family == "2delta_i"}
        for i in odd:
            assert odd[i] == 2 * dbl[i]


def test_each_reduction_point_fires_its_root():
    # at d = pts.value(i, j) the root named by (i, j) has m_beta = 1
    rng = random.Random(31)
    for n in range(2, 7):
        for _ in range(6):
            a = tuple(rng.randint(0, 5) for _ in range(n - 1))
            pts = reduction_points(n, a)
            for e0 in reducibility_report(Signature(n, Fraction(0), a)).entries:
                if e0.family == "delta_i-delta_j":
                    continue
                rep = reducibility_report(Signature(n, pts.value(e0.i, e0.j), a))
                match = [e for e in rep.entries
                         if (e.family, e.i, e.j) == (e0.family, e0.i, e0.j)]
                assert [e.m_value for e in match] == [1], (n, a, e0.family, e0.i, e0.j)


def test_double_root_entry_names_its_own_point():
    # The 2 delta_i entry carries j == i, the key of its reduction point:
    # at a = (0, 2) the 2 delta_1 point is 5/2, not the delta_1 point 3.
    pts = reduction_points(3, (0, 2))
    entries = reducibility_report(Signature(3, Fraction(0), (0, 2))).entries
    (e,) = [e for e in entries if e.family == "2delta_i" and e.i == 1]
    assert (e.i, e.j) == (1, 1)
    assert pts.value(e.i, e.j) == Fraction(5, 2)
    assert pts.value(1) == 3
    assert {(e.i, e.j) for e in entries if e.family == "delta_i"} == {
        (1, None), (2, None), (3, None)}


def test_reduction_points_table_n3():
    pts = reduction_points(3, (0, 0))
    assert pts.value(1) == 2
    assert pts.value(1, 2) == Fraction(3, 2)
    assert pts.value(1, 1) == Fraction(3, 2)
    assert pts.value(2) == 1
    assert pts.value(1, 3) == 1
    assert pts.value(2, 3) == Fraction(1, 2)
    assert pts.value(3) == 0

    pts = reduction_points(3, (1, 1))
    assert pts.value(1) == 3
    assert pts.value(1, 2) == 2
    assert pts.value(2) == 1

    pts = reduction_points(3, (0, 2))
    assert pts.value(1) == 3
    assert pts.value(1, 2) == Fraction(5, 2)
    assert pts.value(2) == 2
    assert pts.value(1, 3) == 1
    assert pts.value(2, 3) == Fraction(1, 2)


def test_point_names_and_coincidence_labels():
    pts = reduction_points(3, (0, 0))
    assert pts.point_name(1) == "d1"
    assert pts.point_name(1, 1) == "d11"
    assert pts.point_name(1, 3) == "d13"
    assert pts.labels_at(Fraction(1)) == "d2=d13"
    assert pts.labels_at(Fraction(3, 2)) == "d11=d12"
    assert pts.labels_at(Fraction(7)) == ""
    # from rank 10 up the two indices are comma-separated, here and in the
    # subsingular chains
    pts = reduction_points(10, (0,) * 9)
    assert pts.point_name(1, 3) == "d1,3" and pts.point_name(2) == "d2"
    assert subsingular_points(10, (0,) * 9)[0][1] == "d2=d1,3"


def test_first_reduction_point_closed_form():
    # d_1 = n - 1 + (a_1 + ... + a_{n-1})/2
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 5))
        a = tuple(rng.randint(0, 4) for _ in range(n - 1))
        pts = reduction_points(n, a)
        assert pts.value(1) == n - 1 + Fraction(sum(a), 2)


def test_reduction_point_orderings():
    # d_1 > d_2 > ... > d_n; rows of fixed i decrease in j and vice versa;
    # d_i > d_jk > d_l whenever i <= j < k <= l
    rng = random.Random(29)
    for _ in range(60):
        n = rng.choice((3, 4, 5))
        a = tuple(rng.randint(0, 4) for _ in range(n - 1))
        pts = reduction_points(n, a)
        for i in range(1, n):
            assert pts.value(i) > pts.value(i + 1)
        for i in range(1, n + 1):
            for j in range(i + 1, n):
                assert pts.value(i, j) > pts.value(i, j + 1)
        for j in range(1, n + 1):
            for i in range(1, j - 1):
                assert pts.value(i, j) > pts.value(i + 1, j)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                for k in range(j + 1, n + 1):
                    for l in range(k, n + 1):
                        assert pts.value(i) > pts.value(j, k)
                        assert pts.value(j, k) > pts.value(l)


def test_mn_at_reduction_closed_forms():
    # odd points: m_n(d_i) = 1 - 2m_i - ... - 2m_{n-1}
    # sum points: m_n(d_ij) = 1 - 2m_j - ... - 2m_{n-1} - m_i - ... - m_{j-1}
    rng = random.Random(31)
    for _ in range(30):
        n = rng.choice((3, 4, 5))
        m = tuple(rng.randint(1, 5) for _ in range(n - 1))
        for i in range(1, n):
            assert mn_at_reduction(m, i) == 1 - 2 * sum(m[i - 1 :])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                expect = 1 - 2 * sum(m[j - 1 :]) - sum(m[i - 1 : j - 1])
                assert mn_at_reduction(m, i, j) == expect
    # the last odd point sits at m_n = 1
    assert mn_at_reduction((1, 1), 3) == 1
    assert mn_at_reduction((2, 4), 3) == 1


def test_mn_at_reduction_rejects_bad_labels():
    with pytest.raises(ValueError):
        mn_at_reduction((0, 1), 1)
    with pytest.raises(ValueError):
        mn_at_reduction((1, Fraction(3, 2)), 1)
    with pytest.raises(ValueError):
        mn_at_reduction((True, 1), 1)
