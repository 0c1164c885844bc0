"""Unitarity classification against the closed-form case analysis."""

import itertools
import random
from fractions import Fraction

import pytest

from ospuir import unitarity
from ospuir.weights import Signature, point_name, reduction_points
from ospuir.unitarity import classify, subsingular_points, unitarity_grid

AUDIT_KEYS = {"leading_zero_count", "kappa", "threshold", "isolated_points", "note"}


def expected_unitary_n3(d, a1, a2):
    """Independent restatement of the three n=3 case rows."""
    if a1 != 0:
        return d >= 2 + Fraction(a1 + a2, 2)
    if a2 != 0:
        return d >= Fraction(3, 2) + Fraction(a2, 2) or d == 1 + Fraction(a2, 2)
    return d >= 1 or d == Fraction(1, 2) or d == 0


def test_classify_named_cases():
    v = classify(Signature(3, Fraction(3), (1, 1)))
    assert v.unitary and v.branch == "boundary"
    assert v.governing_point == ("d1", Fraction(3))

    v = classify(Signature(3, Fraction(2), (0, 2)))
    assert v.unitary and v.branch == "isolated"
    assert v.governing_point == ("d2", Fraction(2))

    v = classify(Signature(3, Fraction(3, 10), (0, 0)))
    assert not v.unitary and v.branch == "nonunitary"

    v = classify(Signature(3, Fraction(0), (0, 0)))
    assert v.unitary and v.branch == "trivial"

    v = classify(Signature(3, Fraction(1, 2), (0, 0)))
    assert v.unitary and v.branch == "isolated"

    v = classify(Signature(3, Fraction(5, 2), (1, 0)))
    assert v.unitary and v.branch == "boundary"
    assert v.governing_point == ("d1", Fraction(5, 2))


def test_classify_matches_case_rows_on_grid():
    for a1 in range(4):
        for a2 in range(4):
            for k in range(0, 21):
                d = Fraction(k, 4)
                v = classify(Signature(3, d, (a1, a2)))
                assert v.unitary == expected_unitary_n3(d, a1, a2), (a1, a2, d)


def test_branch_invariants():
    rng = random.Random(61)
    for _ in range(200):
        a = (rng.randint(0, 3), rng.randint(0, 3))
        d = Fraction(rng.randint(0, 16), rng.choice((1, 2, 4)))
        v = classify(Signature(3, d, a))
        assert set(v.audit.keys()) == AUDIT_KEYS
        if v.branch == "continuous":
            assert v.unitary and d > v.audit["threshold"]
        elif v.branch == "boundary":
            assert v.unitary and d == v.audit["threshold"]
        elif v.branch == "isolated":
            assert v.unitary and d in v.audit["isolated_points"]
        elif v.branch == "trivial":
            assert v.unitary and d == 0 and a == (0, 0)
        else:
            assert v.branch == "nonunitary" and not v.unitary


def test_kappa_counts_leading_zero_pairs():
    assert classify(Signature(3, Fraction(5), (1, 1))).kappa == 0
    assert classify(Signature(3, Fraction(5), (0, 2))).kappa == Fraction(1, 2)
    assert classify(Signature(3, Fraction(5), (0, 0))).kappa == 1
    assert classify(Signature(3, Fraction(5), (2, 0))).kappa == 0
    # the first nonzero label sits right after the leading zeros
    for a, first in (((1, 1), 1), ((0, 2), 2), ((0, 0), None), ((2, 0), 1)):
        assert classify(Signature(3, Fraction(5), a)).first_nonzero_label == first
    assert classify(Signature(4, Fraction(5), (0, 0, 3))).first_nonzero_label == 3


def test_first_label_branch_has_no_isolated_points():
    # with a_1 != 0 unitarity is exactly the closed half-line above d_1
    for a1 in (1, 2, 3):
        for a2 in (0, 1, 2):
            pts = reduction_points(3, (a1, a2))
            d1 = pts.value(1)
            for step in range(-4, 5):
                d = d1 + Fraction(step, 4)
                if d < 0:
                    continue
                v = classify(Signature(3, d, (a1, a2)))
                assert v.unitary == (d >= d1)
                assert v.audit["isolated_points"] == ()


def test_all_zero_labels_general_rank():
    # continuous branch for d >= (n-1)/2 with n-1 isolated points below
    for n in range(2, 7):
        a = (0,) * (n - 1)
        v = classify(Signature(n, Fraction(n - 1, 2), a))
        assert v.unitary and v.branch == "boundary"
        iso = v.audit["isolated_points"]
        assert len(iso) == n - 1
        assert iso == tuple(Fraction(n - 2 - k, 2) for k in range(n - 1))
        for p in iso:
            got = classify(Signature(n, p, a))
            assert got.unitary
            assert got.branch == ("trivial" if p == 0 else "isolated")
        for p in iso:
            off = p + Fraction(1, 4)
            if off < Fraction(n - 1, 2):
                assert not classify(Signature(n, off, a)).unitary


def _subsingular_by_family(n, a):
    """The two subsingular families as two separate loops, as written
    before they became one loop over e."""
    def ext(k):
        return a[k - 1] if 1 <= k <= n - 1 else 0

    def run_of_zeros(upto):
        return all(ext(k) == 0 for k in range(1, upto + 1))

    out = []
    for j in range(2, n):
        if not run_of_zeros(2 * j - 2):
            continue
        value = Fraction(n - j) + Fraction(sum(ext(k) for k in range(2 * j - 1, n)), 2)
        names = [f"d{j}"]
        for i in range(max(1, 2 * j - n), j):
            names.append(point_name(n, i, 2 * j - i))
        out.append((value, "=".join(names)))
    for j in range(2, n - 1):
        if not run_of_zeros(2 * j - 1):
            continue
        value = (Fraction(n - j) - Fraction(1, 2)
                 + Fraction(sum(ext(k) for k in range(2 * j, n)), 2))
        names = [point_name(n, j, j + 1)]
        for i in range(max(1, 2 * j + 1 - n), j):
            names.append(point_name(n, i, 2 * j + 1 - i))
        out.append((value, "=".join(names)))
    out.sort(key=lambda t: (-t[0], t[1]))
    return out


def test_subsingular_points():
    assert subsingular_points(3, (0, 0)) == [(Fraction(1), "d2=d13")]
    assert subsingular_points(3, (1, 1)) == []
    pts = subsingular_points(4, (0, 0, 0))
    assert (Fraction(3, 2), "d23=d14") in pts
    for n in range(2, 12):
        for a in itertools.product(range(3), repeat=n - 1):
            assert subsingular_points(n, a) == _subsingular_by_family(n, a), (n, a)
    # labels are refused as Signature refuses them
    for bad in ((0, -1), (True, 0), (0, Fraction(1, 2)), (0.5, 0)):
        with pytest.raises(ValueError, match="labels a_k must be nonnegative integers"):
            subsingular_points(3, bad)


def test_label_counts_are_checked():
    with pytest.raises(ValueError, match="expected 2 labels, got 1"):
        subsingular_points(3, (0,))
    with pytest.raises(ValueError, match="expected 2 label ranges, got 3"):
        unitarity_grid(3, ((0,), (0,), (0,)), [Fraction(1)])


def test_grid_shape_and_rows():
    d_values = [Fraction(k, 4) for k in range(17)]
    rows = unitarity_grid(3, ((0, 1), (0, 1)), d_values)
    assert len(rows) == 68
    by_key = {(r.sig.a, r.sig.d): r.verdict for r in rows}
    assert by_key[((0, 0), Fraction(1, 2))].branch == "isolated"
    assert by_key[((1, 0), Fraction(5, 2))].branch == "boundary"
    assert by_key[((1, 0), Fraction(5, 2))].governing_point == ("d1", Fraction(5, 2))
    for r in rows:
        assert r.verdict.unitary == expected_unitary_n3(r.sig.d, *r.sig.a)


def test_grid_reads_d_as_signature_does():
    # each d passes the Signature rule, then the cells run in d order
    rows = unitarity_grid(3, ((0,), (0,)), ["3/2", 1, Fraction(1, 2)])
    assert [r.sig.d for r in rows] == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    for bad in ("1.5", "1e0", True, 0.25):
        with pytest.raises(ValueError):
            unitarity_grid(3, ((0,), (0,)), ["3/2", bad])


def test_grid_solves_reduction_points_once_per_label_set(monkeypatch):
    # the points do not depend on d: one solve per label set, none for a
    # label set with no d, and every verdict is classify's
    solved = []

    def counted(n, a):
        solved.append(tuple(a))
        return reduction_points(n, a)

    d_values = [Fraction(k, 4) for k in range(17)]
    expected = [classify(Signature(3, d, (a1, a2)))
                for a1 in (0, 2) for a2 in (0, 1, 3) for d in d_values]
    monkeypatch.setattr(unitarity, "reduction_points", counted)
    rows = unitarity_grid(3, ((0, 2), (0, 1, 3)), d_values)
    assert solved == [(a1, a2) for a1 in (0, 2) for a2 in (0, 1, 3)]
    assert [r.verdict for r in rows] == expected
    solved.clear()
    assert unitarity_grid(3, ((0, 1), (0,)), []) == [] and solved == []
