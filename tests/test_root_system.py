"""Root data for B(0,n): positive systems, rho, coroots, basis changes."""

import random
import tracemalloc
from decimal import Decimal

import pytest
from fractions import Fraction

from ospuir import linalg, root_system, weyl
from ospuir.enveloping import algebra
from ospuir.enveloping.module import level_offsets
from ospuir.root_system import (
    EVEN,
    FAMILY_COMPACT,
    FAMILY_DOUBLE,
    FAMILY_ODD,
    FAMILY_SUM,
    ODD,
    RANKS,
    RootVector,
    build_root_system,
    check_exact,
    check_rank,
    cleared,
    coroot,
    delta_to_simple,
    inner,
    int_tuple,
    is_positive,
    pairing,
    partition_count,
)
from ospuir.unitarity import subsingular_points, unitarity_grid
from ospuir.weights import Signature


def test_counts_n2():
    rs = build_root_system(2)
    assert len(rs.positive_even) == 4
    assert len(rs.positive_odd) == 2
    assert len(rs.restricted_positive) == 4


def test_counts_n3():
    rs = build_root_system(3)
    # delta_i +- delta_j (3 pairs each) plus 2*delta_i
    assert len(rs.positive_even) == 9
    assert len(rs.positive_odd) == 3
    # restricted system is the B_3 positive system
    assert len(rs.restricted_positive) == 9
    assert len(rs.simple) == 3


def test_root_coordinate_invariants():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        seen = set()
        for root in rs.positive_even + rs.positive_odd:
            assert root.coords not in seen
            seen.add(root.coords)
            nonzero = [c for c in root.coords if c]
            assert all(c == int(c) and -2 <= c <= 2 for c in root.coords)
            assert 1 <= len(nonzero) <= 2
            neg = tuple(-c for c in root.coords)
            assert neg not in seen
        for root in rs.positive_odd:
            assert sorted(abs(c) for c in root.coords if c) == [1]
            assert root.parity == "odd"


def test_rho_n3():
    rs = build_root_system(3)
    assert rs.rho == (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))


def test_rho_on_simple_roots_is_one():
    for n in (2, 3, 4, 5):
        rs = build_root_system(n)
        for alpha in rs.simple:
            assert pairing(rs.rho, alpha.coords) == 1


def test_rho_is_half_sum_difference():
    # rho = (1/2) sum of even positives - (1/2) sum of odd positives
    for n in (2, 3, 4):
        rs = build_root_system(n)
        acc = [Fraction(0)] * n
        for root in rs.positive_even:
            acc = [x + Fraction(c, 2) for x, c in zip(acc, root.coords)]
        for root in rs.positive_odd:
            acc = [x - Fraction(c, 2) for x, c in zip(acc, root.coords)]
        assert tuple(acc) == rs.rho


def test_inner_is_dot_product():
    assert inner((1, 2), (3, 4)) == 11
    assert inner((Fraction(1, 2), 0, 1), (2, 5, 3)) == 4


def test_inner_rank_mismatch():
    with pytest.raises(ValueError):
        inner((1, 2), (1, 2, 3))


def test_coroot_long_and_odd():
    assert coroot((1, -1, 0)) == (1, -1, 0)
    assert coroot((0, 0, 1)) == (0, 0, 2)
    assert coroot((2, 0, 0)) == (1, 0, 0)


def test_family_coroots_are_the_general_coroot():
    # each family's coroot is built on ints as beta, 2 beta or beta / 2; it
    # equals coroot() of its root, with Fraction coordinates
    scale = {FAMILY_COMPACT: 1, FAMILY_SUM: 1, FAMILY_ODD: 2, FAMILY_DOUBLE: Fraction(1, 2)}
    for n in range(1, 17):
        for family, _i, _j, root, cv in build_root_system(n).families:
            assert cv == coroot(root.coords) == tuple(scale[family] * c for c in root.coords)
            assert all(type(c) is Fraction for c in root.coords + cv), (n, family)


def test_coroot_zero_rejected():
    with pytest.raises(ValueError):
        coroot((0, 0, 0))


def test_root_vector_parity_is_checked():
    assert RootVector((Fraction(1),), ODD).parity == ODD
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
        RootVector((Fraction(1),), "bosonic")


def test_delta_to_simple_examples():
    assert delta_to_simple((0, 0, 1)) == (0, 0, 1)
    assert delta_to_simple((1, 1, 0)) == (1, 2, 2)
    assert delta_to_simple((0, 0, 0)) == (0, 0, 0)


def simple_to_delta(coeffs):
    """The inverse of delta_to_simple: successive differences of the
    simple-basis coefficients, which are prefix sums of delta coordinates."""
    return tuple(c - p for p, c in zip((0,) + tuple(coeffs[:-1]), coeffs))


def test_basis_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice((2, 3, 4, 5))
        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        assert simple_to_delta(delta_to_simple(v)) == v
        assert delta_to_simple(simple_to_delta(v)) == v


def test_is_positive_on_positive_lists():
    for n in (2, 3, 4):
        rs = build_root_system(n)
        for root in rs.positive_even + rs.positive_odd:
            assert is_positive(root.coords)
            assert not is_positive(tuple(-c for c in root.coords))


def test_pairing_linearity():
    rng = random.Random(11)
    beta = (1, 1, 0)
    for _ in range(20):
        u = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        s = tuple(x + y for x, y in zip(u, v))
        assert pairing(s, beta) == pairing(u, beta) + pairing(v, beta)


def _module_state(mod=root_system):
    """Sizes of a module's module-level containers and caches."""
    sizes = {}
    for name, value in vars(mod).items():
        if isinstance(value, (dict, list, set)):
            sizes[name] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
    return sizes


def cached_memo(cache, n):
    """cache(n), the memo a one-rank cache holds for rank n; AssertionError
    unless it already held rank n's."""
    misses = cache.cache_info().misses
    memo = cache(n)
    assert cache.cache_info().misses == misses, f"no rank-{n} memo was cached"
    return memo


def test_partition_count_leaves_no_growing_state():
    # each count lives only in its own call: after each round of calls at
    # ranks 2..6, with new weights every round, no module-level state has
    # grown, and counting a round again gives the same counts
    rng = random.Random(20261018)
    states = []
    for _ in range(3):
        calls = {n: [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(5)]
                 for n in range(2, 7)}
        counts = [partition_count(n, mu) for n, mus in calls.items() for mu in mus]
        states.append(_module_state())
        assert [partition_count(n, mu) for n, mus in calls.items() for mu in mus] == counts
    assert states[0] == states[1] == states[2]
    assert partition_count(6, (0, 0, 0, 0, 0, 1)) == 1


def test_partition_count_holds_one_box_of_ints():
    # the count holds the box below (2,)*8, its 3^8 cells, and no more
    tracemalloc.start()
    try:
        assert partition_count(8, (2,) * 8) == 9500
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# Every library entry point that checks a feature's rank, as a call at rank n.
RANK_ENTRY_POINTS = {
    "roots": (build_root_system, lambda n: Signature(n, 1, (0,) * max(n - 1, 0)),
              lambda n: partition_count(n, (-1,) * max(n, 0)),
              lambda n: subsingular_points(n, (0,) * max(n - 1, 0)),
              lambda n: level_offsets(n, 1),
              lambda n: unitarity_grid(n, [[0]] * max(n - 1, 0), [])),
    "engine": (algebra.structure_constants,),
    "weyl_group": (weyl.generate,),
    "multiplet": (lambda n: weyl.multiplet_orbit((Fraction(0),) * max(n, 0)),),
}


def test_one_rank_table_checked_before_any_work(monkeypatch):
    assert RANKS == {"roots": (1, 16), "engine": (2, 8), "weyl_group": (1, 6),
                     "multiplet": (1, 5)}
    for feature, (lo, hi) in RANKS.items():
        check_rank(feature, lo)
        check_rank(feature, hi)
        for bad in (lo - 1, hi + 1, float(lo), True, False):
            with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\] for {feature}, got"):
                check_rank(feature, bad)

    # the first step of each entry point's work fails, so a refusal with the
    # table's message shows that the rank check came before it
    def no_work(*args):
        raise AssertionError("work began before the rank check")

    monkeypatch.setattr(root_system, "RootVector", no_work)
    monkeypatch.setattr(algebra, "all_generators", no_work)
    monkeypatch.setattr(weyl, "simple_reflection", no_work)
    for feature, calls in RANK_ENTRY_POINTS.items():
        lo, hi = RANKS[feature]
        for n in (lo - 1, hi + 1):
            for call in calls:
                with pytest.raises(ValueError, match=f"for {feature}, got {n}$"):
                    call(n)


def _old_unit(n, i, c=1):
    v = [Fraction(0)] * n
    v[i] = Fraction(c)
    return v


def old_root_lists(n):
    """The root lists as nested loops by parity built them: (positive_even,
    positive_odd, restricted_positive, simple)."""
    even = []
    restricted = []
    for sign in (-1, 1):
        for i in range(n):
            for j in range(i + 1, n):
                v = _old_unit(n, i)
                v[j] = Fraction(sign)
                even.append(RootVector(tuple(v), EVEN))
                restricted.append(even[-1])
    odd = []
    for i in range(n):
        even.append(RootVector(tuple(_old_unit(n, i, 2)), EVEN))
        r = RootVector(tuple(_old_unit(n, i)), ODD)
        odd.append(r)
        restricted.append(r)
    simple = []
    for j in range(n - 1):
        v = _old_unit(n, j)
        v[j + 1] = Fraction(-1)
        simple.append(RootVector(tuple(v), EVEN))
    simple.append(RootVector(tuple(_old_unit(n, n - 1)), ODD))
    return tuple(even), tuple(odd), tuple(restricted), tuple(simple)


def old_root_rows(n):
    """(family, i, j, root, coroot) as a second listing of the families
    built them, finding each root by its coordinates in the parity lists."""
    even, odd, _restricted, _simple = old_root_lists(n)
    by_coords = {r.coords: r for r in even + odd}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    specs = (
        [(FAMILY_COMPACT, i, j, {i: 1, j: -1}) for i, j in pairs]
        + [(FAMILY_SUM, i, j, {i: 1, j: 1}) for i, j in pairs]
        + [(FAMILY_ODD, i, None, {i: 1}) for i in range(1, n + 1)]
        + [(FAMILY_DOUBLE, i, i, {i: 2}) for i in range(1, n + 1)]
    )
    rows = []
    for family, i, j, coords in specs:
        root = by_coords[tuple(Fraction(coords.get(k, 0)) for k in range(1, n + 1))]
        rows.append((family, i, j, root, coroot(root.coords)))
    return tuple(rows)


def test_family_table_matches_the_parity_loops():
    # the one family table gives every field the parity loops and the
    # coordinate lookup gave, in the same order, at every supported rank
    lo, hi = RANKS["roots"]
    for n in range(lo, hi + 1):
        rs = build_root_system(n)
        even, odd, restricted, simple = old_root_lists(n)
        assert rs.n == n
        assert rs.positive_even == even
        assert rs.positive_odd == odd
        assert rs.restricted_positive == restricted
        assert rs.simple == simple
        assert rs.rho == tuple(Fraction(2 * (n - i) + 1, 2) for i in range(1, n + 1))
        assert rs.families == old_root_rows(n)
        assert rs.simple_coroots == tuple(coroot(a.coords) for a in simple)
        assert rs.restricted_exps == tuple(
            tuple(int(x) for x in delta_to_simple(r.coords)) for r in restricted
        )
        assert build_root_system(n) is rs


def test_one_home_for_the_exact_input_rules():
    # int_tuple passes ints through and refuses every other entry, never
    # truncating; check_exact takes ints, bools and Fractions
    assert int_tuple([3, 0, -1]) == (3, 0, -1)
    assert int_tuple(()) == ()
    for bad in (1.5, 2.0, Fraction(2), Fraction(1, 2), True, "2", Decimal(2)):
        with pytest.raises(ValueError, match=f"ints, not the {type(bad).__name__}"):
            int_tuple((0, bad))
    check_exact([1, True, Fraction(1, 3)])
    for bad in (0.5, "1/2", Decimal("0.5")):
        with pytest.raises(ValueError, match="ints or Fractions"):
            check_exact([Fraction(1), bad])
    # linalg reads the same rule; it is not a copy
    assert linalg.check_exact is check_exact
    # cleared gives the lcm of the denominators and each value times it as
    # an int, in input order, and refuses what check_exact refuses
    assert cleared([Fraction(1, 2), 3, Fraction(-5, 6), 0, True]) == (6, [3, 18, -5, 0, 6])
    assert cleared([Fraction(4, 2), 7]) == (1, [2, 7])
    assert cleared([]) == (1, [])
    assert cleared({"x": Fraction(2, 3)}.values()) == (3, [2])
    s, ints = cleared([Fraction(1, 4), Fraction(1, 6)])
    assert (s, ints) == (12, [3, 2]) and all(type(x) is int for x in ints)
    for bad in (0.5, "1/2", Decimal("0.5"), 2.0):
        with pytest.raises(ValueError, match="ints or Fractions"):
            cleared([Fraction(1, 3), bad])
