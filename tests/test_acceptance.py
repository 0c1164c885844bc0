"""Acceptance gate: one timed check per contract criterion.

Each function covers one numbered criterion and asserts both exact results
and the stated wall-clock budget, so a verbose run shows one pass/fail
line per criterion.
"""

import hashlib
import pathlib
import random
import time
from fractions import Fraction

from ospuir.characters import (
    p_mul,
    partition_count,
    sl3_character,
    unitary_character,
    verma_character,
    weight_from_labels,
)
from ospuir.enveloping.module import engine_for, gram_psd_check, module_vector_to_text
from ospuir.enveloping.singular import (
    PRINTED_IDS,
    find_singular,
    norm_polynomial_in_d,
    printed_regime,
    rational_zero_set,
    verify_singular,
    verify_subsingular,
)
from ospuir.unitarity import classify, unitarity_grid
from ospuir.weights import Signature, labels_of_weight, mn_at_reduction, reduction_points
from ospuir.weyl import (
    compose,
    dot_act,
    from_word,
    generate,
    identity,
    multiplet_orbit,
    multiplet_to_dot,
    simple_reflection,
)

from test_characters import geometric, one, one_minus

from test_weyl import B3_WORDS


def classification_oracle_n3(d, a1, a2):
    """The rank-three case split, restated independently of the library."""
    if a1 != 0:
        return d >= 2 + Fraction(a1 + a2, 2)
    if a2 != 0:
        return d >= Fraction(3, 2) + Fraction(a2, 2) or d == 1 + Fraction(a2, 2)
    return d >= 1 or d == Fraction(1, 2) or d == 0


def test_criterion_1_unitarity_table():
    t0 = time.monotonic()
    for a1 in range(4):
        for a2 in range(4):
            for k in range(21):
                d = Fraction(k, 4)
                v = classify(Signature(3, d, (a1, a2)))
                assert v.unitary == classification_oracle_n3(d, a1, a2), (a1, a2, d)
                if a1 != 0:
                    if d == 2 + Fraction(a1 + a2, 2):
                        assert v.branch == "boundary"
                    assert v.audit["isolated_points"] == ()
                elif a2 != 0:
                    if d == Fraction(3, 2) + Fraction(a2, 2):
                        assert v.branch == "boundary"
                    if d == 1 + Fraction(a2, 2):
                        assert v.branch == "isolated"
                else:
                    if d == 1:
                        assert v.branch == "boundary"
                    if d == Fraction(1, 2):
                        assert v.branch == "isolated"
                    if d == 0:
                        assert v.branch == "trivial"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


CRITERION_2_DIGEST = pathlib.Path(__file__).parent / "golden" / "criterion2_sha256.txt"


def _report_line(report):
    """One cell of the scan: signature, verdict, witness offset, norm, vector."""
    sig = report.sig
    offset = ",".join(map(str, report.witness_offset)) if report.witness_offset else "-"
    vector = module_vector_to_text(report.witness) if report.witness else "-"
    verdict = "psd" if report.psd else "witness"
    return (f"{sig.n} {','.join(map(str, sig.a))} {sig.d} {verdict} {offset} "
            f"{report.witness_norm} {vector}")


def test_criterion_2_gram_cross_validation():
    t0 = time.monotonic()
    d_values = [Fraction(k, 4) for k in range(17)]
    rows = unitarity_grid(3, ((0, 1, 2), (0, 1, 2)), d_values)
    assert len(rows) == 9 * 17
    lines = []
    for row in rows:
        report = gram_psd_check(row.sig, max_level=4)
        assert report.psd == row.verdict.unitary, row.sig
        if not row.verdict.unitary:
            assert report.witness is not None
            assert report.witness_norm < 0
            eng = engine_for(row.sig)
            assert eng.norm(report.witness) == report.witness_norm
        lines.append(_report_line(report))
    # every verdict, witness offset, witness vector and norm, as the scan
    # gave them on whole blocks, before the scan judged kept rows only
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CRITERION_2_DIGEST.read_text().strip()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 2 took {elapsed:.2f}s"


def test_rank4_gram_cross_validation():
    # criterion 2 one rank up, at a = 0: the closed form and the Gram scan
    # agree at every d = k/4 to levels 4 and 5, and every nonunitary cell's
    # witness re-norms negative through its engine.  The scan judges the
    # noncompact rows of each block, so rank 4 costs about what rank 3 does.
    t0 = time.monotonic()
    witnesses = 0
    for max_level in (4, 5):
        for k in range(25):
            sig = Signature(4, Fraction(k, 4), (0, 0, 0))
            report = gram_psd_check(sig, max_level=max_level)
            assert report.psd == classify(sig).unitary, (sig, max_level)
            if not report.psd:
                assert report.witness is not None and report.witness_norm < 0
                assert engine_for(sig).norm(report.witness) == report.witness_norm
                witnesses += 1
    assert witnesses == 2 * 3     # d = 1/4, 3/4, 5/4 at each level
    elapsed = time.monotonic() - t0
    assert elapsed < 15.0, f"rank-4 cross-validation took {elapsed:.2f}s"


def test_criterion_3_weyl_group():
    t0 = time.monotonic()
    els = generate(3)
    assert len(els) == 48

    seen = set()
    for word in B3_WORDS:
        w = from_word(3, word)
        assert w.length == len(word)
        seen.add((w.perm, w.signs))
    assert len(seen) == 48

    s = {k: simple_reflection(3, k) for k in (1, 2, 3)}
    e = identity(3)

    def power(u, times):
        acc = e
        for _ in range(times):
            acc = compose(acc, u)
        return (acc.perm, acc.signs)

    assert power(compose(s[1], s[2]), 3) == (e.perm, e.signs)
    assert power(compose(s[2], s[3]), 4) == (e.perm, e.signs)
    assert (compose(s[1], s[3]).perm, compose(s[1], s[3]).signs) == (
        compose(s[3], s[1]).perm, compose(s[3], s[1]).signs,
    )

    assert sum(1 for w in els if w.length == 9) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_4_character_identities():
    t0 = time.monotonic()
    # (a) the d23 character equals the three-factor closed form to degree 12
    nc = unitary_character("d23", maxdeg=12)
    closed = one(3)
    for e in ((0, 0, 1), (0, 1, 1), (1, 1, 1)):
        closed = p_mul(closed, geometric(e, 12), 12)
    assert nc.series.coeffs == closed

    # (b) d2eq13 numerator is exactly 1 - t1 t2^2 t3^3
    maxdeg = 8
    numerator = unitary_character("d2eq13", maxdeg=maxdeg).series.coeffs
    for e in ((1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 2, 2), (1, 1, 2), (0, 1, 2)):
        numerator = p_mul(numerator, one_minus(3, e), maxdeg)
    assert numerator == {(0, 0, 0): Fraction(1), (1, 2, 3): Fraction(-1)}

    # (c) the two printed compact characters
    assert sl3_character(2, 1).coeffs == {
        (0, 0): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1),
    }
    assert sl3_character(1, 2).coeffs == {
        (0, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1),
    }

    # (d) dimension formula for labels up to 6
    for m1 in range(1, 7):
        for m2 in range(1, 7):
            total = sum(sl3_character(m1, m2).coeffs.values())
            assert total == Fraction(m1 * m2 * (m1 + m2), 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_5_verma_partition_oracle():
    t0 = time.monotonic()
    maxdeg = 8
    series = verma_character(3, maxdeg)
    checked = 0
    for e1 in range(maxdeg + 1):
        for e2 in range(maxdeg + 1 - e1):
            for e3 in range(maxdeg + 1 - e1 - e2):
                mu = (e1, e2, e3)
                assert series.coefficient(mu) == partition_count(3, mu), mu
                checked += 1
    assert checked == 165
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_6_printed_vector_verification():
    t0 = time.monotonic()
    for vid in PRINTED_IDS:
        sig = printed_regime(vid)
        if vid == "subsing_d13":
            assert verify_subsingular(vid, sig), vid
        else:
            assert verify_singular(vid, sig), vid

    betas = {
        "sv_d1": (1, 0, 0),
        "sv_d12": (1, 1, 0),
        "sv_d2": (0, 1, 0),
        "sv_d13": (1, 0, 1),
        "sv_d23": (0, 1, 1),
    }
    for vid, beta in betas.items():
        sig = printed_regime(vid)
        space = find_singular(sig, beta, 1)
        assert len(space) == 1, vid
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.2f}s"


def test_criterion_7_norm_polynomials():
    t0 = time.monotonic()
    coeffs = norm_polynomial_in_d("subsing_d13", (0, 0))
    # proportional to d(d-1)(2d-1) = 2d^3 - 3d^2 + d
    base = [Fraction(0), Fraction(1), Fraction(-3), Fraction(2)]
    scale = coeffs[3] / base[3]
    assert coeffs == [c * scale for c in base]
    roots, _ = rational_zero_set(coeffs)
    assert roots == {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 1}

    roots, _ = rational_zero_set(norm_polynomial_in_d("sv_d12", (0, 2)))
    assert roots == {Fraction(5, 2): 1, Fraction(2): 1}

    # at a=(1,1) the engine norm factors as d(d-2); both zeros are cross
    # checked against one-dimensional singular kernels at those points
    roots, _ = rational_zero_set(norm_polynomial_in_d("sv_d12", (1, 1)))
    assert roots == {Fraction(0): 1, Fraction(2): 1}
    assert len(find_singular(Signature(3, Fraction(2), (1, 1)), (1, 1, 0), 1)) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.2f}s"


def test_criterion_8_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(97)

    # m_i = 2 m_ii on random signatures up to rank 6
    from ospuir.weights import reducibility_report

    for _ in range(100):
        n = rng.randint(2, 6)
        a = tuple(rng.randint(0, 4) for _ in range(n - 1))
        d = Fraction(rng.randint(0, 12), rng.choice((1, 2, 4)))
        rep = reducibility_report(Signature(n, d, a))
        odd = {e.i: e.m_value for e in rep.entries if e.family == "delta_i"}
        dbl = {e.i: e.m_value for e in rep.entries if e.family == "2delta_i"}
        assert odd.keys() == dbl.keys()
        for i in odd:
            assert odd[i] == 2 * dbl[i]

    # full ordering chains of the reduction points
    for _ in range(100):
        n = rng.randint(3, 5)
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
                        assert pts.value(i) > pts.value(j, k) > pts.value(l)

    # last-label value at every reduction point, ranks 3..5
    for n in (3, 4, 5):
        for trial in range(10):
            m = tuple(rng.randint(1, 5) for _ in range(n - 1))
            for i in range(1, n):
                assert mn_at_reduction(m, i) == 1 - 2 * sum(m[i - 1:])
            assert mn_at_reduction(m, n) == 1
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    expect = 1 - 2 * sum(m[j - 1:]) - sum(m[i - 1:j - 1])
                    assert mn_at_reduction(m, i, j) == expect

    # the printed dot-action example in label coordinates
    moved = dot_act(simple_reflection(3, 3), weight_from_labels((1, 0, 1)))
    assert labels_of_weight(moved) == (1, 1, -1)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 8 took {elapsed:.2f}s"


def test_criterion_9_multiplet_graphs():
    t0 = time.monotonic()
    assert len(multiplet_orbit(weight_from_labels((1, 1, 1))).nodes) == 48
    assert len(multiplet_orbit(weight_from_labels((1, 0, 1))).nodes) == 24
    assert len(multiplet_orbit(weight_from_labels((1, 1, 0))).nodes) == 24
    lam0 = weight_from_labels((1, 1, 1))
    first = multiplet_to_dot(multiplet_orbit(lam0))
    second = multiplet_to_dot(multiplet_orbit(lam0))
    assert first == second
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 9 took {elapsed:.2f}s"
