"""End-to-end command-line checks, including golden serialized outputs."""

import io
import contextlib
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

from ospuir.characters import series_to_text, unitary_character, verma_character
import pytest

from ospuir import root_system
from ospuir.cli import MAX_GRAM_WORK, _check_gram_size, _check_series_terms, main
from ospuir.enveloping import module, singular
from ospuir.weights import reduction_points

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

GOLDEN_CASES = {
    "character_d1_m1_2_m2_1_maxdeg8.txt": (
        ["character", "--case", "d1", "--m1", "2", "--m2", "1", "--maxdeg", "8"],
        ("d1", {"m1": 2, "m2": 1}),
    ),
    "character_d12_m2_2_maxdeg8.txt": (
        ["character", "--case", "d12", "--m2", "2", "--maxdeg", "8"],
        ("d12", {"m2": 2}),
    ),
    "character_d2_m2_2_maxdeg8.txt": (
        ["character", "--case", "d2", "--m2", "2", "--maxdeg", "8"],
        ("d2", {"m2": 2}),
    ),
    "character_d2eq13_maxdeg8.txt": (
        ["character", "--case", "d2eq13", "--maxdeg", "8"],
        ("d2eq13", {}),
    ),
    "character_d23_maxdeg8.txt": (
        ["character", "--case", "d23", "--maxdeg", "8"],
        ("d23", {}),
    ),
}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_classify_examples():
    code, out = run(["classify", "--n", "3", "--a", "0,0", "--d", "1/2"])
    obj = json.loads(out)
    assert code == 0
    assert obj["branch"] == "isolated" and obj["unitary"] is True
    assert "d23" in obj["point"]["name"]
    assert obj["point"]["d"] == "1/2"

    code, out = run(["classify", "--n", "3", "--a", "1,1", "--d", "3"])
    obj = json.loads(out)
    assert code == 0 and obj["branch"] == "boundary"
    assert obj["point"] == {"name": "d1", "d": "3"}

    code, out = run(["classify", "--n", "3", "--a", "0,0", "--d", "1/4"])
    assert code == 0 and json.loads(out)["unitary"] is False

    code, out = run(["classify", "--n", "3", "--a", "1,1", "--d", "3",
                     "--format", "text"])
    assert out.splitlines() == [
        "signature [3; 1,1]",
        "unitary true",
        "branch boundary",
        "point d1",
    ]


def test_every_format_matches_its_pinned_digest():
    # captured before the command table replaced the per-command format chains
    lines = (GOLDEN_DIR / "cli_formats_sha256.txt").read_text().splitlines()
    pins = [line.split(" ", 2) for line in lines if not line.startswith("#")]
    assert len(pins) == 76
    for code, digest, argv in pins:
        with contextlib.redirect_stderr(io.StringIO()):
            got, out = run(argv.split())
        assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
            int(code), digest), argv


def test_usage_errors_exit_2(tmp_path):
    assert run(["classify", "--n", "3", "--a", "1,1", "--d", "3.0"])[0] == 2
    assert run(["character", "--case", "bogus", "--n", "3"])[0] == 2
    assert run(["character", "--case", "sl3", "--n", "3"])[0] == 2
    assert run(["classify", "--n", "3", "--a", "1,1,1", "--d", "2"])[0] == 2
    assert run(["verify", "--all", "--n", "4"])[0] == 2
    for case in ("d1", "d12", "d2eq13", "d2", "d23", "d2_eq_d13", "d2=d13", "sl3"):
        assert run(["character", "--case", case, "--n", "5", "--maxdeg", "2",
                    "--m1", "2", "--m2", "2"]) == (2, ""), case
    # labels are nonnegative, so a negative --a-max is no empty grid
    for n in ("1", "3"):
        for fmt in ("json", "csv"):
            assert run(["grid", "--n", n, "--a-max", "-1", "--format", fmt]) == (2, "")
    # compact_1 and compact_2 are the catalog's only compact vectors
    assert run(["verify", "--id", "compact_3"]) == (2, "")
    # no catalog choice; a label list that is no int list, is missing or
    # has the wrong count
    for argv, message in (
            (["verify"], "verify needs --all or --id"),
            (["multiplet", "--n", "3", "--labels", "1,x,1"],
             "not a comma-separated integer list: '1,x,1'"),
            (["multiplet", "--n", "3", "--labels", "1,1"], "need 3 labels"),
            (["character", "--case", "weyl", "--n", "3"], "case weyl needs --labels"),
            (["character", "--case", "weyl", "--n", "3", "--labels", "1,1"], "need 3 labels"),
            # an empty label list at --n 0 raised IndexError and exited 1
            (["multiplet", "--n", "0", "--labels", ""],
             "rank must be an integer in [1, 16] for roots, got 0"),
            (["character", "--case", "weyl", "--n", "0", "--labels", " "],
             "rank must be an integer in [1, 16] for roots, got 0")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == (2, ""), argv
        assert err.getvalue() == f"error: {message}\n", argv
    assert run(["classify", "--n", "3", "--a", "1,1", "--d", "3",
                "--format", "dot"]) == (2, "")
    for level in ("0", "-2"):
        assert run(["gram", "--n", "3", "--a", "0,0", "--d", "1/4",
                    "--max-level", level]) == (2, "")
    # an --out path that cannot be written: a directory, or a missing parent
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        assert run(["classify", "--n", "3", "--a", "0,0", "--d", "1/2",
                    "--out", str(out)]) == (2, ""), out


def test_negative_rational_option_values():
    # argparse took -3/2 for an option; --d=-3/2 was always read as a value
    for argv in (["classify", "--n", "3", "--a", "0,0"],
                 ["gram", "--n", "3", "--a", "0,0", "--max-level", "2"]):
        code, out = run(argv + ["--d", "-3/2"])
        assert code == 0 and (code, out) == run(argv + ["--d=-3/2"]), argv
    out = run(["classify", "--n", "3", "--a", "0,0", "--d", "-3/2"])[1]
    assert out == (GOLDEN_DIR / "classify_n_3_a_0-0_d_-3_2.out").read_text()
    # a negative decimal is still taken as the value, and parse_rational refuses it
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["classify", "--n", "3", "--a", "0,0", "--d", "-1.5"]) == (2, "")
        for flag in ("--d-max", "--d-step"):
            assert run(["grid", "--n", "2", flag, "-1/2"]) == (2, "")
    assert err.getvalue().splitlines() == [
        "error: not an exact rational 'p/q': '-1.5'",
    ] + ["error: d grid must have positive step and nonnegative max"] * 2
    # argparse took a negative comma list for an option too: both forms now
    # reach the library's own check, with the same exit code and message
    for argv, flag, value in (
        (["classify", "--n", "3", "--d", "1"], "--a", "-1,0"),
        (["gram", "--n", "3", "--d", "1", "--max-level", "1"], "--a", "-1,0"),
        (["verify", "--id", "sv_d1", "--d", "1"], "--a", "-1,0"),
        (["multiplet", "--n", "3"], "--labels", "-1,0,0"),
        (["character", "--case", "weyl", "--n", "3", "--maxdeg", "2"], "--labels", "-1,0,0"),
    ):
        spaced, joined = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(spaced):
            result = run(argv + [flag, value])
        with contextlib.redirect_stderr(joined):
            assert run(argv + [f"{flag}={value}"]) == result, argv
        assert result == (2, "") and spaced.getvalue() == joined.getvalue(), argv
        assert spaced.getvalue().startswith("error: "), argv


def test_oversized_requests_exit_2():
    # each is refused from its size alone, before any cell or element exists
    for argv in (
        ["grid", "--n", "3", "--d-step", "1/1000000000"],
        ["grid", "--n", "16", "--a-max", "1000000", "--d-max", "0"],
        ["grid", "--n", "17"],
        ["weyl", "--n", "8"],
        ["weyl", "--n", "7"],
        ["character", "--case", "weyl", "--n", "7", "--labels", "1,1,1,1,1,1,1"],
        ["character", "--case", "weyl", "--n", "8", "--labels", "1,1,1,1,1,1,1,1"],
        ["multiplet", "--n", "6", "--labels", "1,1,1,1,1,1"],
        ["gram", "--n", "8", "--a", "0,0,0,0,0,0,0", "--d", "5/2", "--max-level", "12"],
        ["character", "--case", "verma", "--n", "3", "--maxdeg", "143"],
        ["character", "--case", "verma", "--n", "1000000000", "--maxdeg", "1000000000"],
        ["character", "--case", "d23", "--maxdeg", "1000"],
        ["character", "--case", "weyl", "--n", "6", "--labels", "1,1,1,1,1,1",
         "--maxdeg", "24"],
        ["character", "--case", "sl3", "--m1", "250", "--m2", "250", "--maxdeg", "10"],
    ):
        # the cache is bounded, so a build shows as a miss, not as growth
        built = module._engine_cache.cache_info().misses
        assert run(argv) == (2, ""), argv
        assert module._engine_cache.cache_info().misses == built, argv
    # C(142 + 3, 3) = 497,640 series terms are accepted, C(143 + 3, 3) = 508,080 are not
    _check_series_terms(3, 142)


def test_gram_size_guard_stops_at_the_first_block_past_the_limit(monkeypatch):
    # rank 8 to level 2 has 44 dominant blocks; the refusal sizes only those
    # up to the first one that takes the sum of dim^2 past the limit
    counted = []
    count = root_system.partition_count

    def counting(n, mu):
        counted.append(count(n, mu))
        return counted[-1]

    monkeypatch.setattr(root_system, "partition_count", counting)
    with pytest.raises(ValueError, match="at least"):
        _check_gram_size(8, 2)
    offsets = [off for level in (1, 2) for off in module.level_offsets(8, level)]
    assert 0 < len(counted) < len(offsets)
    work = [x * x for x in counted]
    assert sum(work[:-1]) <= MAX_GRAM_WORK < sum(work)


def test_exit_code_contract(monkeypatch, capsys):
    # 0: a normal request
    assert main(["classify", "--n", "3", "--a", "0,0", "--d", "1/2"]) == 0
    assert capsys.readouterr().err == ""
    # 2: a usage error, reported on stderr
    assert main(["classify", "--n", "3", "--a", "0,0", "--d", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # labels are printed as the user typed them, not as Fraction reprs
    assert main(["character", "--case", "weyl", "--n", "3", "--labels", "1,1,0"]) == 2
    assert capsys.readouterr() == ("", "error: labels must be positive integers, got 1, 1, 0\n")
    # 3: an internal anomaly; a witness that does not have negative norm
    # trips the Gram scan's own check: the first block is called not PSD
    # and given the first basis vector as its witness
    monkeypatch.setattr(module, "packed_psd", lambda packed: False)
    monkeypatch.setattr(module, "psd_witness",
                        lambda gram: [Fraction(1)] + [Fraction(0)] * (len(gram) - 1))
    assert main(["gram", "--n", "3", "--a", "0,0", "--d", "5/2", "--max-level", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "anomaly: claimed witness does not have negative norm\n"


def test_negative_maxdeg_reads_as_the_library_reads_it(capsys):
    # every case refuses --maxdeg -1 before any work, in the words the
    # library's own check uses
    message = "maxdeg must be a nonnegative integer, got -1"
    with pytest.raises(ValueError) as library:
        verma_character(3, -1)
    assert str(library.value) == message
    for case in (["verma"], ["weyl", "--labels", "2,1,1"], ["sl3", "--m1", "1", "--m2", "1"],
                 ["d23"]):
        argv = ["character", "--n", "3", "--maxdeg", "-1", "--case", *case]
        assert main(argv) == 2, case
        assert capsys.readouterr() == ("", f"error: {message}\n"), case


def test_anomaly_error_exits_3(monkeypatch, capsys):
    # a predicted singular vector that is missing is an anomaly too
    def missing(vector_id, sig):
        raise singular.AnomalyError(f"no singular vector for {vector_id}")

    monkeypatch.setattr(singular, "verify_singular", missing)
    assert run(["verify", "--id", "sv_d2"]) == (3, "")
    assert capsys.readouterr().err == "anomaly: no singular vector for sv_d2\n"


_LOADED_AFTER = """
import contextlib, io, json, sys
from ospuir.cli import main
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ospuir") or m == "csv")))
"""


def loaded_after(argv):
    """ospuir modules, and csv if loaded, in a fresh process after importing
    the CLI and, when argv is not empty, running it."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout))


def test_each_command_imports_only_what_it_runs():
    heavy = {"ospuir.characters", "ospuir.weyl", "ospuir.unitarity"}
    modules = loaded_after([])
    assert not modules & (heavy | {"csv"})
    assert not any(m.startswith("ospuir.enveloping") for m in modules)

    modules = loaded_after(["classify", "--n", "3", "--a", "0,0", "--d", "1/2"])
    assert "ospuir.unitarity" in modules
    assert not any(m.startswith("ospuir.enveloping") for m in modules)
    assert not modules & {"ospuir.linalg", "ospuir.dpoly", "csv"}
    # only csv output loads csv
    assert "csv" in loaded_after(["classify", "--n", "3", "--a", "0,0", "--d", "1/2",
                                  "--format", "csv"])

    modules = loaded_after(["gram", "--n", "3", "--a", "0,0", "--d", "5/2",
                            "--max-level", "1"])
    assert {"ospuir.enveloping.module", "ospuir.dpoly"} <= modules
    assert not modules & {"ospuir.enveloping.singular", "ospuir.unitarity",
                          "ospuir.characters", "ospuir.weyl"}

    # the Weyl series sums over signed permutations without listing the
    # group, and every series numerator is summed on ints
    for argv in (["character", "--case", "weyl", "--n", "3", "--labels", "2,1,1",
                  "--maxdeg", "4"],
                 ["character", "--case", "d23", "--maxdeg", "4"]):
        modules = loaded_after(argv)
        assert "ospuir.characters" in modules
        assert not modules & {"ospuir.weyl", "ospuir.linalg"}

    modules = loaded_after(["multiplet", "--n", "3", "--labels", "1,1,1"])
    assert "ospuir.weyl" in modules
    assert not modules & {"ospuir.linalg", "ospuir.characters", "csv"}

    assert "ospuir.weyl" in loaded_after(["weyl", "--n", "3"])


def test_character_text_output():
    code, out = run(["character", "--case", "d23", "--n", "3", "--maxdeg", "6"])
    assert code == 0
    assert out.splitlines()[0] == "1"

    code, out = run(["character", "--case", "d2eq13", "--maxdeg", "6"])
    assert code == 0
    assert not any(line.startswith("-") for line in out.splitlines())

    # nine-factor product: 4*alpha_3 is reachable only as delta_3 four times
    code, out = run(["character", "--case", "verma", "--n", "3", "--maxdeg", "4"])
    assert code == 0
    assert [l for l in out.splitlines() if l.endswith("t3^4")] == ["1 * t3^4"]


def test_character_goldens():
    for fname, (argv, (case, kwargs)) in GOLDEN_CASES.items():
        golden = (GOLDEN_DIR / fname).read_text()
        code, out = run(argv)
        assert code == 0
        assert out == golden, fname
        rebuilt = series_to_text(unitary_character(case, maxdeg=8, **kwargs).series)
        assert rebuilt == golden, fname


def test_verma_and_weyl_character_goldens():
    # both series come from one p_divide_one_minus call over all restricted
    # roots; the Weyl file runs past the numerator's top degree, 28
    for fname, argv in (
        ("character_verma_n4_maxdeg7.txt",
         ["character", "--case", "verma", "--n", "4", "--maxdeg", "7"]),
        ("character_weyl_n3_labels_3-2-2_maxdeg32.txt",
         ["character", "--case", "weyl", "--n", "3", "--labels", "3,2,2",
          "--maxdeg", "32"]),
    ):
        code, out = run(argv)
        assert code == 0
        assert out == (GOLDEN_DIR / fname).read_text(), fname
    # the largest Weyl series the command line takes, pinned by the digest
    # that CI checks with sha256sum -c
    code, out = run(["character", "--case", "weyl", "--n", "6",
                     "--labels", "1,1,1,1,1,1", "--maxdeg", "23"])
    assert code == 0
    digest = (GOLDEN_DIR / "weyl_character_n6_labels_1-1-1-1-1-1_maxdeg23.sha256").read_text()
    assert digest == hashlib.sha256(out.encode("utf-8")).hexdigest() + "  -\n"


def test_verify_all():
    code, out = run(["verify", "--all", "--n", "3"])
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 6
    assert all(r["ok"] for r in rows)
    assert [r["id"] for r in rows] == [
        "sv_d1", "sv_d12", "sv_d2", "sv_d13", "subsing_d13", "sv_d23",
    ]
    kinds = {r["id"]: r["kind"] for r in rows}
    assert kinds["subsing_d13"] == "subsingular"


def test_gram_command():
    code, out = run(["gram", "--n", "3", "--a", "0,0", "--d", "3/4",
                     "--max-level", "3"])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "not_psd"
    assert obj["witness"]["offset"] == [1, 2, 3]
    assert obj["witness"]["norm"] == "-7/3"

    code, out = run(["gram", "--n", "3", "--a", "0,0", "--d", "5",
                     "--max-level", "2"])
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "psd"


def test_rank4_unitary_gram_cell_matches_golden():
    # every dominant block of a = (0,0,0), d = 5/2 is PSD to level 4; the
    # output was captured while the scan still gathered whole blocks
    code, out = run(["gram", "--n", "4", "--a", "0,0,0", "--d", "5/2",
                     "--max-level", "4"])
    assert code == 0
    assert out == (GOLDEN_DIR / "gram_n_4_a_0-0-0_d_5_2_max-level_4.out").read_text()


def test_rank4_nonunitary_a_zero_gram_cell_matches_golden():
    # the witness block (1,2,3,4) at level 4 comes after 41 blocks that
    # repeat an earlier block's triangle; the output was captured while the
    # scan still judged every block
    code, out = run(["gram", "--n", "4", "--a", "0,0,0", "--d", "5/4",
                     "--max-level", "4"])
    assert code == 0 and json.loads(out)["witness"]["offset"] == [1, 2, 3, 4]
    assert out == (GOLDEN_DIR / "gram_n_4_a_0-0-0_d_5_4_max-level_4.out").read_text()


@pytest.mark.parametrize("a, d, verdict", [("0,0,1", "5/2", "psd"), ("1,0,1", "3", "not_psd")])
def test_rank4_gram_cells_off_a_zero_match_goldens(a, d, verdict):
    # at a != 0 the scan judges the kept rows of whole blocks; both outputs
    # were captured while those blocks were still split into parts
    code, out = run(["gram", "--n", "4", "--a", a, "--d", d, "--max-level", "3"])
    assert code == 0 and json.loads(out)["verdict"] == verdict
    name = f"gram_n_4_a_{a.replace(',', '-')}_d_{d.replace('/', '_')}_max-level_3.out"
    assert out == (GOLDEN_DIR / name).read_text()


def test_rank8_gram_cell_matches_golden():
    # the top engine rank end to end: structure table, Cartan forms and a
    # level-1 scan whose witness mixes a compact and an odd letter
    code, out = run(["gram", "--n", "8", "--a", "0,0,0,0,0,0,1", "--d", "1",
                     "--max-level", "1"])
    assert code == 0 and json.loads(out)["verdict"] == "not_psd"
    assert out == (GOLDEN_DIR / "gram_n_8_a_0-0-0-0-0-0-1_d_1_max-level_1.out").read_text()


def test_multiplet_command():
    code, first = run(["multiplet", "--n", "3", "--labels", "1,1,1",
                       "--format", "dot"])
    assert code == 0
    assert first.count("[label=") == 48
    code, second = run(["multiplet", "--n", "3", "--labels", "1,1,1",
                        "--format", "dot"])
    assert second == first

    code, out = run(["multiplet", "--n", "3", "--labels", "1,0,1"])
    obj = json.loads(out)
    assert code == 0 and obj["node_count"] == 24


def test_rank4_multiplets_match_pinned_digests():
    # the top multiplet rank, regular and singular orbits, json and dot
    lines = (GOLDEN_DIR / "multiplet_n4_sha256.txt").read_text().splitlines()
    pins = [line.split(" ", 1) for line in lines if not line.startswith("#")]
    assert len(pins) == 5
    for digest, argv in pins:
        code, out = run(argv.split())
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, digest), argv


def test_multiplet_rank_bounds():
    # n = 5, the top multiplet rank, answers with the whole dot orbit of
    # W(B_5) (3,840 nodes), pinned by the digest that CI checks with
    # sha256sum -c; n = 6 is refused before any work
    code, out = run(["multiplet", "--n", "5", "--labels", "1,1,1,1,1", "--format", "dot"])
    assert code == 0 and out.count("[label=") == 3840
    digest = (GOLDEN_DIR / "multiplet_n5_labels_1-1-1-1-1_dot.sha256").read_text()
    assert digest == hashlib.sha256(out.encode("utf-8")).hexdigest() + "  -\n"
    code, out = run(["multiplet", "--n", "5", "--labels", "0,1,0,2,1"])
    assert code == 0 and json.loads(out)["node_count"] == 960
    assert run(["multiplet", "--n", "6", "--labels", "0,1,0,2,1,1"]) == (2, "")


def test_grid_csv():
    code, out = run(["grid", "--n", "3", "--a-max", "1", "--d-max", "4",
                     "--d-step", "1/4", "--format", "csv"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "a1,a2,d,unitary,branch,point"
    assert len(lines) == 69
    isolated = [l for l in lines if l.startswith("0,0,1/2,")]
    assert len(isolated) == 1 and ",isolated," in isolated[0]


def test_weyl_command():
    code, out = run(["weyl", "--n", "3", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e"
    assert len(lines) == 48

    code, out = run(["weyl", "--n", "3"])
    obj = json.loads(out)
    assert obj["order"] == 48 and obj["longest_length"] == 9
    assert len(obj["elements"]) == 48


def test_reduction_points_command():
    code, out = run(["reduction-points", "--n", "3", "--a", "0,2",
                     "--format", "text"])
    assert code == 0
    assert out.splitlines()[0] == "d1 = 3"
    code, out = run(["reduction-points", "--n", "3", "--a", "0,0"])
    obj = json.loads(out)
    assert obj["points"][0] == {
        "d": "2", "family": "delta_i", "i": 1, "j": None, "name": "d1",
    }
    for n in range(2, 7):
        for a in ((0,) * (n - 1), tuple(range(n - 1)), (2,) + (0,) * (n - 2)):
            code, out = run(["reduction-points", "--n", str(n),
                             "--a", ",".join(map(str, a))])
            assert code == 0
            pts = reduction_points(n, a)
            rows = json.loads(out)["points"]
            assert len(rows) == 2 * n + n * (n - 1) // 2
            for row in rows:
                i, j = row["i"], row["j"]
                assert Fraction(row["d"]) == pts.value(i, j)
                if j is None:
                    assert row["family"] == "delta_i"
                elif j == i:
                    assert row["family"] == "2delta_i"
                else:
                    assert i < j and row["family"] == "delta_i+delta_j"
            keys = [(-Fraction(row["d"]), row["name"]) for row in rows]
            assert keys == sorted(keys)


def test_rank12_reduction_points_match_golden():
    # two-digit point names take commas from rank 10 up, as in the chain d2=d1,3
    code, out = run(["reduction-points", "--n", "12", "--a", "0,0,0,1,0,2,0,0,1,0,3"])
    assert code == 0
    assert out == (GOLDEN_DIR / "reduction-points_n_12_a_0-0-0-1-0-2-0-0-1-0-3.out").read_text()
    assert '"chain": "d2=d1,3"' in out


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "verdict.json"
    code, out = run(["classify", "--n", "3", "--a", "0,0", "--d", "2",
                     "--out", str(target)])
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    # d=2 sits strictly above the a=(0,0) threshold d=1
    assert obj["branch"] == "continuous"
