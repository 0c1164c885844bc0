"""End-to-end command-line checks, including golden serialized outputs."""

import io
import contextlib
import json
import pathlib

from ospuir.characters import series_to_text, unitary_character
from ospuir.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

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


def test_usage_errors_exit_2():
    assert run(["classify", "--n", "3", "--a", "1,1", "--d", "3.0"])[0] == 2
    assert run(["character", "--case", "bogus", "--n", "3"])[0] == 2
    assert run(["character", "--case", "sl3", "--n", "3"])[0] == 2
    assert run(["classify", "--n", "3", "--a", "1,1,1", "--d", "2"])[0] == 2
    assert run(["verify", "--all", "--n", "4"])[0] == 2
    for level in ("0", "-2"):
        assert run(["gram", "--n", "3", "--a", "0,0", "--d", "1/4",
                    "--max-level", level]) == (2, "")


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


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "verdict.json"
    code, out = run(["classify", "--n", "3", "--a", "0,0", "--d", "2",
                     "--out", str(target)])
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    # d=2 sits strictly above the a=(0,0) threshold d=1
    assert obj["branch"] == "continuous"
