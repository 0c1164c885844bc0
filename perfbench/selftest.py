"""Self-test of the benchmark at its smallest size.

Usage (from the repository root): python3 perfbench/selftest.py

Proves that:
  * every workload's smoke plan passes, untraced and traced;
  * the per-layer names in BENCHMARK.json are exactly those the tracer
    reports, and every count repeats exactly across two traced runs;
  * each workload's correctness check fires: one deliberately wrong
    expected value gives failed > 0, correct false and exit code 1;
  * a traced function that has vanished is reported as missing, not 0;
  * without src/ospuir the runner exits nonzero and prints no result.
Scratch copies live in .perfbench-selftest-*/ at the root (beside
perfbench/, so they test the same src/) and are removed.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as W
from spans import METRICS

SCRATCH = ".perfbench-selftest-"   # prefix of scratch directories at the root
FAILURES = []


def run(bench_dir: Path, workload: str, trace: int = 0, cwd: Path = W.ROOT):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def counts(result) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if METRICS[k][0] in ("count", "bits")}


def mutated_copy(name: str, rel: str, old: str, new: str) -> Path:
    """A copy of perfbench beside it, with one expected value changed."""
    copy = W.ROOT / (SCRATCH + name)
    shutil.copytree(W.HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / rel
    text = target.read_text()
    if old not in text:
        raise SystemExit(f"selftest: {old!r} not found in {rel}")
    target.write_text(text.replace(old, new, 1))
    return copy


def cleanup() -> None:
    for path in W.ROOT.glob(SCRATCH + "*"):
        shutil.rmtree(path, ignore_errors=True)


def main() -> int:
    cleanup()
    try:
        with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            listed = [m["name"] for m in json.load(fh)["per_layer"]]
        expect(listed == list(METRICS), "BENCHMARK.json per_layer matches the tracer")

        for workload in W.WORKLOADS:
            rc, result = run(W.HERE, workload)
            expect(rc == 0 and result and result["correct"] and result["failed"] == 0,
                   f"{workload} smoke run passes")
            rc, first = run(W.HERE, workload, trace=1)
            _, second = run(W.HERE, workload, trace=1)
            expect(rc == 0 and first and set(first["metrics"]) == set(METRICS)
                   and not any(m.get("missing") for m in first["metrics"].values()),
                   f"{workload} traced run reports every layer metric")
            expect(first and second and counts(first) == counts(second),
                   f"{workload} traced counts repeat exactly")

        wrong = {
            "grid-r3": ("workloads.py", "return d >= 2 + Fraction(a1 + a2, 2)",
                        "return d >= 1 + Fraction(a1 + a2, 2)"),
            "catalog-r3": ("expected/catalog.json",
                           '"singular:[1/2;0,0]:beta=(0,1,1):m=1": 1',
                           '"singular:[1/2;0,0]:beta=(0,1,1):m=1": 2'),
            "cli-cold": ("expected/cli/classify_n_3_a_0-0_d_1_2.out",
                         '"unitary": true', '"unitary": false'),
        }
        for workload, (rel, old, new) in wrong.items():
            copy = mutated_copy(f"wrong-{workload}", rel, old, new)
            rc, result = run(copy, workload)
            expect(rc == 1 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{workload} check fires on a wrong expected value (exit {rc})")

        copy = mutated_copy("vanished", "spans.py", '"ospuir.characters", "p_mul"',
                            '"ospuir.characters", "p_mul_gone"')
        rc, result = run(copy, "catalog-r3", trace=1)
        missing = {k for k, m in (result or {"metrics": {}})["metrics"].items()
                   if m.get("missing") and m["value"] is None}
        expect(rc == 0 and missing == {"characters.p_mul_s", "characters.p_mul_calls",
                                       "characters.p_mul_pairs"},
               "a vanished traced function is reported as missing")

        bare = W.ROOT / (SCRATCH + "bare")
        shutil.copytree(W.HERE, bare / W.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(W.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        rc, result = run(bare / W.HERE.name, "grid-r3", cwd=bare)
        expect(rc not in (0, None) and result is None,
               f"without src/ospuir the runner fails without a result (exit {rc})")
    finally:
        cleanup()
    print("selftest:", "FAILED " + "; ".join(FAILURES) if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
