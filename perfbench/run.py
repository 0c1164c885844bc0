"""ospuir benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-r3 --seed 1 --seconds 36 --trace 0

Workloads: grid-r3, catalog-r3, cli-cold (see perfbench/README.md).  Each
pass runs in fresh processes, one at a time (a closed loop with one client),
so every pass starts with cold caches the way a user's process does.  The
runner repeats passes while the next one still fits in --seconds, and
reports medians.  Times are net of, and rescaled to a reference CPU speed
by, a probe that samples the speed while they run (probe.py).  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics instead.  --smoke runs the smallest plan (for
the self-test).

Output: '# env', '# row' and '# metric' lines, then one JSON line with
correct, attempted, failed and metrics.  Exit 0 when every operation passed
its check, 1 when any failed, 2 when the benchmark could not run at all
(for instance when src/ospuir is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import workloads as W
from cli_child import REPORT_MARK
from probe import REF_S, at_reference_speed
from spans import METRICS

E2E = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = {"grid-r3": 3, "catalog-r3": 3, "cli-cold": 15}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    # Only the checkout's src is importable, and hashing is fixed so that
    # set iteration order (and with it the work done) repeats between runs.
    return dict(os.environ, PYTHONPATH=str(W.SRC), PYTHONHASHSEED="0")


def spawn(cmd: List[str], stdin: bytes = b""):
    """Run a child to completion; subprocess.run kills it on timeout."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, cwd=W.ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} exceeded {CHILD_TIMEOUT_S} s") from exc
    return proc, time.perf_counter() - t0


# ------------------------------------------------------------- one pass

def worker_pass(plan: dict, traced: bool) -> dict:
    cmd = [sys.executable, str(W.HERE / "worker.py")] + (["--trace"] if traced else [])
    proc, _ = spawn(cmd, json.dumps(plan).encode())
    try:
        out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker gave no result:\n{proc.stderr.decode()}") from exc
    if "fatal" in out:
        raise BenchError(f"worker could not start:\n{out['fatal']}")
    out["setup_s"], out["setup_raw_s"] = at_reference_speed(out["setup"])
    return with_walls(out)


def with_walls(out: dict) -> dict:
    """The pass's time at the probe's reference speed, and raw."""
    out["wall_s"], out["wall_raw_s"] = at_reference_speed(out["rows"])
    return out


def run_cli(argv: List[str], mode: List[str]):
    """(process, its report, seconds net of the probe) for one request."""
    proc, seconds = spawn([sys.executable, str(W.HERE / "cli_child.py")] + mode + argv)
    report = {}
    for line in proc.stderr.decode().splitlines():
        if line.startswith(REPORT_MARK):
            report = json.loads(line[len(REPORT_MARK):])
    return proc, report, seconds - report.get("probe_s", 0.0)


def cli_pass(plan: dict, traced: bool) -> dict:
    rows, layers = [], []
    for argv in plan["requests"]:
        proc, report, seconds = run_cli(argv, ["--trace"] if traced else [])
        expected = W.EXPECTED / "cli" / W.expected_name(argv)
        want = expected.read_bytes() if expected.is_file() else None
        error = None
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
        elif want is None:
            error = f"no expected output {expected.name}"
        elif proc.stdout != want:
            error = "stdout differs from the expected bytes"
        rows.append({"op": " ".join(argv), "command": argv[0], "exit": proc.returncode,
                     "stdout_bytes": len(proc.stdout), "seconds": seconds,
                     "speed_n": report.get("speed_n", 0),
                     "speed_sum_s": report.get("speed_sum_s", 0.0),
                     "ok": error is None, "error": error})
        if "layers" in report:
            layers.append(report["layers"])
    return with_walls({"rows": rows, "cli_layers": layers})


def run_pass(plan: dict, traced: bool) -> dict:
    if plan["workload"] == "cli-cold":
        return cli_pass(plan, traced)
    return worker_pass(plan, traced)


def setup_sample(plan: dict) -> Tuple[float, float]:
    """(set-up seconds at reference speed, raw set-up seconds)."""
    if plan["workload"] == "cli-cold":
        proc, report, seconds = run_cli([], ["--import-only"])
        if proc.returncode != 0:
            raise BenchError(f"import ospuir.cli failed:\n{proc.stderr.decode()}")
        return at_reference_speed([dict(report, seconds=seconds)])
    out = worker_pass({"workload": plan["workload"], "ranks": plan["ranks"]}, False)
    return out["setup_s"], out["setup_raw_s"]


# ------------------------------------------------------------- metrics

def layer_metrics(traced: dict) -> Dict[str, object]:
    """Per-layer values from a traced pass; None marks a vanished target."""
    values: Dict[str, object] = {name: 0 for name in METRICS}
    parts = traced.get("cli_layers") or [traced.get("layers", {})]
    imports = []
    for part in parts:
        for name, value in part.items():
            if name == "cli.import_s":
                imports.append(value)
            elif name not in values:
                continue
            elif value is None or values[name] is None:
                values[name] = None
            elif name.endswith(("_max", "_ratio")):
                values[name] = max(values[name], value)
            else:
                values[name] += value
    if imports:
        values["cli.import_s"] = statistics.median(imports)
    if traced.get("cli_layers"):
        # a ratio over several processes is the call-weighted mean
        for stem in ("module.act_word_terms", "module.pair_words"):
            calls = [p.get(stem + "_calls") or 0 for p in parts]
            ratios = [p.get(stem + "_hit_ratio") or 0.0 for p in parts]
            if values.get(stem + "_hit_ratio") is not None and sum(calls):
                values[stem + "_hit_ratio"] = (
                    sum(c * r for c, r in zip(calls, ratios)) / sum(calls))
    return values


def git_commit() -> str:
    head = W.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = W.ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (W.ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def emit(tag: str, obj) -> None:
    print(f"# {tag} {json.dumps(obj)}")


# ------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (W.SRC / "ospuir" / "__init__.py").is_file():
        print(f"perfbench: no library at {W.SRC / 'ospuir'}", file=sys.stderr)
        return 2
    plan = W.make_plan(args.workload, args.seed, args.smoke)
    traced = args.trace == 1
    start = time.perf_counter()
    try:
        passes = []
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(plan, traced=False))
            spent = time.perf_counter() - start
            if traced or spent + (time.perf_counter() - t0) > args.seconds:
                break
        traced_pass = run_pass(plan, traced=True) if traced else None
        setups = [(p["setup_s"], p["setup_raw_s"]) for p in passes if "setup_s" in p]
        while not traced and len(setups) < SETUP_SAMPLES[args.workload]:
            setups.append(setup_sample(plan))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rows = [row for p in passes + ([traced_pass] if traced else []) for row in p["rows"]]
    attempted = len(rows)
    failed = sum(1 for row in rows if not row["ok"])
    wall = statistics.median(p["wall_s"] for p in passes)
    speed_n = sum(row.get("speed_n", 0) for row in rows)
    emit("env", {
        "python": platform.python_version(), "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "passes": len(passes), "run_s": time.perf_counter() - start,
        "tracing_overhead_s": traced_pass["wall_s"] - wall if traced else None,
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "setup_raw_s": statistics.median(raw for _, raw in setups) if setups else None,
        "probe_mean_s": (sum(row.get("speed_sum_s", 0) for row in rows) / speed_n
                         if speed_n else None),
        "probe_ref_s": REF_S,
    })
    for row in rows:
        if traced or not row["ok"]:
            emit("row", row)

    if traced:
        values = layer_metrics(traced_pass)
        metrics = {}
        for name, (unit, _better) in METRICS.items():
            value = values[name]
            metrics[name] = ({"value": value, "unit": unit} if value is not None
                             else {"value": None, "unit": unit, "missing": True})
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        values = {"wall_s": wall, "setup_s": statistics.median(s for s, _ in setups),
                  "peak_rss_mb": rss}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}
    for name, m in metrics.items():
        emit("metric", {"name": name, **m})
    emit("metric", {"name": "error_rate", "value": failed / attempted, "unit": "ratio",
                    "failed": failed, "attempted": attempted})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
