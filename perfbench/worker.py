"""One pass of grid-r3 or catalog-r3 in a fresh process.

Usage: python3 perfbench/worker.py [--trace] < plan.json

Reads a plan from stdin and prints one JSON line: set-up seconds, one row
per operation (seconds, pass/fail, detail) and, when traced, the layer
totals.  A plan with no operations measures set-up only.  Checks run
after each operation's clock stops, so they never count as its time.
A SpeedProbe samples the CPU speed throughout; every time is reported net
of the probe, with the probe samples that fell inside it.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback
from fractions import Fraction

import workloads as W
from probe import SpeedProbe


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Pass:
    """What every operation of a pass shares: its rows, tracer and probe."""

    def __init__(self, tracer, probe) -> None:
        self.rows: list = []
        self.tracer = tracer
        self.probe = probe


def run_op(ctx, row, call, check):
    """Time call(), record check(result) -> error message or None, and
    return the result (None when the call raised)."""
    if ctx.tracer is not None:
        ctx.tracer.mark()
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises counts as failed
        row.update(ctx.probe.window(t0, time.perf_counter()), ok=False, error=_error(exc))
        ctx.rows.append(row)
        return None
    row.update(ctx.probe.window(t0, time.perf_counter()))
    try:
        error = check(result)
    except Exception as exc:  # a check that cannot even run is a failure too
        error = "check raised " + _error(exc)
    row.update(ok=error is None, error=error)
    ctx.rows.append(row)
    return result


# ------------------------------------------------------------------ grid-r3

def grid_pass(plan, ctx) -> None:
    from ospuir.enveloping.module import engine_for, gram_psd_check
    from ospuir.unitarity import unitarity_grid

    level = plan["max_level"]
    for a in plan["label_sets"]:
        a = tuple(a)
        d_values = [Fraction(x) for x in plan["d"]]
        grid = {}

        def check_grid(result):
            grid.update({row.sig.d: row for row in result})
            if sorted(grid) != sorted(d_values):
                return "unitarity_grid returned other cells than asked"
            return None

        run_op(ctx, {"op": f"unitarity_grid:a={a[0]},{a[1]}"},
               lambda: unitarity_grid(3, ((a[0],), (a[1],)), d_values), check_grid)
        for d in d_values:
            cell = grid.get(d)
            sig_text = f"[{d};{a[0]},{a[1]}]"
            if cell is None:
                ctx.rows.append({"op": f"cell:{sig_text}", "seconds": 0.0, "ok": False,
                                 "error": "no grid row"})
                continue

            def call(sig=cell.sig):
                report = gram_psd_check(sig, max_level=level)
                renorm = None
                if not report.psd and report.witness is not None:
                    renorm = engine_for(sig).norm(report.witness)
                return report, renorm

            def check(result, cell=cell, d=d):
                report, renorm = result
                expect = W.classification_oracle_n3(d, a[0], a[1])
                if cell.verdict.unitary != expect:
                    return f"classify says {cell.verdict.unitary}, closed form {expect}"
                if report.psd != expect:
                    return f"Gram scan says psd={report.psd}, closed form {expect}"
                if report.psd:
                    return None if report.witness is None else "psd cell has a witness"
                if report.witness is None or renorm is None:
                    return "nonunitary cell without a witness"
                if not renorm < 0:
                    return f"witness re-norms to {renorm}, not negative"
                if renorm != report.witness_norm:
                    return "witness re-norm differs from the reported norm"
                return None

            row = {"op": f"cell:{sig_text}", "signature": sig_text}
            result = run_op(ctx, row, call, check)
            if result is not None:
                report = result[0]
                row["verdict"] = "psd" if report.psd else "not_psd"
                row["witness_level"] = None if report.psd else report.levels_checked[-1]
            if ctx.tracer is not None:
                row["blocks"] = list(ctx.tracer.op_blocks)
                row["entry_bits"] = ctx.tracer.op_bits


# --------------------------------------------------------------- catalog-r3

def catalog_pass(plan, ctx) -> None:
    from ospuir import characters as C
    from ospuir.enveloping import singular as S
    from ospuir.weights import Signature

    expected = W.load_catalog_expected()
    for item in plan["items"]:
        key = W.item_id(item)
        want = expected.get(key)
        kind = item["kind"]
        row = {"op": key}

        if kind == "verify":
            vid = item["id"]

            def call(vid=vid):
                if vid not in S.PRINTED_IDS:
                    raise KeyError(f"{vid} is not in PRINTED_IDS")
                sig = S.printed_regime(vid)
                test = S.verify_subsingular if vid == "subsing_d13" else S.verify_singular
                return test(vid, sig)

            def check(ok):
                return None if ok is True else f"verify returned {ok!r}"

        elif kind == "singular":
            sig = Signature(3, Fraction(item["d"]), tuple(item["a"]))

            def call(sig=sig, item=item):
                return S.find_singular(sig, tuple(item["beta"]), item["m"])

            def check(space, want=want):
                if want is None:
                    return "no expected kernel dimension"
                return None if len(space) == want else f"kernel dim {len(space)} != {want}"

        elif kind == "norm":

            def call(item=item):
                return S.norm_polynomial_in_d(item["id"], tuple(item["a"]))

            def check(coeffs, want=want):
                if want is None:
                    return "no expected polynomial"
                poly = [Fraction(c) for c in coeffs]
                while len(poly) > 1 and poly[-1] == 0:
                    poly.pop()
                monic = [str(c / poly[-1]) for c in poly]
                if monic != want["monic"]:
                    return f"norm polynomial {monic} != {want['monic']}"
                for root in want["roots"]:
                    r = Fraction(root)
                    if sum(c * r ** k for k, c in enumerate(poly)) != 0:
                        return f"{root} is not a root"
                return None

        elif kind == "unitary":
            params = {k: item[k] for k in ("m1", "m2") if k in item}

            def call(item=item, params=params):
                return C.unitary_character(item["case"], item["maxdeg"], **params)

            def check(norm, item=item, want=want):
                coeffs = norm.series.coeffs
                deg = item["maxdeg"]
                if item["case"] == "d23":
                    ok = coeffs == W.d23_closed_form(deg)
                    return None if ok else "d23 series differs from the three-factor product"
                if item["case"] == "d2eq13":
                    num = W.d2eq13_numerator(coeffs, deg)
                    goal = {(0, 0, 0): Fraction(1), (1, 2, 3): Fraction(-1)}
                    return None if num == goal else "d2eq13 numerator is not 1 - t1 t2^2 t3^3"
                if want is None:
                    return "no expected digest"
                return None if W.series_digest(coeffs) == want else "series digest differs"

        elif kind == "verma":

            def call(item=item):
                return C.verma_character(item["n"], item["maxdeg"])

            def check(series, item=item):
                n, deg = item["n"], item["maxdeg"]
                exps = list(_compositions(n, deg))
                if len(series.coeffs) != len(exps):
                    return f"{len(series.coeffs)} terms, expected {len(exps)}"
                sample = random.Random(item["sample_seed"]).sample(
                    exps, min(W.VERMA_SAMPLE, len(exps)))
                for e in sample:
                    if series.coefficient(e) != C.partition_count(n, e):
                        return f"coefficient at {e} differs from partition_count"
                return None

        else:  # weyl

            def call(item=item):
                lam = C.weight_from_labels(tuple(item["labels"]))
                return C.weyl_character(lam, item["maxdeg"])

            def check(norm, want=want):
                coeffs = norm.series.coeffs.values()
                if any(c.denominator != 1 or c < 0 for c in coeffs):
                    return "a multiplicity is not a nonnegative integer"
                total = sum(coeffs)
                return None if total == want else f"dimension {total} != {want}"

        run_op(ctx, row, call, check)


def _compositions(n: int, maxdeg: int):
    """Every exponent vector of length n and total degree at most maxdeg."""
    if n == 1:
        for k in range(maxdeg + 1):
            yield (k,)
        return
    for k in range(maxdeg + 1):
        for rest in _compositions(n - 1, maxdeg - k):
            yield (k,) + rest


# --------------------------------------------------------------------- main

def main() -> int:
    traced = "--trace" in sys.argv[1:]
    plan = json.load(sys.stdin)
    out = {}
    probe = SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        import ospuir
        import ospuir.characters  # noqa: F401  (the layers the workloads call)
        import ospuir.unitarity  # noqa: F401
        from ospuir.enveloping import algebra
        t_import = time.perf_counter() - t0
        if not str(ospuir.__file__).startswith(str(W.SRC)):
            raise ImportError(f"ospuir loaded from {ospuir.__file__}, not {W.SRC}")
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        for n in plan["ranks"]:
            algebra.structure_constants(n)   # looked up late: may be traced
        t2 = time.perf_counter()
        out["setup"] = [probe.window(t0, t0 + t_import), probe.window(t1, t2)]
    except Exception:  # no library, no pass: report and fail the whole run
        probe.stop()
        out["fatal"] = traceback.format_exc()
        print(json.dumps(out))
        return 1
    ctx = Pass(tracer, probe)
    if plan["workload"] == "grid-r3" and plan.get("label_sets"):
        grid_pass(plan, ctx)
    elif plan["workload"] == "catalog-r3" and plan.get("items"):
        catalog_pass(plan, ctx)
    probe.stop()
    out["rows"] = ctx.rows
    if tracer is not None:
        out["layers"] = tracer.totals()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
