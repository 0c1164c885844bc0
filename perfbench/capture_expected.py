"""Regenerate the expected values under perfbench/expected/.

Usage: python3 perfbench/capture_expected.py

Run this only on a commit whose outputs are trusted (the benchmark's files
were captured at the commit that added it).  Rerunning it on a later commit
would make the checks compare that commit with itself.  It prints how long
each option takes, which is how the cost-balanced option lists in
workloads.py were chosen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import workloads as W


def capture_cli() -> None:
    out_dir = W.EXPECTED / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(W.SRC), PYTHONHASHSEED="0")
    requests = [r for slot in W.CLI_SLOTS for r in slot] + W.SMOKE_CLI
    for argv in requests:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(W.HERE / "cli_child.py")] + argv,
            cwd=W.ROOT, env=env, capture_output=True, check=True,
        )
        (out_dir / W.expected_name(argv)).write_bytes(proc.stdout)
        print(f"{time.perf_counter() - t0:7.2f}s  {' '.join(argv)}", flush=True)


def capture_catalog() -> None:
    sys.path.insert(0, str(W.SRC))
    from ospuir import characters as C
    from ospuir.enveloping import singular as S
    from ospuir.weights import Signature

    items = []
    for a, beta, m, options in W.SINGULAR_SLOTS:
        items += [{"kind": "singular", "a": list(a), "beta": list(beta), "m": m, "d": d}
                  for d in options]
    items += [{"kind": "norm", "id": vid, "a": list(a)}
              for vid, a in W.NORM_HEAVY + W.NORM_LIGHT]
    items += [{"kind": "unitary", "case": "d1", "maxdeg": W.UNITARY_DEG, "m1": m1, "m2": m2}
              for m1, m2 in W.D1_LABELS]
    items += [{"kind": "unitary", "case": case, "maxdeg": W.UNITARY_DEG, "m2": m2}
              for case, pool in (("d12", W.D12_LABELS), ("d2", W.D2_LABELS)) for m2 in pool]
    items += [{"kind": "weyl", "labels": list(lab), "maxdeg": W.WEYL_DEG}
              for lab in W.WEYL_LABELS]
    items += [i for i in W.catalog_items(None, smoke=True) if i["kind"] in ("singular", "norm")]

    expected = {}
    for item in items:
        t0 = time.perf_counter()
        kind = item["kind"]
        if kind == "singular":
            sig = Signature(3, Fraction(item["d"]), tuple(item["a"]))
            value = len(S.find_singular(sig, tuple(item["beta"]), item["m"]))
        elif kind == "norm":
            coeffs = S.norm_polynomial_in_d(item["id"], tuple(item["a"]))
            roots, _ = S.rational_zero_set(coeffs)
            value = {"monic": [str(c / coeffs[-1]) for c in coeffs],
                     "roots": [str(r) for r in sorted(roots)]}
        elif kind == "unitary":
            params = {k: item[k] for k in ("m1", "m2") if k in item}
            norm = C.unitary_character(item["case"], item["maxdeg"], **params)
            value = W.series_digest(norm.series.coeffs)
        else:
            lam = C.weight_from_labels(tuple(item["labels"]))
            total = sum(C.weyl_character(lam, item["maxdeg"]).series.coeffs.values())
            if total != C.weyl_dimension(lam):
                raise SystemExit(f"{item}: degree {item['maxdeg']} does not reach the top")
            value = int(total)
        key = W.item_id(item)
        expected[key] = value
        print(f"{time.perf_counter() - t0:7.2f}s  {key} -> {value}", flush=True)
    W.EXPECTED.mkdir(exist_ok=True)
    with open(W.EXPECTED / "catalog.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    capture_catalog()
    capture_cli()
