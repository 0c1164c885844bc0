"""Seeded inputs, expected values and independent checks for the workloads.

This module never imports ospuir, so the runner can build plans without
loading the library.  A plan is plain JSON: the worker (or the runner, for
cli-cold) turns it into library calls.

Why the inputs are drawn the way they are: a run's figures are compared
across seeds, so each seed must ask for the same amount of work.  Every
draw is therefore made among options measured to cost the same (the order
of one label set's cells, same weight-space shapes, same series degrees);
the seed changes which exact inputs the library sees, not how much it is
asked.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

WORKLOADS = ("grid-r3", "catalog-r3", "cli-cold")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# ------------------------------------------------------------------ grid-r3

# Criterion 2's d grid and depth.
GRID_D = [Fraction(k, 4) for k in range(17)]
GRID_MAX_LEVEL = 4
# The swept label set is fixed and the seed draws the order of its cells.
# Full-d sweeps of the nine label sets a in {0,1,2}^2 differ by up to 2.5x
# in time (8 s for (2,2), 17-26 s for the rest) and 3x in peak RSS (one to
# fifteen unitary cells keep their engines), so a seeded label set would
# make the seed, not the code, set the figures.  a = (0, 0) has the most
# unitary cells (15 of 17, so the most engines to share or retain), the
# isolated point d = 1/2 and the trivial point d = 0.
GRID_LABEL_SET = (0, 0)
# The smallest grid the self-test runs: one cheap label set, three cells.
SMOKE_GRID = {"label_sets": [[2, 2]], "d": ["1/4", "1", "3"]}


def classification_oracle_n3(d: Fraction, a1: int, a2: int) -> bool:
    """Rank-three unitarity split, restated from the paper's theorem."""
    if a1 != 0:
        return d >= 2 + Fraction(a1 + a2, 2)
    if a2 != 0:
        return d >= Fraction(3, 2) + Fraction(a2, 2) or d == 1 + Fraction(a2, 2)
    return d >= 1 or d == Fraction(1, 2) or d == 0


def grid_plan(rng: random.Random, smoke: bool) -> dict:
    if smoke:
        return dict(SMOKE_GRID, max_level=GRID_MAX_LEVEL)
    order = [str(d) for d in GRID_D]
    rng.shuffle(order)
    return {"label_sets": [list(GRID_LABEL_SET)], "d": order, "max_level": GRID_MAX_LEVEL}


# --------------------------------------------------------------- catalog-r3

PRINTED = ["sv_d1", "sv_d12", "sv_d2", "sv_d13", "subsing_d13", "sv_d23"]

# find_singular slots: (label set, beta in delta coordinates, m, d options).
# Within a slot the weight space is fixed, so every option costs about the
# same; options mix reduction points (nonempty kernels) and generic d.
SINGULAR_SLOTS = [
    ((0, 0), (1, 1, 0), 2, ["1", "1/2", "0"]),
    ((0, 2), (1, 1, 0), 2, ["2", "1", "3/2"]),
    ((1, 1), (1, 1, 0), 2, ["1/2", "1", "0"]),
    ((0, 0), (1, 0, 1), 2, ["1/2", "1", "3/2"]),
    ((0, 2), (1, 0, 1), 2, ["1/2", "1", "2"]),
    ((0, 0), (1, 0, 0), 2, ["3/2", "1", "2"]),
    ((1, 1), (1, 1, 0), 1, ["2", "1", "1/2"]),
    ((0, 0), (0, 1, 1), 1, ["1/2", "1", "3/2"]),
]
# Norm polynomials: four drawn from the costly sv_d12 pool, four from the
# rest.  (sv_d12 at a = (2, 0) and sv_d13 have identically zero norms.)
NORM_HEAVY = [("sv_d12", a) for a in ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2),
                                       (2, 1), (2, 2))]
NORM_LIGHT = [("subsing_d13", (0, 0)), ("sv_d1", (1, 1)), ("sv_d1", (2, 1)),
              ("sv_d1", (1, 2)), ("sv_d2", (0, 2)), ("sv_d2", (1, 2)),
              ("sv_d23", (0, 0)), ("sv_d23", (1, 0))]
UNITARY_DEG = 36
D1_LABELS = [(1, 1), (2, 1), (1, 2), (2, 2)]
D12_LABELS = [2, 3, 4]
D2_LABELS = [2, 3, 4]
VERMA_RANK, VERMA_DEG = 4, 18
VERMA_SAMPLE = 300          # coefficients checked against partition_count
WEYL_LABELS = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)]
WEYL_DEG = 32               # above the top degree of every option


def catalog_items(rng: random.Random, smoke: bool) -> List[dict]:
    if smoke:
        return [
            {"kind": "verify", "id": "sv_d2"},
            {"kind": "singular", "a": [0, 0], "beta": [0, 1, 1], "m": 1, "d": "1/2"},
            {"kind": "norm", "id": "sv_d2", "a": [0, 2]},
            {"kind": "unitary", "case": "d23", "maxdeg": 8},
        ]
    items = [{"kind": "verify", "id": vid} for vid in PRINTED]
    for a, beta, m, options in SINGULAR_SLOTS:
        items.append({"kind": "singular", "a": list(a), "beta": list(beta), "m": m,
                      "d": rng.choice(options)})
    for vid, a in rng.sample(NORM_HEAVY, 4) + rng.sample(NORM_LIGHT, 4):
        items.append({"kind": "norm", "id": vid, "a": list(a)})
    m1, m2 = rng.choice(D1_LABELS)
    items += [
        {"kind": "unitary", "case": "d1", "maxdeg": UNITARY_DEG, "m1": m1, "m2": m2},
        {"kind": "unitary", "case": "d12", "maxdeg": UNITARY_DEG, "m2": rng.choice(D12_LABELS)},
        {"kind": "unitary", "case": "d2", "maxdeg": UNITARY_DEG, "m2": rng.choice(D2_LABELS)},
        {"kind": "unitary", "case": "d2eq13", "maxdeg": UNITARY_DEG},
        {"kind": "unitary", "case": "d23", "maxdeg": UNITARY_DEG},
        {"kind": "verma", "n": VERMA_RANK, "maxdeg": VERMA_DEG,
         "sample_seed": rng.randrange(1 << 30)},
        {"kind": "weyl", "labels": list(rng.choice(WEYL_LABELS)), "maxdeg": WEYL_DEG},
    ]
    return items


def item_id(item: dict) -> str:
    """Stable name of a catalog item, used for rows and expected values."""
    kind = item["kind"]
    if kind == "verify":
        return f"verify:{item['id']}"
    if kind == "singular":
        a = ",".join(map(str, item["a"]))
        beta = ",".join(map(str, item["beta"]))
        return f"singular:[{item['d']};{a}]:beta=({beta}):m={item['m']}"
    if kind == "norm":
        return f"norm:{item['id']}:a={','.join(map(str, item['a']))}"
    if kind == "unitary":
        params = "".join(f":{k}={item[k]}" for k in ("m1", "m2") if k in item)
        return f"unitary:{item['case']}{params}:deg={item['maxdeg']}"
    if kind == "verma":
        return f"verma:n={item['n']}:deg={item['maxdeg']}"
    return f"weyl:{','.join(map(str, item['labels']))}:deg={item['maxdeg']}"


def load_catalog_expected() -> Dict[str, object]:
    with open(EXPECTED / "catalog.json", encoding="utf-8") as fh:
        return json.load(fh)


def series_digest(coeffs: Dict[tuple, Fraction]) -> str:
    """Order-free fingerprint of a series: sha256 over sorted 'exp:coeff'."""
    text = "\n".join(f"{','.join(map(str, e))}:{c}" for e, c in sorted(coeffs.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def d23_closed_form(maxdeg: int) -> Dict[tuple, Fraction]:
    """1/((1-t3)(1-t2 t3)(1-t1 t2 t3)): coefficient 1 exactly on e1<=e2<=e3."""
    out = {}
    for e3 in range(maxdeg + 1):
        for e2 in range(e3 + 1):
            for e1 in range(e2 + 1):
                if e1 + e2 + e3 <= maxdeg:
                    out[(e1, e2, e3)] = Fraction(1)
    return out


def truncated_product(f: Dict[tuple, Fraction], g: Dict[tuple, Fraction],
                      maxdeg: int) -> Dict[tuple, Fraction]:
    """Plain truncated product, kept apart from the library's p_mul."""
    out: Dict[tuple, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= maxdeg:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# Six noncompact factors of the rank-three denominator (simple-root basis).
NONCOMPACT_EXPS = [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 2, 2), (1, 1, 2), (0, 1, 2)]


def d2eq13_numerator(coeffs: Dict[tuple, Fraction], maxdeg: int) -> Dict[tuple, Fraction]:
    """Character times the six (1 - t^e): should be exactly 1 - t1 t2^2 t3^3."""
    num = dict(coeffs)
    for e in NONCOMPACT_EXPS:
        num = truncated_product(num, {(0, 0, 0): Fraction(1), e: Fraction(-1)}, maxdeg)
    return num


# ----------------------------------------------------------------- cli-cold

# Each slot is one request; the seed picks one option per slot.  Options in
# a slot cost the same: the same command, rank and depth, and for gram the
# same verdict class.  Expected stdout for every option is a file captured
# from the library at the commit that added this benchmark.
CLI_SLOTS: List[List[List[str]]] = [
    [["classify", "--n", "3", "--a", a, "--d", d]
     for a, d in (("0,0", "1/2"), ("1,2", "7/2"), ("0,1", "3/2"), ("2,0", "13/4"))],
    [["classify", "--n", "4", "--a", a, "--d", d]
     for a, d in (("0,0,0", "1"), ("0,1,0", "5/2"), ("1,0,2", "9/2"), ("0,0,1", "3/4"))],
    [["reduction-points", "--n", "3", "--a", a] for a in ("0,2", "1,1", "2,0", "0,0")],
    [["grid", "--n", "3", "--a-max", "2", "--d-max", dm, "--format", "csv"]
     for dm in ("4", "5")],
    [["gram", "--n", "3", "--a", a, "--d", d, "--max-level", "4"]
     for a, d in (("0,0", "1/4"), ("0,0", "3/4"), ("0,1", "1"), ("0,1", "5/4"))],
    [["gram", "--n", "3", "--a", "0,0", "--d", d, "--max-level", "4"]
     for d in ("3/2", "2", "5/2", "3")],
    [["gram", "--n", "4", "--a", "0,0,0", "--d", d, "--max-level", "2"]
     for d in ("3", "7/2")],
    [["verify", "--all"]],
    [["character", "--case", "d23", "--maxdeg", "12"]],
    [["multiplet", "--n", "3", "--labels", lab, "--format", "dot"]
     for lab in ("1,1,1", "2,1,1", "1,2,1", "1,1,2")],
    [["weyl", "--n", "4"]],
]
SMOKE_CLI = [["classify", "--n", "3", "--a", "0,0", "--d", "1/2"],
             ["reduction-points", "--n", "3", "--a", "0,2"]]


def expected_name(argv: List[str]) -> str:
    """File name of a request's expected stdout."""
    parts = [p.lstrip("-").replace("/", "_").replace(",", "-") for p in argv]
    return "_".join(parts) + ".out"


def cli_requests(rng: random.Random, smoke: bool) -> List[List[str]]:
    if smoke:
        return [list(r) for r in SMOKE_CLI]
    return [list(rng.choice(slot)) for slot in CLI_SLOTS]


# --------------------------------------------------------------------- plans

def make_plan(workload: str, seed: int, smoke: bool = False) -> dict:
    """Everything a pass needs, derived from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid-r3":
        return {"workload": workload, "ranks": [3], **grid_plan(rng, smoke)}
    if workload == "catalog-r3":
        return {"workload": workload, "ranks": [3], "items": catalog_items(rng, smoke)}
    if workload == "cli-cold":
        return {"workload": workload, "requests": cli_requests(rng, smoke)}
    raise ValueError(f"unknown workload {workload!r}")
