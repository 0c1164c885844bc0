"""Command-line interface.

Subcommands: classify, grid, reduction-points, character, verify, gram,
multiplet, weyl.  Formats: json (default for most), csv, text, dot.  All
rationals cross the boundary as exact "p/q" strings; decimals are rejected.
Exit codes: 0 success, 2 usage error, 3 internal anomaly.  Each cmd_*
function imports the library names it uses in its own body, so a process
loads only the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ospuir.weights import Signature

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

# Largest requests the command line accepts; larger ones exit 2 before any
# allocation.  On a 2-vCPU x86-64 host with CPython 3.11, a rank-3 grid of
# 10,100 cells takes 14 s and 30 MB, and weyl --n 6 (46,080 elements) 3.7 s
# and 80 MB; W(B7) has 645,120 elements.  A multiplet with every label
# positive is the whole dot orbit of W(B_n): with all labels 1, n = 4 (384
# elements) takes 0.4 s and 19 MB, and n = 5 (3,840) 4.5 s and 24 MB.  A
# gram scan costs about the sum of dim^2 over its dominant blocks up to
# --max-level (dim = partition_count): rank 4 to level 4 (3,087,225) takes
# 20 s and 389 MB at one unitary cell, rank 3 to level 6 (773,920) 5.8 s
# and 127 MB, and rank 5 to level 3 (5,792,062) 38 s and 744 MB.  A
# character series in n variables to total degree maxdeg has at most
# C(maxdeg + n, n) terms: verma --n 3 --maxdeg 141 (487,344) takes 14 s and
# 200 MB, weyl --n 6 --maxdeg 23 (475,020) 9.2 s and 51 MB, and sl3 --m1 250
# --m2 249 (2 variables to degree 998, 499,500) 6.4 s and 110 MB.
MAX_GRID_CELLS = 50_000
MAX_WEYL_ORDER = 100_000
MAX_MULTIPLET_ORDER = 1_000
MAX_GRAM_WORK = 4_000_000
MAX_CHARACTER_TERMS = 500_000


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not an exact rational 'p/q': {text!r}")
    return Fraction(text.strip())


def parse_int_list(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}")


def _fr(x: Fraction) -> str:
    return str(x)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _check_group_order(n: int, limit: int) -> None:
    """Refuse a request that may walk all of W(B_n) when its order 2^n n!
    is above limit; n must already be bounded by the caller."""
    order = 2 ** n * math.factorial(n)
    if order > limit:
        raise ValueError(f"W(B{n}) has {order} elements, above the limit of {limit}")


def _check_series_terms(nvars: int, maxdeg: int) -> None:
    """Refuse a series in nvars variables to total degree maxdeg when it may
    have more than MAX_CHARACTER_TERMS terms, C(maxdeg + nvars, nvars); the
    binomial is built one factor at a time and stops past the limit."""
    small, large = sorted((nvars, maxdeg))
    terms = 1
    for k in range(1, small + 1):
        terms = terms * (large + k) // k
        if terms > MAX_CHARACTER_TERMS:
            raise ValueError(
                f"a series in {nvars} variables to degree {maxdeg} has more than "
                f"{MAX_CHARACTER_TERMS} terms"
            )


def _check_gram_size(n: int, max_level: int) -> None:
    """Refuse a Gram scan whose dominant blocks up to max_level have a sum
    of dim^2 above MAX_GRAM_WORK; the sum is taken level by level, so the
    count stops at the first level past the limit."""
    from ospuir.enveloping.algebra import check_rank
    from ospuir.enveloping.module import level_offsets
    from ospuir.root_system import partition_count

    check_rank(n)
    work = 0
    for level in range(1, max_level + 1):
        work += sum(partition_count(n, off) ** 2 for off in level_offsets(n, level))
        if work > MAX_GRAM_WORK:
            raise ValueError(
                f"gram blocks to level {level} at rank {n} have a sum of dim^2 of "
                f"{work}, above the limit of {MAX_GRAM_WORK}"
            )


def _sig_from(args) -> Signature:
    a = parse_int_list(args.a)
    d = parse_rational(args.d)
    return Signature(args.n, d, a)


def _verdict_obj(verdict) -> dict:
    sig = verdict.sig
    point = None
    if verdict.governing_point is not None:
        name, value = verdict.governing_point
        point = {"name": name, "d": _fr(value)}
    return {
        "n": sig.n,
        "a": list(sig.a),
        "d": _fr(sig.d),
        "unitary": verdict.unitary,
        "branch": verdict.branch,
        "point": point,
        "audit": {
            "leading_zero_count": verdict.audit["leading_zero_count"],
            "kappa": _fr(verdict.audit["kappa"]),
            "threshold": _fr(verdict.audit["threshold"]),
            "isolated_points": [_fr(x) for x in verdict.audit["isolated_points"]],
            "note": verdict.audit["note"],
        },
    }


def cmd_classify(args) -> int:
    from ospuir.unitarity import classify

    sig = _sig_from(args)
    verdict = classify(sig)
    obj = _verdict_obj(verdict)
    if args.format == "json":
        _emit(_json(obj), args.out)
    elif args.format == "text":
        point = obj["point"]["name"] if obj["point"] else "-"
        lines = [
            f"signature [{_fr(sig.d)}; {','.join(str(x) for x in sig.a)}]",
            f"unitary {str(verdict.unitary).lower()}",
            f"branch {verdict.branch}",
            f"point {point}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "csv":
        head = [f"a{k + 1}" for k in range(sig.n - 1)] + [
            "d",
            "unitary",
            "branch",
            "point",
        ]
        point = obj["point"]["name"] if obj["point"] else ""
        row = [str(x) for x in sig.a] + [
            _fr(sig.d),
            str(verdict.unitary).lower(),
            verdict.branch,
            point,
        ]
        _emit(_csv([head, row]), args.out)
    return 0


def cmd_grid(args) -> int:
    from ospuir.root_system import MAX_RANK
    from ospuir.unitarity import unitarity_grid

    n = args.n
    a_max = args.a_max
    d_max = parse_rational(args.d_max)
    d_step = parse_rational(args.d_step)
    if d_step <= 0 or d_max < 0:
        raise ValueError("d grid must have positive step and nonnegative max")
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be an integer in [1, {MAX_RANK}], got {n}")
    cells = (d_max // d_step + 1) * max(a_max + 1, 0) ** (n - 1)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the limit of {MAX_GRID_CELLS}")
    d_values = []
    k = 0
    while k * d_step <= d_max:
        d_values.append(k * d_step)
        k += 1
    ranges = [range(a_max + 1)] * (n - 1)
    rows = unitarity_grid(n, ranges, d_values)
    head = [f"a{k + 1}" for k in range(n - 1)] + ["d", "unitary", "branch", "point"]
    table = []
    for row in rows:
        v = row.verdict
        point = v.governing_point[0] if v.governing_point else ""
        table.append(
            [str(x) for x in row.sig.a]
            + [_fr(row.sig.d), str(v.unitary).lower(), v.branch, point]
        )
    if args.format == "csv":
        _emit(_csv([head] + table), args.out)
    elif args.format == "json":
        obj = [_verdict_obj(row.verdict) for row in rows]
        _emit(_json(obj), args.out)
    return 0


def cmd_reduction_points(args) -> int:
    from ospuir.unitarity import subsingular_points
    from ospuir.weights import point_family, reduction_points

    n = args.n
    a = parse_int_list(args.a)
    pts = reduction_points(n, a)
    entries = sorted(
        ((pts.point_name(i, j), point_family(i, j), i, j, val)
         for (i, j), val in pts.points.items()),
        key=lambda e: (-e[4], e[0]),
    )
    subs = subsingular_points(n, a)
    obj = {
        "n": n,
        "a": list(a),
        "points": [
            {"name": name, "family": fam, "i": i, "j": j, "d": _fr(val)}
            for name, fam, i, j, val in entries
        ],
        "subsingular": [
            {"d": _fr(val), "chain": chain} for val, chain in subs
        ],
    }
    if args.format == "json":
        _emit(_json(obj), args.out)
    elif args.format == "csv":
        rows = [["name", "family", "d"]]
        for name, fam, _i, _j, val in entries:
            rows.append([name, fam, _fr(val)])
        _emit(_csv(rows), args.out)
    elif args.format == "text":
        lines = [f"{name} = {_fr(val)}" for name, _f, _i, _j, val in entries]
        lines += [f"subsingular {chain} at d = {_fr(val)}" for val, chain in subs]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_character(args) -> int:
    from ospuir.characters import (
        series_to_json_obj,
        series_to_text,
        sl3_character,
        unitary_character,
        verma_character,
        weight_from_labels,
        weyl_character,
    )

    case = args.case
    maxdeg = args.maxdeg
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    # the sl3 series is divided to its numerator's top degree 2(m1 + m2)
    # whatever maxdeg is, so it is sized once its labels are known; the
    # unitary cases are rank three
    if case in ("verma", "weyl"):
        _check_series_terms(args.n, maxdeg)
    elif case != "sl3":
        if args.n != 3:
            raise ValueError(f"the unitary cases are rank-three only, got --n {args.n}")
        _check_series_terms(3, maxdeg)
    prefix = None
    if case == "verma":
        series = verma_character(args.n, maxdeg)
    elif case == "sl3":
        if args.m1 is None or args.m2 is None:
            raise ValueError("case sl3 needs --m1 and --m2")
        _check_series_terms(2, 2 * (args.m1 + args.m2))
        series = sl3_character(args.m1, args.m2)
        series = series.truncate(min(maxdeg, series.maxdeg))
    elif case == "weyl":
        if not args.labels:
            raise ValueError("case weyl needs --labels")
        labels = parse_int_list(args.labels)
        if len(labels) != args.n:
            raise ValueError(f"need {args.n} labels")
        _check_group_order(args.n, MAX_WEYL_ORDER)
        norm = weyl_character(weight_from_labels(labels), maxdeg)
        prefix = norm.prefix
        series = norm.series
    else:
        norm = unitary_character(case, maxdeg, m1=args.m1, m2=args.m2)
        prefix = norm.prefix
        series = norm.series
    if args.format == "text":
        _emit(series_to_text(series), args.out)
    elif args.format == "json":
        obj = series_to_json_obj(series)
        if prefix is not None:
            obj["lowest_weight"] = [_fr(x) for x in prefix]
        obj["case"] = case
        _emit(_json(obj), args.out)
    return 0


def cmd_verify(args) -> int:
    from ospuir.enveloping.singular import (
        PRINTED_IDS,
        printed_regime,
        verify_singular,
        verify_subsingular,
    )

    if args.n != 3:
        raise ValueError(f"the printed catalog is rank-three only, got --n {args.n}")
    if args.all:
        ids = list(PRINTED_IDS)
    elif args.id:
        ids = [args.id]
    else:
        raise ValueError("verify needs --all or --id")
    rows = []
    for vector_id in ids:
        if vector_id not in PRINTED_IDS and not vector_id.startswith("compact_"):
            raise ValueError(f"unknown vector id {vector_id!r}")
        sig = printed_regime(vector_id)
        if args.d is not None or args.a is not None:
            d = parse_rational(args.d) if args.d is not None else sig.d
            a = parse_int_list(args.a) if args.a is not None else sig.a
            sig = Signature(sig.n, d, a)
        if vector_id == "subsing_d13":
            kind = "subsingular"
            ok = verify_subsingular(vector_id, sig)
        else:
            kind = "singular"
            ok = verify_singular(vector_id, sig)
        rows.append(
            {
                "id": vector_id,
                "kind": kind,
                "n": sig.n,
                "a": list(sig.a),
                "d": _fr(sig.d),
                "ok": ok,
            }
        )
    if args.format == "json":
        _emit(_json(rows), args.out)
    elif args.format == "csv":
        table = [["id", "kind", "d", "a", "ok"]]
        for r in rows:
            table.append(
                [
                    r["id"],
                    r["kind"],
                    r["d"],
                    ",".join(str(x) for x in r["a"]),
                    str(r["ok"]).lower(),
                ]
            )
        _emit(_csv(table), args.out)
    elif args.format == "text":
        lines = [
            f"{r['id']}: {'pass' if r['ok'] else 'FAIL'} "
            f"(d={r['d']}, a={','.join(str(x) for x in r['a'])})"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gram(args) -> int:
    from ospuir.enveloping.module import (
        MAX_LEVEL_DEFAULT,
        gram_psd_check,
        module_vector_to_text,
    )

    sig = _sig_from(args)
    max_level = MAX_LEVEL_DEFAULT if args.max_level is None else args.max_level
    _check_gram_size(sig.n, max_level)
    report = gram_psd_check(sig, max_level=max_level)
    obj = {
        "n": sig.n,
        "a": list(sig.a),
        "d": _fr(sig.d),
        "max_level": report.max_level,
        "psd": report.psd,
        "verdict": "psd" if report.psd else "not_psd",
        "levels_checked": report.levels_checked,
    }
    if report.witness is not None:
        obj["witness"] = {
            "offset": list(report.witness_offset),
            "vector": module_vector_to_text(report.witness),
            "norm": _fr(report.witness_norm),
        }
    if args.format == "json":
        _emit(_json(obj), args.out)
    elif args.format == "text":
        lines = [f"verdict {obj['verdict']}"]
        if report.witness is not None:
            lines.append(f"witness {obj['witness']['vector']}")
            lines.append(f"norm {obj['witness']['norm']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_multiplet(args) -> int:
    from ospuir.characters import weight_from_labels
    from ospuir.weyl import multiplet_orbit, multiplet_to_dot

    labels = parse_int_list(args.labels)
    if len(labels) != args.n:
        raise ValueError(f"need {args.n} labels")
    _check_group_order(args.n, MAX_MULTIPLET_ORDER)
    orbit = multiplet_orbit(weight_from_labels(labels))
    if args.format == "dot":
        _emit(multiplet_to_dot(orbit), args.out)
        return 0
    obj = {
        "node_count": len(orbit.nodes),
        "nodes": [
            {
                "index": node.index,
                "labels": [_fr(x) for x in node.labels],
                "weight": [_fr(x) for x in node.weight],
                "length": node.w.length,
                "word": "".join(str(k) for k in node.w.reduced_word),
            }
            for node in orbit.nodes
        ],
        "edges": [
            {"src": u, "dst": v, "k": k} for (u, v, k) in orbit.edges
        ],
    }
    _emit(_json(obj), args.out)
    return 0


def cmd_weyl(args) -> int:
    from ospuir.weyl import MAX_GROUP_RANK, generate

    n = args.n
    if not 2 <= n <= MAX_GROUP_RANK:
        raise ValueError(f"rank must be in [2, {MAX_GROUP_RANK}] for group generation")
    _check_group_order(n, MAX_WEYL_ORDER)
    group = generate(n)
    if args.format == "json":
        obj = {
            "n": args.n,
            "order": len(group),
            "longest_length": group[-1].length,
            "elements": [
                {
                    "word": "".join(str(k) for k in w.reduced_word),
                    "length": w.length,
                }
                for w in group
            ],
        }
        _emit(_json(obj), args.out)
    elif args.format == "csv":
        rows = [["word", "length"]]
        for w in group:
            rows.append(["".join(str(k) for k in w.reduced_word), str(w.length)])
        _emit(_csv(rows), args.out)
    elif args.format == "text":
        lines = [
            ("e" if not w.reduced_word else "".join(str(k) for k in w.reduced_word))
            for w in group
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospuir",
        description="Exact unitarity, characters, and singular vectors "
        "for lowest-weight osp(1|2n) modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, default):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", default=None)

    p = sub.add_parser("classify", help="unitarity verdict for one signature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--d", required=True)
    add_common(p, ["json", "csv", "text"], "json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("grid", help="verdicts over a rectangular (a, d) grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-max", type=int, default=3)
    p.add_argument("--d-max", default="5")
    p.add_argument("--d-step", default="1/4")
    add_common(p, ["json", "csv"], "json")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("reduction-points", help="named reduction points in d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="")
    add_common(p, ["json", "csv", "text"], "json")
    p.set_defaults(func=cmd_reduction_points)

    p = sub.add_parser("character", help="character series dumps")
    p.add_argument("--case", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--maxdeg", type=int, default=10)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--labels", default=None)
    add_common(p, ["text", "json"], "text")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("verify", help="validate printed vectors")
    p.add_argument("--all", action="store_true")
    p.add_argument("--id", default=None)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", default=None)
    p.add_argument("--a", default=None)
    add_common(p, ["json", "csv", "text"], "json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gram", help="Shapovalov positivity check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--d", required=True)
    p.add_argument("--max-level", type=int, default=None)
    add_common(p, ["json", "text"], "json")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("multiplet", help="dot-action orbit graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels", required=True)
    add_common(p, ["json", "dot"], "json")
    p.set_defaults(func=cmd_multiplet)

    p = sub.add_parser("weyl", help="signed-permutation Weyl group listing")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ["json", "csv", "text"], "json")
    p.set_defaults(func=cmd_weyl)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AssertionError as exc:  # AnomalyError is one too
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
