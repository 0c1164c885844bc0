"""Command-line interface.

Subcommands: classify, grid, reduction-points, character, verify, gram,
multiplet, weyl.  Formats: json (default for most), csv, text, dot.  All
rationals cross the boundary as exact "p/q" strings; decimals are rejected.
Exit codes: 0 success, 2 usage error, 3 internal anomaly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ospuir.characters import (
    series_to_json_obj,
    series_to_text,
    sl3_character,
    unitary_character,
    verma_character,
    weight_from_labels,
    weyl_character,
)
from ospuir.enveloping import (
    AnomalyError,
    MAX_LEVEL_DEFAULT,
    PRINTED_IDS,
    gram_psd_check,
    module_vector_to_text,
    printed_regime,
    verify_singular,
    verify_subsingular,
)
from ospuir.unitarity import classify, subsingular_points, unitarity_grid
from ospuir.weights import Signature, reduction_points
from ospuir.weyl import generate, multiplet_orbit, multiplet_to_dot

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


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
    else:
        raise ValueError(f"classify does not support format {args.format!r}")
    return 0


def cmd_grid(args) -> int:
    n = args.n
    a_max = args.a_max
    d_max = parse_rational(args.d_max)
    d_step = parse_rational(args.d_step)
    if d_step <= 0 or d_max < 0:
        raise ValueError("d grid must have positive step and nonnegative max")
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
    else:
        raise ValueError(f"grid does not support format {args.format!r}")
    return 0


def cmd_reduction_points(args) -> int:
    n = args.n
    a = parse_int_list(args.a)
    pts = reduction_points(n, a)
    entries = []
    for i in sorted(pts.d_odd):
        entries.append((pts.point_name(i), "delta_i", i, None, pts.d_odd[i]))
    for i in sorted(pts.d_double):
        entries.append((pts.point_name(i, i), "2delta_i", i, i, pts.d_double[i]))
    for (i, j) in sorted(pts.d_sum):
        entries.append(
            (pts.point_name(i, j), "delta_i+delta_j", i, j, pts.d_sum[(i, j)])
        )
    entries.sort(key=lambda e: (-e[4], e[0]))
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
    else:
        raise ValueError(f"reduction-points does not support format {args.format!r}")
    return 0


def cmd_character(args) -> int:
    case = args.case
    maxdeg = args.maxdeg
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    prefix = None
    if case == "verma":
        series = verma_character(args.n, maxdeg)
    elif case == "sl3":
        if args.m1 is None or args.m2 is None:
            raise ValueError("case sl3 needs --m1 and --m2")
        series = sl3_character(args.m1, args.m2)
        series = series.truncate(min(maxdeg, series.maxdeg))
    elif case == "weyl":
        if not args.labels:
            raise ValueError("case weyl needs --labels")
        labels = parse_int_list(args.labels)
        if len(labels) != args.n:
            raise ValueError(f"need {args.n} labels")
        lam0 = weight_from_labels(labels)
        norm = weyl_character(lam0, maxdeg)
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
    else:
        raise ValueError(f"character does not support format {args.format!r}")
    return 0


def cmd_verify(args) -> int:
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
    else:
        raise ValueError(f"verify does not support format {args.format!r}")
    return 0


def cmd_gram(args) -> int:
    sig = _sig_from(args)
    report = gram_psd_check(sig, max_level=args.max_level)
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
    else:
        raise ValueError(f"gram does not support format {args.format!r}")
    return 0


def cmd_multiplet(args) -> int:
    labels = parse_int_list(args.labels)
    if len(labels) != args.n:
        raise ValueError(f"need {args.n} labels")
    lam0 = weight_from_labels(labels)
    orbit = multiplet_orbit(lam0)
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
    if args.format == "json":
        _emit(_json(obj), args.out)
    else:
        raise ValueError(f"multiplet does not support format {args.format!r}")
    return 0


def cmd_weyl(args) -> int:
    group = generate(args.n)
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
    else:
        raise ValueError(f"weyl does not support format {args.format!r}")
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
    p.add_argument("--max-level", type=int, default=MAX_LEVEL_DEFAULT)
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
    except AnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
