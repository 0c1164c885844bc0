"""Command-line interface.

The subcommands are the rows of COMMANDS: each row gives the help text, the
handler, the output formats (the first is the default) and the options, and
build_parser is one loop over the rows that adds --format and --out to each.
A handler checks its request, runs it and returns a Payload, one
zero-argument builder per format; main builds only the requested format and
emits it to stdout or --out.  Formats: classify, reduction-points, verify
and weyl json (default), csv, text; grid json (default), csv; gram json
(default), text; multiplet json (default), dot; character text (default),
json.  All rationals cross the boundary as exact "p/q" strings; decimals are
rejected.  Exit codes: 0 success, 2 usage error (an --out path that cannot
be written is one), 3 internal anomaly.  Each cmd_* function imports the
library names it uses in its own body, so a process loads only the modules
its subcommand runs.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ospuir.weights import Signature, parse_rational

Payload = Dict[str, Callable[[], str]]

# Each subcommand's parser reads an argument matching this as a negative
# number, so as an option's value: argparse's own pattern (-5, and -1.5,
# which parse_rational then refuses) plus -p/q and comma lists of ints
# such as -1,0, which it would otherwise take for an unknown option.
_NEGATIVE_ARG_RE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-\d+(,-?\d+)+$")

# Largest requests the command line accepts; larger ones exit 2 before any
# allocation.  The ranks each subcommand takes are root_system.RANKS, which
# the library checks.  On a 2-vCPU x86-64 host with CPython 3.11, a rank-3
# grid of 10,100 cells takes 14 s and 30 MB, weyl --n 6 (46,080 elements)
# 3.7 s and 80 MB, and multiplet with every label 1, the whole dot orbit of
# W(B_n), 0.2 s and 18 MB at n = 4 (384 nodes) and, at the top rank n = 5
# (3,840 nodes), 0.9-1.4 s with 41 MB as json and 23 MB as dot.  A gram scan at a != 0 costs about the sum of dim^2 over
# its dominant blocks up to --max-level (dim = partition_count): rank 4 to
# level 4 (3,087,225) takes 10-11 s and 360 MB at a = (0,0,1), d = 9/2,
# and rank 3 to level 6 (773,920) 9-10 s and 150 MB at a = (1,1), d = 5,
# both unitary cells.  At a = 0 the scan judges only the noncompact rows,
# and the same two scans take 0.2 s and 0.1 s; rank 5 to level 3
# (5,792,062, refused) takes 0.2 s by direct call.  A character series in
# n variables to total degree maxdeg has at most C(maxdeg + n, n) terms:
# verma --n 3 --maxdeg 141 (487,344) takes 2.0-2.9 s and 148 MB as text
# and 2.3-2.9 s and 243 MB as json, weyl --n 6 --maxdeg 23 (475,020)
# 0.16 s and 27 MB, and sl3 --m1 250 --m2 249 (2 variables to degree 998,
# 499,500) 0.27 s and 53 MB.
MAX_GRID_CELLS = 50_000
MAX_GRAM_WORK = 4_000_000
MAX_CHARACTER_TERMS = 500_000


def parse_int_list(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}")


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(rows: Sequence[Sequence[str]]) -> str:
    import csv   # loaded only for csv output

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


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
    of dim^2 above MAX_GRAM_WORK; the sum is taken block by block in scan
    order, so the count stops at the first block past the limit and the
    message reports the partial sum.

    The count is over whole blocks also at a = 0, where the scan judges
    only the noncompact rows: the first block that fails is built whole
    for its witness, so the scanned rows do not bound the cost."""
    from ospuir.enveloping.module import level_offsets
    from ospuir.root_system import check_rank, partition_count

    check_rank("engine", n)
    work = 0
    for level in range(1, max_level + 1):
        for off in level_offsets(n, level):
            work += partition_count(n, off) ** 2
            if work > MAX_GRAM_WORK:
                raise ValueError(
                    f"gram blocks to level {level} at rank {n} have a sum of dim^2 of "
                    f"at least {work}, above the limit of {MAX_GRAM_WORK}"
                )


def _sig_from(args) -> Signature:
    a = parse_int_list(args.a)
    d = parse_rational(args.d)
    return Signature(args.n, d, a)


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


def _word(w) -> str:
    """A Weyl element's reduced word as a string of simple-reflection indices."""
    return "".join(str(k) for k in w.reduced_word)


def _verdict_obj(verdict) -> dict:
    sig = verdict.sig
    point = None
    if verdict.governing_point is not None:
        name, value = verdict.governing_point
        point = {"name": name, "d": str(value)}
    return {
        "n": sig.n,
        "a": list(sig.a),
        "d": str(sig.d),
        "unitary": verdict.unitary,
        "branch": verdict.branch,
        "point": point,
        "audit": {
            "leading_zero_count": verdict.audit["leading_zero_count"],
            "kappa": str(verdict.audit["kappa"]),
            "threshold": str(verdict.audit["threshold"]),
            "isolated_points": [str(x) for x in verdict.audit["isolated_points"]],
            "note": verdict.audit["note"],
        },
    }


def _verdict_csv(n: int, verdicts) -> str:
    """One header and one row per verdict, for classify and grid alike."""
    head = [f"a{k + 1}" for k in range(n - 1)] + ["d", "unitary", "branch", "point"]
    return _csv([head] + [
        [str(x) for x in v.sig.a]
        + [str(v.sig.d), str(v.unitary).lower(), v.branch,
           v.governing_point[0] if v.governing_point else ""]
        for v in verdicts
    ])


def cmd_classify(args) -> Payload:
    from ospuir.unitarity import classify

    verdict = classify(_sig_from(args))
    sig = verdict.sig
    point = verdict.governing_point[0] if verdict.governing_point else "-"
    return {
        "json": lambda: _json(_verdict_obj(verdict)),
        "csv": lambda: _verdict_csv(sig.n, [verdict]),
        "text": lambda: _text([
            f"signature [{sig.d}; {_ints(sig.a)}]",
            f"unitary {str(verdict.unitary).lower()}",
            f"branch {verdict.branch}",
            f"point {point}",
        ]),
    }


def cmd_grid(args) -> Payload:
    from ospuir.root_system import check_rank
    from ospuir.unitarity import unitarity_grid

    n = args.n
    a_max = args.a_max
    d_max = parse_rational(args.d_max)
    d_step = parse_rational(args.d_step)
    if d_step <= 0 or d_max < 0:
        raise ValueError("d grid must have positive step and nonnegative max")
    if a_max < 0:
        raise ValueError(f"labels are nonnegative, got --a-max {a_max}")
    check_rank("roots", n)
    steps = d_max // d_step + 1
    cells = steps * (a_max + 1) ** (n - 1)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {cells} cells exceeds the limit of {MAX_GRID_CELLS}")
    d_values = [k * d_step for k in range(steps)]
    ranges = [range(a_max + 1)] * (n - 1)
    verdicts = [row.verdict for row in unitarity_grid(n, ranges, d_values)]
    return {
        "json": lambda: _json([_verdict_obj(v) for v in verdicts]),
        "csv": lambda: _verdict_csv(n, verdicts),
    }


def cmd_reduction_points(args) -> Payload:
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
    return {
        "json": lambda: _json({
            "n": n,
            "a": list(a),
            "points": [
                {"name": name, "family": fam, "i": i, "j": j, "d": str(val)}
                for name, fam, i, j, val in entries
            ],
            "subsingular": [{"d": str(val), "chain": chain} for val, chain in subs],
        }),
        "csv": lambda: _csv([["name", "family", "d"]] + [
            [name, fam, str(val)] for name, fam, _i, _j, val in entries
        ]),
        "text": lambda: _text(
            [f"{name} = {val}" for name, _f, _i, _j, val in entries]
            + [f"subsingular {chain} at d = {val}" for val, chain in subs]
        ),
    }


def cmd_character(args) -> Payload:
    from ospuir.characters import (
        check_maxdeg,
        series_to_json,
        series_to_text,
        sl3_character,
        unitary_character,
        verma_character,
        weight_from_labels,
        weyl_character,
    )

    case = args.case
    maxdeg = args.maxdeg
    check_maxdeg(maxdeg)
    # each case is sized before it is built; the unitary cases and sl3 are
    # rank three, and the sl3 series is divided to its numerator's top
    # degree 2(m1 + m2) whatever maxdeg is, so it is sized by its labels
    prefix = None
    if case == "verma":
        _check_series_terms(args.n, maxdeg)
        series = verma_character(args.n, maxdeg)
    elif case == "weyl":
        _check_series_terms(args.n, maxdeg)
        if not args.labels:
            raise ValueError("case weyl needs --labels")
        labels = parse_int_list(args.labels)
        if len(labels) != args.n:
            raise ValueError(f"need {args.n} labels")
        norm = weyl_character(weight_from_labels(labels), maxdeg)
        prefix, series = norm.prefix, norm.series
    elif args.n != 3:
        raise ValueError(f"the unitary cases and sl3 are rank-three only, got --n {args.n}")
    elif case == "sl3":
        if args.m1 is None or args.m2 is None:
            raise ValueError("case sl3 needs --m1 and --m2")
        _check_series_terms(2, 2 * (args.m1 + args.m2))
        series = sl3_character(args.m1, args.m2).truncate(maxdeg)
    else:
        _check_series_terms(3, maxdeg)
        norm = unitary_character(case, maxdeg, m1=args.m1, m2=args.m2)
        prefix, series = norm.prefix, norm.series
    lowest = {} if prefix is None else {"lowest_weight": [str(x) for x in prefix]}
    return {
        "text": lambda: series_to_text(series),
        "json": lambda: series_to_json(series, **lowest, case=case),
    }


def cmd_verify(args) -> Payload:
    from ospuir.enveloping.singular import (
        PRINTED_IDS, catalog_entry, printed_regime, verify_singular,
    )

    if args.n != 3:
        raise ValueError(f"the printed catalog is rank-three only, got --n {args.n}")
    if args.all:
        ids = PRINTED_IDS
    elif args.id:
        ids = [args.id]
    else:
        raise ValueError("verify needs --all or --id")
    rows = []
    for vector_id in ids:
        sig = printed_regime(vector_id)
        if args.d is not None or args.a is not None:
            d = parse_rational(args.d) if args.d is not None else sig.d
            a = parse_int_list(args.a) if args.a is not None else sig.a
            sig = Signature(sig.n, d, a)
        rows.append({
            "id": vector_id,
            "kind": "subsingular" if catalog_entry(vector_id).beta is None else "singular",
            "n": sig.n,
            "a": list(sig.a),
            "d": str(sig.d),
            "ok": verify_singular(vector_id, sig),
        })
    return {
        "json": lambda: _json(rows),
        "csv": lambda: _csv([["id", "kind", "d", "a", "ok"]] + [
            [r["id"], r["kind"], r["d"], _ints(r["a"]), str(r["ok"]).lower()]
            for r in rows
        ]),
        "text": lambda: _text(
            f"{r['id']}: {'pass' if r['ok'] else 'FAIL'} (d={r['d']}, a={_ints(r['a'])})"
            for r in rows
        ),
    }


def cmd_gram(args) -> Payload:
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
        "d": str(sig.d),
        "max_level": report.max_level,
        "psd": report.psd,
        "verdict": "psd" if report.psd else "not_psd",
        "levels_checked": report.levels_checked,
    }
    lines = [f"verdict {obj['verdict']}"]
    if report.witness is not None:
        obj["witness"] = {
            "offset": list(report.witness_offset),
            "vector": module_vector_to_text(report.witness),
            "norm": str(report.witness_norm),
        }
        lines += [f"witness {obj['witness']['vector']}", f"norm {obj['witness']['norm']}"]
    return {"json": lambda: _json(obj), "text": lambda: _text(lines)}


def cmd_multiplet(args) -> Payload:
    from ospuir.weights import weight_from_labels
    from ospuir.weyl import multiplet_orbit, multiplet_to_dot

    labels = parse_int_list(args.labels)
    if len(labels) != args.n:
        raise ValueError(f"need {args.n} labels")
    orbit = multiplet_orbit(weight_from_labels(labels))
    return {
        "json": lambda: _json({
            "node_count": len(orbit.nodes),
            "nodes": [
                {
                    "index": node.index,
                    "labels": [str(x) for x in node.labels],
                    "weight": [str(x) for x in node.weight],
                    "length": node.w.length,
                    "word": _word(node.w),
                }
                for node in orbit.nodes
            ],
            "edges": [{"src": u, "dst": v, "k": k} for (u, v, k) in orbit.edges],
        }),
        "dot": lambda: multiplet_to_dot(orbit),
    }


def cmd_weyl(args) -> Payload:
    from ospuir.weyl import generate

    n = args.n
    group = generate(n)
    return {
        "json": lambda: _json({
            "n": n,
            "order": len(group),
            "longest_length": group[-1].length,
            "elements": [{"word": _word(w), "length": w.length} for w in group],
        }),
        "csv": lambda: _csv([["word", "length"]] + [[_word(w), str(w.length)] for w in group]),
        "text": lambda: _text(_word(w) or "e" for w in group),
    }


class Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace], Payload]
    formats: Tuple[str, ...]  # the first is the default
    options: Tuple[Tuple[str, dict], ...]  # (flag, add_argument keywords)


_N = ("--n", {"type": int, "required": True})
_N3 = ("--n", {"type": int, "default": 3})
_A = ("--a", {"default": ""})
_D = ("--d", {"required": True})
_ALL = ("json", "csv", "text")

COMMANDS = {
    "classify": Command(
        "unitarity verdict for one signature", cmd_classify, _ALL,
        (_N, _A, _D)),
    "grid": Command(
        "verdicts over a rectangular (a, d) grid", cmd_grid, ("json", "csv"),
        (_N, ("--a-max", {"type": int, "default": 3}), ("--d-max", {"default": "5"}),
         ("--d-step", {"default": "1/4"}))),
    "reduction-points": Command(
        "named reduction points in d", cmd_reduction_points, _ALL,
        (_N, _A)),
    "character": Command(
        "character series dumps", cmd_character, ("text", "json"),
        (("--case", {"required": True}), _N3, ("--maxdeg", {"type": int, "default": 10}),
         ("--m1", {"type": int}), ("--m2", {"type": int}), ("--labels", {}))),
    "verify": Command(
        "validate printed vectors", cmd_verify, _ALL,
        (("--all", {"action": "store_true"}), ("--id", {}), _N3, ("--d", {}), ("--a", {}))),
    "gram": Command(
        "Shapovalov positivity check", cmd_gram, ("json", "text"),
        (_N, _A, _D, ("--max-level", {"type": int}))),
    "multiplet": Command(
        "dot-action orbit graph", cmd_multiplet, ("json", "dot"),
        (_N, ("--labels", {"required": True}))),
    "weyl": Command(
        "signed-permutation Weyl group listing", cmd_weyl, _ALL,
        (_N,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospuir",
        description="Exact unitarity, characters, and singular vectors "
        "for lowest-weight osp(1|2n) modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p._negative_number_matcher = _NEGATIVE_ARG_RE
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=command.formats, default=command.formats[0])
        p.add_argument("--out", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = COMMANDS[args.command].handler(args)
        _emit(payload[args.format](), args.out)
    except AssertionError as exc:  # AnomalyError is one too
        print(f"anomaly: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
