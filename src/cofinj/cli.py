"""Command-line front end: one-shot evaluation, script batches, a REPL, and
the egg-box DOT export.

Exit codes: 0 on success, 1 on an evaluation error, 2 on a parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from . import almost as _almost
from . import exprlang
from . import topology as _topology
from .core import NEG_INF, POS_INF, MonotoneElement, _PieceMap, element_from_gaps
from .exprlang import EvalError, ParseError, format_value

EGGBOX_MAX_GAP_BOUND = 4
EGGBOX_MAX_SHIFT_WINDOW = 8


def _json_value(v):
    if isinstance(v, bool):
        return {"type": "bool", "value": v}
    if isinstance(v, int):
        return {"type": "int", "value": v}
    if isinstance(v, _PieceMap):
        v = _almost.canonicalize(v)
        if isinstance(v, MonotoneElement):
            return {
                "type": "monotone",
                "segments": [
                    {
                        "lo": "-inf" if lo == NEG_INF else lo,
                        "hi": "+inf" if hi == POS_INF else hi,
                        "offset": off,
                    }
                    for lo, hi, off in v.pieces
                ],
            }
        return {
            "type": "almost",
            "d": v.left_end,
            "L": v.left_offset,
            "u": v.right_start,
            "R": v.right_offset,
            "middle": [[k, y] for k, y in v.middle.items()],
        }
    if isinstance(v, _topology.BasicNeighborhood):
        return {
            "type": "neighborhood",
            "flavor": v.flavor,
            "center": _json_value(v.center),
            "pins": sorted(v.pins),
        }
    if isinstance(v, tuple) and len(v) == 2:
        return {"type": "pair", "items": [_json_value(x) for x in v]}
    if isinstance(v, (frozenset, set)):
        return {
            "type": "set",
            "items": [_json_value(x) for x in sorted(v, key=exprlang._sort_key)],
        }
    raise EvalError(f"cannot serialize {v!r}")


def render_value(v, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_json_value(v))
    return format_value(v)


# -- egg-box export -----------------------------------------------------------------


def _gap_sets(bound: int):
    window = range(0, bound)
    out = []
    for size in range(bound + 1):
        out.extend(combinations(window, size))
    return out


def export_eggbox(max_gap_bound: int, shift_window: int) -> str:
    """DOT grid of H-classes: rows share a domain-gap set, columns a range-gap set.

    Gap sets run over the subsets of [0, max_gap_bound); each cell lists the
    class members whose left tail offset lies in [-shift_window, shift_window].
    Output is deterministic byte for byte.
    """
    if not 0 <= max_gap_bound <= EGGBOX_MAX_GAP_BOUND:
        raise ValueError(f"max_gap_bound must be in [0, {EGGBOX_MAX_GAP_BOUND}]")
    if not 0 <= shift_window <= EGGBOX_MAX_SHIFT_WINDOW:
        raise ValueError(f"shift_window must be in [0, {EGGBOX_MAX_SHIFT_WINDOW}]")
    sets = _gap_sets(max_gap_bound)
    lines = [
        "digraph eggbox {",
        '  node [shape=box fontname="monospace"];',
        "  rankdir=TB;",
    ]
    for i, dgaps in enumerate(sets):
        for j, rgaps in enumerate(sets):
            reps = [
                element_from_gaps(dgaps, rgaps, k).to_text()
                for k in range(-shift_window, shift_window + 1)
            ]
            drow = "{" + ",".join(map(str, dgaps)) + "}"
            rcol = "{" + ",".join(map(str, rgaps)) + "}"
            label = "\\n".join([f"dom gaps {drow} | ran gaps {rcol}"] + reps)
            lines.append(f'  cell_{i}_{j} [label="{label}"];')
    for i in range(len(sets)):
        row = "; ".join(f"cell_{i}_{j}" for j in range(len(sets)))
        lines.append(f"  {{ rank=same; {row}; }}")
    for i in range(len(sets) - 1):
        lines.append(f"  cell_{i}_0 -> cell_{i + 1}_0 [style=invis];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------------


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def repl(ev, fmt: str) -> int:
    while True:
        try:
            line = input("cofinj> ")
        except EOFError:
            print()
            return 0
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            return 0
        try:
            print(render_value(ev.run(line), fmt))
        except ParseError as e:
            print(f"parse error: {e}", file=sys.stderr)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cofinj",
        description="Calculator for the monoids of monotone and almost-monotone "
        "injective partial selfmaps of Z with cofinite domain and image.  "
        "Note that x*y composes in diagram order: x acts first.",
    )
    ap.add_argument("--eval", metavar="EXPR", help="evaluate one statement and print the result")
    ap.add_argument("--script", metavar="FILE", help="evaluate statements from a file, one per line")
    ap.add_argument("--eggbox", metavar="G,S", help="export the egg-box grid for gap bound G and shift window S")
    ap.add_argument("--out", metavar="FILE", help="write output to a file instead of stdout")
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--seed", type=int, default=0, help="seed for the sampling forms (sample, audit_*)")
    args = ap.parse_args(argv)

    ev = exprlang.Evaluator(seed=args.seed)

    try:
        if args.eggbox is not None:
            try:
                g, s = (int(p) for p in args.eggbox.split(","))
            except ValueError:
                print("error: --eggbox expects two integers G,S", file=sys.stderr)
                return 1
            _emit(export_eggbox(g, s), args.out)
            return 0
        if args.eval is not None:
            _emit(render_value(ev.run(args.eval), args.format) + "\n", args.out)
            return 0
        if args.script is not None:
            with open(args.script) as fh:
                lines = list(fh)
            results = []
            start = 0  # the offset in the file of the current line
            for number, raw in enumerate(lines, 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    try:
                        results.append(render_value(ev.run(line), args.format))
                    except ParseError as e:
                        # a statement is one line: report its error at its place in the file
                        indent = len(raw) - len(raw.lstrip())
                        raise ParseError(e.message, start + indent + e.pos, number, indent + e.col,
                                         e.expected) from None
                start += len(raw)
            _emit("".join(r + "\n" for r in results), args.out)
            return 0
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    return repl(ev, args.format)


if __name__ == "__main__":
    sys.exit(main())
