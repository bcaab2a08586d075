"""Command-line front end.

Every subcommand that analyses graphs emits one JSON envelope on stdout:

    {schema_version, tool, version, command, input, results, timing_s}

timing_s stays null unless --timing is passed, so repeated runs on the same
input are byte-identical.  Exit codes: 0 ok, 1 a check failed or a
counterexample/invariant violation surfaced, 2 usage or input errors, or
(divide, color, oracle, linegraph) a graph of the batch over a capacity
cap, or (linegraph) one that is disconnected or has no edge: that graph's
row carries the error and every other row is still computed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__, formats
from .divisibility import _line_graph, color_by_division, divide_weighted, line_graph_division
from .divisibility import perfect_division
from .graph import Graph, bits
from .harness import CHECKS, enumerate_nonisomorphic, graphs_up_to, random_gnp, run_all
from .limits import CapacityError, InvariantError
from .oracles import (
    chromatic_number,
    clique_number,
    find_odd_hole,
    independence_number,
    is_perfect,
)
from .patterns import classify, find_induced, pattern, pattern_names

_FORMATS = ("g6", "dimacs", "edges")
_SUFFIXES = {
    ".g6": "g6",
    ".graph6": "g6",
    ".dimacs": "dimacs",
    ".col": "dimacs",
    ".edges": "edges",
    ".edgelist": "edges",
}


class _UsageError(Exception):
    pass


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    if path == "-":
        return "g6"
    for suffix, fmt in _SUFFIXES.items():
        if path.endswith(suffix):
            return fmt
    return "g6"


def _read_graphs(path: str, fmt: str | None):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read {path}: {exc}") from exc
    fmt = _infer_format(path, fmt)
    try:
        if fmt == "g6":
            graphs = formats.parse_graph6_lines(text)
        elif fmt == "dimacs":
            graphs = [formats.parse_dimacs(text)]
        else:
            graphs = [formats.parse_edgelist(text)]
    except formats.FormatError as exc:
        raise _UsageError(f"{path}: {exc}") from exc
    if not graphs:
        raise _UsageError(f"{path}: no graphs found")
    meta = {
        "path": path,
        "format": fmt,
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "graphs": len(graphs),
    }
    return graphs, meta


def _envelope(command: str, input_meta, results, started: float | None):
    return {
        "schema_version": 1,
        "tool": "forkdiv",
        "version": __version__,
        "command": command,
        "input": input_meta,
        "results": results,
        "timing_s": None if started is None else round(time.perf_counter() - started, 3),
    }


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _cmd_detect(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    pat = pattern(args.pattern)
    results = []
    for g in graphs:
        w = find_induced(g, pat, args.pattern)
        results.append(
            {
                "graph6": formats.emit_graph6(g),
                "pattern": args.pattern,
                "present": w is not None,
                "witness": list(w.mapping) if w else None,
            }
        )
    _emit(_envelope("detect", meta, results, started))
    return 0


def _cmd_classify(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    results = [
        {"graph6": formats.emit_graph6(g), **classify(g).to_json()} for g in graphs
    ]
    _emit(_envelope("classify", meta, results, started))
    return 0


def _load_weights(path: str, n: int):
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read weights {path}: {exc}") from exc
    if not isinstance(data, list) or len(data) != n:
        raise _UsageError(f"weights must be a JSON list of {n} integers")
    if not all(isinstance(x, int) and x >= 0 for x in data):
        raise _UsageError("weights must be nonnegative integers")
    return tuple(data)


def _cmd_divide(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    if args.weights and len(graphs) != 1:
        raise _UsageError("--weights applies to a single-graph input")
    results = []
    code = 0
    for g in graphs:
        row = {"graph6": formats.emit_graph6(g)}
        try:
            if args.weights:
                d = divide_weighted(g, _load_weights(args.weights, g.n))
            else:
                d = perfect_division(g)
        except CapacityError as exc:
            row.update(division=None, error=str(exc))
            code = 2
        else:
            row["division"] = d.to_json() if d else None
            if d is None:
                row["error"] = "no perfect division exists"
                code = max(code, 1)
        results.append(row)
    _emit(_envelope("divide", meta, results, started))
    return code


def _cmd_color(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    results = []
    code = 0
    for g in graphs:
        row = {"graph6": formats.emit_graph6(g)}
        try:
            row.update(color_by_division(g).to_json())
        except CapacityError as exc:
            row["error"] = str(exc)
            code = 2
        results.append(row)
    _emit(_envelope("color", meta, results, started))
    return code


_ORACLES = {
    "chi": chromatic_number,
    "omega": clique_number,
    "alpha": independence_number,
    "perfect": is_perfect,
    "odd-hole": lambda g: None if (hole := find_odd_hole(g)) is None else sorted(bits(hole)),
}


def _cmd_oracle(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    field = args.question.replace("-", "_")
    results = []
    code = 0
    for g in graphs:
        row = {"graph6": formats.emit_graph6(g)}
        try:
            row[field] = _ORACLES[args.question](g)
        except CapacityError as exc:
            row.update({field: None, "error": str(exc)})
            code = 2
        results.append(row)
    _emit(_envelope("oracle", meta, results, started))
    return code


def _cmd_gen(args, started):
    if args.gnp:
        try:
            n, p, seed = int(args.gnp[0]), float(args.gnp[1]), int(args.gnp[2])
        except ValueError:
            raise _UsageError("--gnp expects integers N and SEED and a float P") from None
        out = [random_gnp(n, p, seed)]
    else:
        out = enumerate_nonisomorphic(args.all)
    for g in out:
        sys.stdout.write(formats.emit_graph6(g) + "\n")
    return 0


def _cmd_verify(args, started):
    if args.check != "all" and args.check not in CHECKS:
        raise _UsageError(
            f"unknown check {args.check!r}; pick from {', '.join(CHECKS)} or all"
        )
    if args.corpus:
        graphs, meta = _read_graphs(args.corpus, args.format)
        desc = f"corpus {args.corpus}"
    else:
        graphs = graphs_up_to(args.all)
        meta = {
            "path": None,
            "format": "generated",
            "sha256": None,
            "graphs": len(graphs),
        }
        desc = f"all graphs on 1..{args.all} vertices"
    ids = None if args.check == "all" else [args.check]
    reports = run_all(graphs, desc, ids)
    results = [r.to_json(include_timing=args.timing) for r in reports]
    _emit(_envelope("verify", meta, results, started))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_linegraph(args, started):
    graphs, meta = _read_graphs(args.input, args.format)
    results = []
    code = 0
    for g in graphs:
        row = {"graph6": formats.emit_graph6(g)}
        try:
            lg, edge_list, d = line_graph_division(g) if args.divide else (*_line_graph(g), None)
        except (InvariantError, ValueError, CapacityError) as exc:
            # a failed certificate is a finding; the rest are input errors
            row["error"] = str(exc)
            code = max(code, 1 if isinstance(exc, InvariantError) else 2)
        else:
            row["line_graph6"] = formats.emit_graph6(lg)
            row["edge_order"] = [list(e) for e in edge_list]
            if d is not None:
                row["division"] = d.to_json()
        results.append(row)
    _emit(_envelope("linegraph", meta, results, started))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkdiv",
        description="structure analysis of fork-free graphs: pattern detection,"
        " perfect division, divisibility-based colouring, theorem verification",
    )
    parser.add_argument("--timing", action="store_true", help="fill timing_s in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-", help="input path or - for stdin")
        p.add_argument("--format", choices=_FORMATS, help="override format inference")

    p = sub.add_parser("detect", help="search for one induced pattern")
    p.add_argument("--pattern", required=True, metavar="NAME",
                   help=f"one of: {', '.join(pattern_names())}")
    add_input(p)
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("classify", help="forbidden-pattern class memberships and chi bounds")
    add_input(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("divide", help="find a perfect division")
    p.add_argument("--weights", metavar="FILE", help="JSON list of vertex weights")
    add_input(p)
    p.set_defaults(run=_cmd_divide)

    p = sub.add_parser("color", help="colour by iterated perfect division")
    add_input(p)
    p.set_defaults(run=_cmd_color)

    p = sub.add_parser("oracle", help="exact invariants")
    p.add_argument("question", choices=tuple(_ORACLES))
    add_input(p)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("gen", help="emit graph6 lines")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", type=int, metavar="N",
                       help="all non-isomorphic graphs on exactly N vertices")
    group.add_argument("--gnp", nargs=3, metavar=("N", "P", "SEED"),
                       help="one seeded G(n, p) sample")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="run theorem checks over a corpus")
    p.add_argument("--check", default="all",
                   help=f"one of: {', '.join(CHECKS)}, or all (default)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", metavar="FILE", help="graph6 corpus, - for stdin")
    group.add_argument("--all", type=int, metavar="N",
                       help="all graphs on 1..N vertices")
    p.add_argument("--format", choices=_FORMATS, help="corpus format override")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("linegraph", help="line graph, optionally with its division")
    p.add_argument("--divide", action="store_true", help="include the spanning-tree division")
    add_input(p)
    p.set_defaults(run=_cmd_linegraph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter() if args.timing else None
    try:
        return args.run(args, started)
    except _UsageError as exc:
        print(f"forkdiv: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"forkdiv: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"forkdiv: invariant violated: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"forkdiv: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
