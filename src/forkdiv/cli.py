"""Command-line front end.

Every subcommand that analyses graphs emits one JSON envelope on stdout:

    {schema_version, tool, version, command, input, results, timing_s}

timing_s stays null unless --timing is passed, so repeated runs on the same
input are byte-identical.  Exit codes: 0 ok, 1 a check failed or a
counterexample/invariant violation surfaced, 2 usage or input errors.

The per-graph commands (detect, classify, divide, color, oracle, linegraph)
share one error-row policy: a graph over a capacity cap or invalid for the
command gives its row an "error" and exit 2, a failed certificate or a
graph with no answer (divide: no perfect division) does so with exit 1,
2 outranks 1, and every other row is still computed.  Usage errors found
before any row (an unknown pattern, a bad weights file) write no envelope.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from . import __version__, formats
from .divisibility import _line_graph, color_by_division, divide_weighted, line_graph_division
from .divisibility import perfect_division
from .graph import Graph, bits
from .harness import CHECKS, iter_graphs_up_to, iter_nonisomorphic, random_gnp, run_all
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
    _, dot, ext = path.rpartition(".")
    return explicit or _SUFFIXES.get(dot + ext, "g6")


def _parse_input(path: str, fmt: str | None, meta: dict):
    """Yield (graph6, graph) per graph of the input, a graph6 line parsed as it is read,
    then fill meta with path, format and the SHA-256 of the text as text mode reads it.
    The graph6 is the stripped line, or emit_graph6's where that differs (a "~" header
    on fewer than 63 vertices) or the input is not graph6."""
    import hashlib  # here, so that `gen` and `verify --all` do not load it
    fmt, digest, lines, g = _infer_format(path, fmt), hashlib.sha256(), [], None
    try:
        source = nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    with source as fh:
        ln = 0
        for chunk in fh:  # a byte over 127 decodes to a lone surrogate
            text = chunk.decode("ascii", "surrogateescape")
            for ln, line in enumerate(text.splitlines(), ln + 1):  # as splitlines numbers all
                if not line.isascii():
                    byte = ord(next(ch for ch in line if not ch.isascii())) - 0xDC00
                    raise _UsageError(f"{path}: line {ln}: byte {byte:#04x} is not ASCII")
                if fmt != "g6":
                    lines.append(line)
                elif line := line.strip():
                    try:
                        g = formats.parse_graph6(line)
                    except formats.FormatError as exc:
                        raise _UsageError(f"{path}: line {ln}: {exc}") from exc
                    yield formats.emit_graph6(g) if line[0] == "~" and g.n < 63 else line, g
            digest.update(text.replace("\r\n", "\n").replace("\r", "\n").encode("ascii"))
    if fmt != "g6":
        try:
            g = (formats.parse_dimacs if fmt == "dimacs" else formats.parse_edgelist)("\n".join(lines))
        except formats.FormatError as exc:
            raise _UsageError(f"{path}: {exc}") from exc
        yield formats.emit_graph6(g), g
    if g is None:
        raise _UsageError(f"{path}: no graphs found")
    meta.update(path=path, format=fmt, sha256=digest.hexdigest())


def _read_graphs(path: str, fmt: str | None):
    """Every (graph6, graph) pair of the input, parsed in full, and its metadata."""
    pairs = list(_parse_input(path, fmt, meta := {}))
    return pairs, {**meta, "graphs": len(pairs)}


def _envelope(command: str, input_meta, results, started: float | None):
    return {
        "schema_version": 1,
        "tool": "forkdiv",
        "version": __version__,
        "command": command,
        "input": input_meta,
        "results": results,
        "timing_s": None if started is None else lambda: round(time.perf_counter() - started, 3),
    }


_str = json.encoder.encode_basestring_ascii


def _json(o, nl="\n") -> str:
    """json.dumps(o, indent=2) with nl, a newline plus o's indent, at each line break; values
    not exact str/int/bool/None/list/str-keyed dict go to json.dumps (JSON has no raw newline)."""
    t = type(o)
    if t is str:
        return _str(o)
    if t is int:
        return int.__repr__(o)
    if o is None or t is bool:
        return "null" if o is None else "true" if o else "false"
    sep = "," + (inner := nl + "  ")
    if t is list:
        if all(type(x) is int for x in o):  # not bools, as int.__repr__(True) is "1"
            return f"[{inner}{sep.join(map(int.__repr__, o))}{nl}]" if o else "[]"
        return f"[{inner}{sep.join([_json(x, inner) for x in o])}{nl}]"
    if t is dict and o and all(type(k) is str for k in o):
        items = [f"{_str(k)}: {_json(v, inner)}" for k, v in o.items()]
        return f"{{{inner}{sep.join(items)}{nl}}}"
    return json.dumps(o, indent=2).replace("\n", nl)


def _emit(payload) -> None:
    """Write json.dump(payload, sys.stdout, indent=2) and a newline, byte for
    byte, with one write per item of a top-level list (each results row).  A
    top-level iterator is written as a list, each item as it is yielded, and
    a top-level callable as what it returns once the values before it are out."""
    write = sys.stdout.write
    if type(payload) is not dict or not payload or not all(type(k) is str for k in payload):
        write(_json(payload) + "\n")
        return
    for i, (key, value) in enumerate(payload.items()):
        write(f"{',' if i else '{'}\n  {_str(key)}: ")
        value = value() if callable(value) else value
        if type(value) is list or hasattr(value, "__next__"):  # a list, or a generator
            sep = "["
            for item in value:
                write(sep + "\n    " + _json(item, "\n    "))
                sep = ","
            write("[]" if sep == "[" else "\n  ]")
        else:
            write(_json(value, "\n  "))
    write("\n}\n")


def _batch(args, started, answer, blank=(), read=None):
    """Write each input graph's row as soon as it is answered, keeping no list of
    rows: graph6, then the fields answer(graph) returns.  read: (pairs, meta), if read.

    The error-row policy of every per-graph command: a graph over a cap or
    invalid for the command (CapacityError, ValueError) becomes a row whose
    "error" carries the message, exit 2; a failed certificate
    (InvariantError), or an answer that carries its own "error", exit 1;
    2 outranks 1.  On an exception the blank fields are set to null ahead
    of "error".
    """
    pairs, meta = read or _read_graphs(args.input, args.format)
    code = 0

    def rows():
        nonlocal code
        for graph6, g in pairs:
            row = {"graph6": graph6}
            try:
                row.update(answer(g))
            except (CapacityError, ValueError, InvariantError) as exc:
                row.update(dict.fromkeys(blank), error=str(exc))
                code = max(code, 1 if isinstance(exc, InvariantError) else 2)
            else:
                if "error" in row:
                    code = max(code, 1)
            yield row

    _emit(_envelope(args.command, meta, rows(), started))
    return code


def _cmd_detect(args, started):
    pat = pattern(args.pattern)

    def answer(g):
        w = find_induced(g, pat, args.pattern)
        return {"pattern": args.pattern, "present": w is not None,
                "witness": list(w.mapping) if w else None}

    return _batch(args, started, answer)


def _cmd_classify(args, started):
    return _batch(args, started, lambda g: classify(g).to_json())


def _load_weights(path: str, n: int):
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not ASCII, or not JSON
        raise _UsageError(f"cannot read weights {path}: {exc}") from exc
    if not isinstance(data, list) or len(data) != n:
        raise _UsageError(f"weights must be a JSON list of {n} integers")
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in data):
        raise _UsageError("weights must be nonnegative integers")
    return tuple(data)


def _cmd_divide(args, started):
    pairs, meta = _read_graphs(args.input, args.format)
    weights = None
    if args.weights:
        if len(pairs) != 1:
            raise _UsageError("--weights applies to a single-graph input")
        weights = _load_weights(args.weights, pairs[0][1].n)

    def answer(g):
        d = perfect_division(g) if weights is None else divide_weighted(g, weights)
        if d is None:
            return {"division": None, "error": "no perfect division exists"}
        return {"division": d.to_json()}

    return _batch(args, started, answer, ("division",), (pairs, meta))


def _cmd_color(args, started):
    return _batch(args, started, lambda g: color_by_division(g).to_json())


_ORACLES = {
    "chi": chromatic_number,
    "omega": clique_number,
    "alpha": independence_number,
    "perfect": is_perfect,
    "odd-hole": lambda g: None if (hole := find_odd_hole(g)) is None else sorted(bits(hole)),
}


def _cmd_oracle(args, started):
    field = args.question.replace("-", "_")
    oracle = _ORACLES[args.question]
    return _batch(args, started, lambda g: {field: oracle(g)}, blank=(field,))


def _cmd_gen(args, started):
    if args.gnp:
        try:
            n, p, seed = int(args.gnp[0]), float(args.gnp[1]), int(args.gnp[2])
        except ValueError:
            raise _UsageError("--gnp expects integers N and SEED and a float P") from None
        out = [random_gnp(n, p, seed)]
    else:
        out = iter_nonisomorphic(args.all)  # streamed: level N is never held as a list
    for g in out:
        sys.stdout.write(formats.emit_graph6(g) + "\n")
    return 0


def _cmd_verify(args, started):
    if args.check != "all" and args.check not in CHECKS:
        raise _UsageError(
            f"unknown check {args.check!r}; pick from {', '.join(CHECKS)} or all"
        )
    if args.corpus:  # streamed as --all is; meta is filled in once the input is spent
        meta = {}
        graphs = (g for _, g in _parse_input(args.corpus, args.format, meta))
        desc = f"corpus {args.corpus}"
    else:
        if args.all < 1:
            raise _UsageError(f"--all expects N >= 1, got {args.all}")
        graphs = iter_graphs_up_to(args.all)  # streamed: the run holds one block
        meta = {"path": None, "format": "generated", "sha256": None}
        desc = f"all graphs on 1..{args.all} vertices"
    ids = None if args.check == "all" else [args.check]
    reports = run_all(graphs, desc, ids)
    meta["graphs"] = reports[0].graphs_scanned  # as the stream ran: every check scans every graph
    results = [r.to_json(include_timing=args.timing) for r in reports]
    _emit(_envelope("verify", meta, results, started))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_linegraph(args, started):
    def answer(g):
        lg, edge_list, d = line_graph_division(g) if args.divide else (*_line_graph(g), None)
        row = {"line_graph6": formats.emit_graph6(lg), "edge_order": [list(e) for e in edge_list]}
        if d is not None:
            row["division"] = d.to_json()
        return row

    return _batch(args, started, answer)


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
    except (_UsageError, ValueError, CapacityError) as exc:
        print(f"forkdiv: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
