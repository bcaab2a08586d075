import hashlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import forkdiv
from forkdiv import cli, divisibility, formats, harness
from forkdiv.cli import main
from forkdiv.formats import emit_graph6, parse_graph6
from forkdiv.graph import Graph, are_isomorphic, bits
from forkdiv.harness import enumerate_nonisomorphic, graphs_up_to
from forkdiv.limits import InvariantError
from forkdiv.patterns import has_induced
from test_divisibility import clebsch
from test_oracles import petersen

C5 = emit_graph6(Graph.cycle(5))          # "DqK" shape; derived via emit
MYCIELSKI = "JhdLA_gc?N_"                 # triangle-free, chi = 4, no division


def stdin_of(data: str | bytes):
    # the CLI reads the bytes under sys.stdin, as a terminal or pipe gives them
    return io.TextIOWrapper(io.BytesIO(data.encode() if isinstance(data, str) else data))


def run_cli(argv, capsys, stdin: str | bytes | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", stdin_of(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def payload(out: str) -> dict:
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["tool"] == "forkdiv"
    assert set(data["input"]) == {"path", "format", "sha256", "graphs"}
    return data


def test_envelope_shape_and_timing_default(capsys, monkeypatch):
    code, out, _ = run_cli(["oracle", "chi", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    data = payload(out)
    assert data["command"] == "oracle"
    assert data["timing_s"] is None
    assert data["results"] == [{"graph6": C5, "chi": 3}]


def test_timing_flag_fills_field(capsys, monkeypatch):
    code, out, _ = run_cli(["--timing", "oracle", "omega", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert isinstance(json.loads(out)["timing_s"], float)


def test_oracle_questions(capsys, monkeypatch):
    for question, key, want in [
        ("alpha", "alpha", 2),
        ("perfect", "perfect", False),
        ("odd-hole", "odd_hole", [0, 1, 2, 3, 4]),
    ]:
        code, out, _ = run_cli(["oracle", question, "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["results"][0][key] == want
    c6 = emit_graph6(Graph.cycle(6))
    code, out, _ = run_cli(["oracle", "odd-hole", "-"], capsys, stdin=c6 + "\n", monkeypatch=monkeypatch)
    assert json.loads(out)["results"][0]["odd_hole"] is None


def test_detect_present_and_absent_both_exit_zero(capsys, monkeypatch):
    code, out, _ = run_cli(["detect", "--pattern", "fork", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["results"][0]["present"] is False

    star = emit_graph6(Graph.complete_bipartite(1, 3))
    code, out, _ = run_cli(["detect", "--pattern", "claw", "-"], capsys, stdin=star + "\n", monkeypatch=monkeypatch)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["present"] is True and len(row["witness"]) == 4


def test_detect_unknown_pattern_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["detect", "--pattern", "heptagram", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "heptagram" in err


def test_classify(capsys, monkeypatch):
    code, out, _ = run_cli(["classify", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["omega"] == 2 and row["fork_free"] is True
    assert row["tightest"] == {"forbidden": "K3", "value": 3}


def test_divide_success_and_counterexample(capsys, monkeypatch):
    code, out, _ = run_cli(["divide", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    division = json.loads(out)["results"][0]["division"]
    assert division["a"] == [0, 2, 3] and division["pivot"] == 0

    code, out, _ = run_cli(["divide", "-"], capsys, stdin=MYCIELSKI + "\n", monkeypatch=monkeypatch)
    assert code == 1
    row = json.loads(out)["results"][0]
    assert row["division"] is None
    assert "no perfect division" in row["error"]

    # 16 vertices, within the submask-table cap: a proof, not a cap row
    clebsch_g6 = emit_graph6(clebsch())
    code, out, _ = run_cli(["divide", "-"], capsys, stdin=clebsch_g6 + "\n", monkeypatch=monkeypatch)
    assert code == 1
    row = json.loads(out)["results"][0]
    assert row == {"graph6": clebsch_g6, "division": None, "error": "no perfect division exists"}


def test_oversized_graph_becomes_an_error_row(capsys, monkeypatch):
    # C13 + C5 has 18 vertices, over the odd-hole and colouring caps of 16
    big = emit_graph6(Graph.cycle(13).disjoint_union(Graph.cycle(5)))
    batch = "\n".join([C5, big, MYCIELSKI]) + "\n"
    code, out, _ = run_cli(["divide", "-"], capsys, stdin=batch, monkeypatch=monkeypatch)
    assert code == 2
    small, over, none = json.loads(out)["results"]
    assert small["division"]["a"] == [0, 2, 3] and "error" not in small
    assert over == {
        "graph6": big,
        "division": None,
        "error": "find_odd_hole: graph has 18 vertices, cap is 16",
    }
    assert none["division"] is None and "no perfect division" in none["error"]

    code, out, _ = run_cli(["color", "-"], capsys, stdin=C5 + "\n" + big + "\n", monkeypatch=monkeypatch)
    assert code == 2
    small, over = json.loads(out)["results"]
    assert small["palette"] == 3 and "error" not in small
    assert over == {"graph6": big, "error": "find_odd_hole: graph has 18 vertices, cap is 16"}


@pytest.mark.parametrize(
    "question, field, answer, message",
    [
        ("chi", "chi", 3, "exact_coloring: graph has 18 vertices, cap is 16"),
        ("perfect", "perfect", False, "find_odd_hole: graph has 18 vertices, cap is 16"),
        ("odd-hole", "odd_hole", [0, 1, 2, 3, 4], "find_odd_hole: graph has 18 vertices, cap is 16"),
    ],
)
def test_oracle_batch_keeps_going_past_a_capped_graph(question, field, answer, message, capsys, monkeypatch):
    big = emit_graph6(Graph.cycle(13).disjoint_union(Graph.cycle(5)))
    batch = "\n".join([C5, big, C5]) + "\n"
    code, out, _ = run_cli(["oracle", question, "-"], capsys, stdin=batch, monkeypatch=monkeypatch)
    assert code == 2
    first, over, last = json.loads(out)["results"]
    assert first == last == {"graph6": C5, field: answer}
    assert over == {"graph6": big, field: None, "error": message}


@pytest.mark.parametrize("command, engine", [("divide", "perfect_division"), ("color", "color_by_division")])
def test_failed_certificate_is_an_error_row(command, engine, capsys, monkeypatch):
    real = getattr(cli, engine)
    pet = petersen()

    def broken(g):
        if g == pet:
            raise InvariantError("perfect-whole: side A is not perfect")
        return real(g)

    monkeypatch.setattr(cli, engine, broken)
    batch = "\n".join([C5, emit_graph6(pet), C5]) + "\n"
    code, out, _ = run_cli([command, "-"], capsys, stdin=batch, monkeypatch=monkeypatch)
    assert code == 1
    first, bad, last = json.loads(out)["results"]
    assert first == last and "error" not in first
    blank = {"division": None} if command == "divide" else {}
    assert bad == {"graph6": emit_graph6(pet), **blank, "error": "perfect-whole: side A is not perfect"}

    # an oversized graph in the same batch outranks the finding
    big = emit_graph6(Graph.cycle(13).disjoint_union(Graph.cycle(5)))
    code, out, _ = run_cli([command, "-"], capsys, stdin=batch + big + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert len(json.loads(out)["results"]) == 4


def test_all_zero_weights_is_an_error_row(tmp_path, capsys, monkeypatch):
    wfile = tmp_path / "w.json"
    wfile.write_text("[0, 0, 0]")
    p3 = emit_graph6(Graph.path(3))
    code, out, _ = run_cli(["divide", "--weights", str(wfile), "-"], capsys, stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert payload(out)["results"] == [
        {"graph6": p3, "division": None, "error": "weights must not be identically zero"}
    ]


def test_boolean_weights_are_a_usage_error(tmp_path, capsys, monkeypatch):
    # JSON booleans are Python ints, but not weights
    wfile = tmp_path / "w.json"
    wfile.write_text("[true, false, false]")
    p3 = emit_graph6(Graph.path(3))
    code, out, err = run_cli(["divide", "--weights", str(wfile), "-"], capsys, stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "weights must be nonnegative integers" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        (b"[1, 0,", "Expecting value: line 1 column 7 (char 6)"),
        (b"[1, 0, 0] #", "Extra data: line 1 column 11 (char 10)"),
        ("[1, 0, 0] \u00e9".encode(), "'ascii' codec can't decode byte 0xc3 in position 10:"
                                         " ordinal not in range(128)"),
    ],
    ids=["missing", "truncated", "trailing", "not-ascii"],
)
def test_unreadable_weights_are_a_usage_error(content, reason, tmp_path, capsys, monkeypatch):
    wfile = tmp_path / "w.json"
    if content is not None:
        wfile.write_bytes(content)
    p3 = emit_graph6(Graph.path(3))
    code, out, err = run_cli(["divide", "--weights", str(wfile), "-"], capsys, stdin=p3 + "\n",
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"forkdiv: cannot read weights {wfile}: {reason.format(path=wfile)}\n"


def test_divide_weighted(tmp_path, capsys, monkeypatch):
    wfile = tmp_path / "w.json"
    wfile.write_text("[1, 0, 0]")
    p3 = emit_graph6(Graph.path(3))
    code, out, _ = run_cli(["divide", "--weights", str(wfile), "-"], capsys, stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    division = json.loads(out)["results"][0]["division"]
    assert division["a"] == [0] and division["b"] == [1, 2]
    assert division["certificate"]["omega_w"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(["divide", "--weights", str(bad), "-"], capsys, stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert code == 2

    code, _, err = run_cli(
        ["divide", "--weights", str(wfile), "-"],
        capsys, stdin=p3 + "\n" + C5 + "\n", monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "single-graph" in err


def test_divide_weighted_without_a_pivot(tmp_path, capsys, monkeypatch):
    # no vertex of the Grötzsch graph has a perfect non-neighbourhood, yet
    # under these weights it divides: the exhaustive search finds S = {2, 8}
    wfile = tmp_path / "w.json"
    wfile.write_text("[3, 1, 3, 1, 2, 2, 1, 1, 3, 1, 3]")
    code, out, _ = run_cli(["divide", "--weights", str(wfile), "-"], capsys,
                           stdin=MYCIELSKI + "\n", monkeypatch=monkeypatch)
    assert code == 0
    [row] = payload(out)["results"]
    assert "error" not in row
    assert (row["division"]["a"], row["division"]["strategy"]) == ([2, 8], "exhaustive")
    assert row["division"]["certificate"]["omega_w"] == 6


def test_color(capsys, monkeypatch):
    code, out, _ = run_cli(["color", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["palette"] == 3
    assert row["fallback"] is False


def test_gen_all_matches_enumeration(capsys):
    code = main(["gen", "--all", "4"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert code == 0
    assert lines == [emit_graph6(g) for g in enumerate_nonisomorphic(4)]
    assert len(lines) == 11


@pytest.mark.parametrize("n,message", [("-1", "nonnegative"), ("10", "cap is 9")],
                         ids=["negative", "over-cap"])
def test_gen_all_out_of_range_is_usage_error(n, message, capsys):
    code = main(["gen", "--all", n])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert message in err


def test_gen_all_streams_the_sweep(capsys, monkeypatch):
    # the first line goes out as soon as the sweep yields the first graph
    # of level 7, so `gen --all` never builds the level as a list
    yielded, at_first_write = [0], []
    sweep, write = harness._sweep, sys.stdout.write

    def counted(n):
        for g in sweep(n):
            yielded[0] += 1
            yield g

    def watched(text):
        if not at_first_write:
            at_first_write.append(yielded[0])
        return write(text)

    monkeypatch.setattr(harness, "_sweep", counted)
    monkeypatch.setattr(sys.stdout, "write", watched)
    code, out, _ = run_cli(["gen", "--all", "7"], capsys)
    assert code == 0
    # levels 0..6 hold 1 + 1 + 2 + 4 + 11 + 34 + 156 = 209 graphs
    assert at_first_write == [210]
    assert yielded[0] == 209 + len(out.splitlines()) == 209 + 1044
    # the empty graph is level 0 of the sweep, so it is still written
    assert run_cli(["gen", "--all", "0"], capsys) == (0, "?\n", "")


@pytest.mark.parametrize("argv", [["5.5", "0.5", "1"], ["5", "0.5", "x"], ["5", "half", "1"]],
                         ids=["N", "SEED", "P"])
def test_gen_gnp_refuses_a_malformed_argument(argv, capsys):
    assert run_cli(["gen", "--gnp", *argv], capsys) == (
        2, "", "forkdiv: --gnp expects integers N and SEED and a float P\n")


def test_gen_gnp_golden(capsys):
    code = main(["gen", "--gnp", "10", "0.5", "42"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "I]`q_a`yw"


@pytest.mark.parametrize(
    "path,fmt",
    [("-", "g6"), ("col", "g6"), (".col", "dimacs"), ("x.g6", "g6"), ("x.graph6", "g6"),
     ("dir.g6/f", "g6"), ("a.edgelist", "edges"), ("a.edges", "edges"), ("b.dimacs", "dimacs")],
)
def test_infer_format_reads_the_last_suffix(path, fmt):
    assert cli._infer_format(path, None) == fmt
    assert cli._infer_format(path, "dimacs") == "dimacs"


def test_gen_requires_exactly_one_mode(capsys):
    assert main(["gen"]) == 2
    capsys.readouterr()
    assert main(["gen", "--all", "3", "--gnp", "5", "0.5", "1"]) == 2


def test_verify_all_small(capsys):
    code = main(["verify", "--check", "T10", "--all", "6"])
    out, _ = capsys.readouterr()
    assert code == 0
    data = payload(out)
    report = data["results"][0]
    assert report["passed"] is True
    assert report["graphs_scanned"] == 1 + 2 + 4 + 11 + 34 + 156
    assert report["counterexamples"] == []
    assert report["wall_time_s"] is None


def test_verify_all_streams_the_sweep_into_the_run(capsys, monkeypatch):
    # the first check runs on the first block, so `verify --all` never
    # builds the whole corpus as a list before it checks anything
    yielded, at_first_check = [0], []
    sweep, t10 = harness._sweep, harness.CHECKS["T10"]

    def counted(n):
        for g in sweep(n):
            yielded[0] += 1
            yield g

    def evaluate(g):
        if not at_first_check:
            at_first_check.append(yielded[0])
        return t10.evaluate(g)

    monkeypatch.setattr(harness, "_sweep", counted)
    monkeypatch.setitem(harness.CHECKS, "T10", t10._replace(evaluate=evaluate))
    code, out, _ = run_cli(["verify", "--check", "T10", "--all", "7"], capsys)
    assert code == 0
    # the sweep's first graph, on no vertices, is not in the corpus
    assert at_first_check == [harness.BLOCK + 1]
    assert payload(out)["input"]["graphs"] == yielded[0] - 1 == 1252


def test_verify_corpus_streams_its_input_into_the_run(capsys, monkeypatch):
    # the first check runs on the first block, so `verify --corpus` never
    # parses the whole corpus into a list before it checks anything
    parsed, at_first_check = [0], []
    parse, t10 = formats.parse_graph6, harness.CHECKS["T10"]

    def counted(line):
        parsed[0] += 1
        return parse(line)

    def evaluate(g):
        if not at_first_check:
            at_first_check.append(parsed[0])
        return t10.evaluate(g)

    monkeypatch.setattr(formats, "parse_graph6", counted)
    monkeypatch.setitem(harness.CHECKS, "T10", t10._replace(evaluate=evaluate))
    corpus = "".join(emit_graph6(g) + "\n" for g in graphs_up_to(7))
    code, out, _ = run_cli(["verify", "--check", "T10", "--corpus", "-"], capsys,
                           stdin=corpus, monkeypatch=monkeypatch)
    assert code == 0
    assert at_first_check == [harness.BLOCK]
    meta = payload(out)["input"]
    assert list(meta.items()) == [("path", "-"), ("format", "g6"),
                                  ("sha256", hashlib.sha256(corpus.encode()).hexdigest()),
                                  ("graphs", 1252)]
    assert parsed[0] == 1252


def test_verify_corpus_with_a_bad_line_after_the_first_block_writes_nothing(capsys, monkeypatch):
    # checks have run on the first block when the bad line is met, but the
    # envelope is written only after the run, so none goes out
    checked, t10 = [], harness.CHECKS["T10"]
    monkeypatch.setitem(harness.CHECKS, "T10", t10._replace(
        evaluate=lambda g: checked.append(g) or t10.evaluate(g)))
    corpus = "".join(emit_graph6(g) + "\n" for g in graphs_up_to(5)) * 3 + "bogus!!\n"
    code, out, err = run_cli(["verify", "--check", "T10", "--corpus", "-"], capsys,
                             stdin=corpus, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert len(checked) == 2 * harness.BLOCK  # the blocks before the bad line's
    assert err == "forkdiv: -: line 157: graph6 body for n=35 needs 100 bytes, got 6 (offset 1)\n"

    code, out, err = run_cli(["verify", "--check", "T10", "--corpus", "-"], capsys,
                             stdin="\n \n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "forkdiv: -: no graphs found\n")


def test_verify_is_byte_deterministic(capsys):
    assert main(["verify", "--check", "all", "--all", "4"]) == 0
    first, _ = capsys.readouterr()
    assert main(["verify", "--check", "all", "--all", "4"]) == 0
    second, _ = capsys.readouterr()
    assert first == second


def test_verify_envelope_is_pinned(capsys):
    # the acceptance run's envelope, byte for byte: speed work must not move it
    assert main(["verify", "--check", "all", "--all", "7"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a01145c233c97684e55864a2a91df1a8700080d2a3ba3edf833a5fa9974b02b7"
    )


@pytest.mark.parametrize("command, digest", [
    ("classify", "e903886768d6bd5c2ffc757eb15b315f18b142872cad035576fdf06074f59cab"),
    ("color", "7c97067675ae1a39bedfea870b08762f0b4dbc3d0f461dce391cc8e33daaae4d"),
    ("divide", "5a5d938e23a4bf8ceaafc9a58b79555b2749b54b8d4fad2b680fcc2ae2b9f566"),
    ("detect --pattern fork", "81424348fb0f516fab36af909f5e04b2fda64220724e019fe42f3c75e246971c"),
    ("oracle chi", "5b2f30cecc60d6de304c3d4cb8b14a3a22a961641e8cf0ac1d0933dabb861aaf"),
    ("oracle odd-hole", "ee9251389a465998cd4509df45da12407edb1898fffd9dce12daf8601525bd24"),
    # answer rows mixed with the error rows of the disconnected graphs, exit 2
    ("linegraph --divide", "2a4a25226321eb8cd6eb8183721fe7fbdcf1c572449e7178f315e645fb2d50f2"),
])
def test_batch_envelope_is_pinned(command, digest, capsys, monkeypatch):
    # every graph on 1..7 vertices, as graph6 lines on stdin
    corpus = "".join(emit_graph6(g) + "\n" for g in graphs_up_to(7))
    code, out, _ = run_cli([*command.split(), "-"], capsys, stdin=corpus, monkeypatch=monkeypatch)
    assert code == (2 if command == "linegraph --divide" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_any_text = st.text(st.characters(exclude_categories=()))  # lone surrogates too
_json_scalars = (
    st.none() | st.booleans() | st.floats()
    | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | _any_text
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "\u2028", "\ud800", "caf\xe9", "\U0001f600"])
)
_json_keys = _any_text | st.integers() | st.booleans() | st.none()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_json_keys, inner)
        | st.lists(st.integers() | st.booleans())  # the writer joins lists of exact ints
    ),
    max_leaves=30,
)


@example({"results": [{"colors": [0, 1], "seen": [1, True, False]}, []], "timing_s": 0.25})
@example([[], {}, (), [1, -1, 2**70], {1: 1.0, True: float("nan"), None: -0.0}])
@given(_json_values | st.dictionaries(st.text(), _json_values))
def test_emit_matches_json_dumps_indent_2(obj):
    # _emit hands the head and every row to _json, so _json must be json.dumps
    assert cli._json(obj) == json.dumps(obj, indent=2)


def test_emit_writes_one_row_at_a_time(monkeypatch):
    # a batch envelope is never one string: each row goes out in writes of
    # its own, so no write carries two rows
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    graphs = graphs_up_to(5)[:50]
    monkeypatch.setattr(sys, "stdin", stdin_of("".join(emit_graph6(g) + "\n" for g in graphs)))
    assert main(["color", "-"]) == 0
    assert len(writes) >= 50
    assert max(w.count('"graph6"') for w in writes) == 1
    assert len(json.loads("".join(writes))["results"]) == 50


def test_rows_are_written_as_they_are_answered(monkeypatch):
    # C17 is over the odd-hole cap: its error row keeps its place between the
    # two small graphs, and every row is out before the next graph is answered
    writes, rows_out = [], []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    real = cli.color_by_division

    def watched(g):
        rows_out.append(sum(w.count('"graph6"') for w in writes))
        return real(g)

    monkeypatch.setattr(cli, "color_by_division", watched)
    big = emit_graph6(Graph.cycle(17))
    monkeypatch.setattr(sys, "stdin", stdin_of(f"{C5}\n{big}\n{MYCIELSKI}\n"))
    assert main(["color", "-"]) == 2
    assert rows_out == [0, 1, 2]
    first, over, last = json.loads("".join(writes))["results"]
    assert first["graph6"] == C5 and first["palette"] == 3 and "error" not in first
    assert over == {"graph6": big, "error": "find_odd_hole: graph has 17 vertices, cap is 16"}
    assert last["graph6"] == MYCIELSKI and "error" not in last


def test_timing_is_read_after_the_last_row(capsys, monkeypatch):
    # a clock that only the colouring moves: timing_s covers every row
    ticks = [0.0]
    real = cli.color_by_division

    def slow(g):
        ticks[0] += 1.5
        return real(g)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: ticks[0]))
    monkeypatch.setattr(cli, "color_by_division", slow)
    code, out, _ = run_cli(["--timing", "color", "-"], capsys, stdin=f"{C5}\n{C5}\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    data = payload(out)
    assert list(data)[-1] == "timing_s" and data["timing_s"] == 3.0


def test_a_row_carries_its_stripped_input_line(capsys, monkeypatch):
    # graph6 lines are echoed, not written again: only a "~" header on fewer
    # than 63 vertices comes back, as before, in emit_graph6's one-byte form
    long_c5 = "~??D" + C5[1:]
    p63 = emit_graph6(Graph.path(63))
    emitted = []
    monkeypatch.setattr(formats, "emit_graph6", lambda g: emitted.append(g) or emit_graph6(g))
    code, out, _ = run_cli(["oracle", "omega", "-"], capsys,
                           stdin=f"  {C5}\t\n\n{long_c5}\r\n{p63}\n", monkeypatch=monkeypatch)
    assert code == 0
    assert payload(out)["results"] == [
        {"graph6": C5, "omega": 2}, {"graph6": C5, "omega": 2}, {"graph6": p63, "omega": 2},
    ]
    assert emitted == [Graph.cycle(5)]


@pytest.mark.parametrize("name, text", [
    ("p3.dimacs", "p edge 3 2\ne 1 2\ne 2 3\n"),
    ("p3.edges", "1 2\n0 1\n"),
])
def test_dimacs_and_edge_list_rows_carry_the_emitted_graph6(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["oracle", "omega", str(path)]) == 0
    out, _ = capsys.readouterr()
    assert payload(out)["results"] == [{"graph6": emit_graph6(Graph.path(3)), "omega": 2}]


def test_verify_from_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(emit_graph6(g) + "\n" for g in enumerate_nonisomorphic(5)))
    code = main(["verify", "--check", "T3", "--corpus", str(corpus)])
    out, _ = capsys.readouterr()
    assert code == 0
    report = json.loads(out)["results"][0]
    assert report["graphs_scanned"] == 34
    assert report["passed"] is True


def test_a_perfect_layer_over_omega_colours_fails_its_certificate(capsys, monkeypatch):
    # the real guard in color_by_division, reached by colouring a perfect
    # layer properly with one colour more than its clique number
    real = divisibility._exact_coloring

    def wasteful(adj, mask, omega):
        colors, om = real(adj, mask, omega)
        colors = list(colors)
        colors[max(bits(mask))] = om
        return colors, om

    monkeypatch.setattr(divisibility, "_exact_coloring", wasteful)
    p3 = emit_graph6(Graph.path(3))
    message = "perfect layer did not colour with omega colours"
    code, out, err = run_cli(["color", "-"], capsys, stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    assert payload(out)["results"] == [{"graph6": p3, "error": message}]
    code, out, err = run_cli(["verify", "--check", "chi-audit", "--corpus", "-"], capsys,
                             stdin=p3 + "\n", monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    [report] = payload(out)["results"]
    assert report["counterexamples"] == [{"graph6": p3, "detail": {"certificate": message}}]


def test_verify_writes_its_envelope_when_a_certificate_fails(capsys, monkeypatch):
    corpus = graphs_up_to(4)
    k4 = next(g for g in corpus if g.n == 4 and g.edge_count == 6)
    real = harness.color_by_division

    def broken(g):
        if g == k4:
            raise InvariantError("perfect layer did not colour with omega colours")
        return real(g)

    monkeypatch.setattr(harness, "color_by_division", broken)
    batch = "".join(emit_graph6(g) + "\n" for g in corpus)
    code, out, err = run_cli(["verify", "--check", "all", "--corpus", "-"], capsys,
                             stdin=batch, monkeypatch=monkeypatch)
    assert code == 1
    assert err == ""
    results = payload(out)["results"]
    assert [r["check"] for r in results] == list(harness.CHECKS)
    failed = [r for r in results if not r["passed"]]
    assert [r["check"] for r in failed] == ["chi-audit"]
    detail = {"certificate": "perfect layer did not colour with omega colours"}
    assert failed[0]["counterexamples"] == [{"graph6": emit_graph6(k4), "detail": detail}]


def test_verify_passes_the_graph_with_no_vertices(capsys, monkeypatch):
    # "?" has no vertices, so its division colouring has no layers at all
    code, out, err = run_cli(["verify", "--check", "all", "--corpus", "-"], capsys,
                             stdin="?\n@\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    results = payload(out)["results"]
    assert [r["check"] for r in results] == list(harness.CHECKS)
    assert all(r["passed"] and r["graphs_scanned"] == 2 and not r["skipped"] for r in results)


def test_verify_unknown_check(capsys):
    code = main(["verify", "--check", "T99", "--all", "3"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "T99" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_all_below_one_is_usage_error(capsys, n):
    # an empty corpus would pass every check
    code = main(["verify", "--check", "all", "--all", n])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "--all expects N >= 1" in err


def test_linegraph(capsys, monkeypatch):
    p4 = emit_graph6(Graph.path(4))
    code, out, _ = run_cli(["linegraph", "--divide", "-"], capsys, stdin=p4 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["line_graph6"] == emit_graph6(Graph.path(3))
    assert row["edge_order"] == [[0, 1], [1, 2], [2, 3]]
    assert row["division"]["b"] == []

    disconnected = emit_graph6(Graph.empty(3))
    code, out, _ = run_cli(["linegraph", "-"], capsys, stdin=disconnected + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "connected" in json.loads(out)["results"][0]["error"]


def test_linegraph_batch_keeps_going_past_bad_graphs(capsys, monkeypatch):
    c18 = emit_graph6(Graph.cycle(13).disjoint_union(Graph.cycle(5)))
    # the line graph of C19 is C19; its depth-first tree side has 18
    # vertices, over the odd-hole cap of 16
    c19 = emit_graph6(Graph.cycle(19))
    k1 = emit_graph6(Graph.empty(1))
    k17 = emit_graph6(Graph.complete(17))  # 136 edges: L(K17) is over Graph's 128 vertices
    batch = "\n".join([C5, c18, c19, k1, k17]) + "\n"
    code, out, _ = run_cli(["linegraph", "--divide", "-"], capsys, stdin=batch, monkeypatch=monkeypatch)
    assert code == 2
    small, disconnected, over, edgeless, dense = json.loads(out)["results"]
    assert are_isomorphic(parse_graph6(small["line_graph6"]), Graph.cycle(5))
    assert small["division"]["strategy"] == "spanning-tree"
    assert disconnected == {"graph6": c18, "error": "line_graph_division needs a connected graph"}
    assert over == {"graph6": c19, "error": "find_odd_hole: graph has 18 vertices, cap is 16"}
    assert edgeless == {"graph6": k1, "error": "line_graph_division needs at least one edge"}
    assert k17 == "P~~~~~~~~~~~~~~~~~~~~~~{"
    assert dense == {"graph6": k17, "error": "line graph needs 136 vertices (one per edge), above 128"}


def test_linegraph_certificate_failure_exits_1(capsys, monkeypatch):
    real = cli.line_graph_division

    def broken(g):
        if g == Graph.cycle(5):
            raise InvariantError("spanning-tree: side A is not perfect")
        return real(g)

    monkeypatch.setattr(cli, "line_graph_division", broken)
    code, out, _ = run_cli(["linegraph", "--divide", "-"], capsys, stdin=C5 + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["results"][0]["error"] == "spanning-tree: side A is not perfect"
    # an input error in the same batch outranks the finding
    batch = emit_graph6(Graph.empty(3)) + "\n" + C5 + "\n"
    code, _, _ = run_cli(["linegraph", "--divide", "-"], capsys, stdin=batch, monkeypatch=monkeypatch)
    assert code == 2


def test_linegraph_without_divide_certifies_nothing(capsys, monkeypatch):
    # the division of L(C19) is over the odd-hole cap, but only the line
    # graph is asked for
    c19 = emit_graph6(Graph.cycle(19))
    code, out, _ = run_cli(["linegraph", "-"], capsys, stdin=c19 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    (row,) = json.loads(out)["results"]
    assert set(row) == {"graph6", "line_graph6", "edge_order"}
    lg = parse_graph6(row["line_graph6"])
    assert lg.is_connected() and [lg.degree(v) for v in range(lg.n)] == [2] * 19
    assert row["edge_order"] == [list(e) for e in Graph.cycle(19).edges()]


def test_malformed_input_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["classify", "-"], capsys, stdin="bogus!!\n", monkeypatch=monkeypatch)
    assert code == 2

    code, _, err = run_cli(["classify", "/nonexistent/file.g6"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_empty_input_is_usage_error(capsys, monkeypatch):
    code, _, err = run_cli(["classify", "-"], capsys, stdin="", monkeypatch=monkeypatch)
    assert code == 2
    assert "no graphs" in err


@pytest.mark.parametrize("on_stdin", [True, False], ids=["stdin", "file"])
def test_non_ascii_input_names_the_input_line_and_byte(on_stdin, tmp_path, capsys, monkeypatch):
    data = b"Bw\nB\xc3w\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    name = "-" if on_stdin else str(path)
    code, out, err = run_cli(["detect", "--pattern", "fork", name], capsys,
                             stdin=data if on_stdin else None, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"forkdiv: {name}: line 2: byte 0xc3 is not ASCII\n"


def test_format_inference_and_override(tmp_path, capsys):
    dimacs = tmp_path / "triangle.dimacs"
    dimacs.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code = main(["oracle", "omega", str(dimacs)])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["input"]["format"] == "dimacs"
    assert data["results"][0]["omega"] == 3

    edges = tmp_path / "path.edges"
    edges.write_text("0 1\n1 2\n")
    code = main(["oracle", "chi", str(edges)])
    out, _ = capsys.readouterr()
    assert json.loads(out)["results"][0]["chi"] == 2

    renamed = tmp_path / "triangle.txt"
    renamed.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code = main(["oracle", "omega", str(renamed), "--format", "dimacs"])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["results"][0]["omega"] == 3


def test_63_vertex_dimacs_gets_four_byte_graph6(tmp_path, capsys):
    path = tmp_path / "p63.dimacs"
    path.write_text("p edge 63 62\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 63)))
    code = main(["oracle", "omega", str(path), "--format", "dimacs"])
    out, _ = capsys.readouterr()
    assert code == 0
    row = payload(out)["results"][0]
    assert row["omega"] == 2
    assert row["graph6"].startswith("~??~")
    assert parse_graph6(row["graph6"]) == Graph.path(63)


def test_console_script_entry_point():
    # the installed `forkdiv` script and `python -m forkdiv` both call cli.main
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'forkdiv = "forkdiv.cli:main"' in scripts.splitlines()
    src = str(Path(forkdiv.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "forkdiv", "oracle", "chi", "-"],
        input=C5 + "\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["chi"] == 3


def test_gnp_samples_piped_into_verify_t10(capsys, monkeypatch):
    # the conjecture hunt beyond the enumeration cap: seeded G(n, p) lines
    # from `gen --gnp` fed to `verify --check T10 --corpus -`; K17 is
    # fork-free and over the submask-table cap, so it is a skipped row
    lines = []
    for argv in [["12", "0.75", str(seed)] for seed in range(12)] + [["17", "1.0", "0"]]:
        assert main(["gen", "--gnp", *argv]) == 0
        lines.append(capsys.readouterr()[0])
    samples = [parse_graph6(line.strip()) for line in lines[:-1]]
    fork_free = sum(not has_induced(g, "fork") for g in samples)
    assert 0 < fork_free < len(samples)
    code, out, _ = run_cli(["verify", "--check", "T10", "--corpus", "-"], capsys,
                           stdin="".join(lines), monkeypatch=monkeypatch)
    assert code == 0
    report = payload(out)["results"][0]
    assert report["passed"] is True
    assert report["graphs_scanned"] == len(lines)
    assert report["hypothesis_matches"] == fork_free
    assert report["skipped"] == [{
        "graph6": lines[-1].strip(),
        "reason": "is_perfectly_divisible_exact: graph has 17 vertices, cap is 16",
    }]
