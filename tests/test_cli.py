import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    breaker_below_coatom,
    breaker_below_coatom_with_loop,
    breaking_emitters,
    chain_graph,
    clique_with_loop,
    cross_bundle_cycle,
    diamond_chain,
    graph,
    graphs,
    mixed_maximals_graph,
    omega_graph,
    paired_cycles,
    random_corpus,
    ring,
    sparse_graph,
    unique_maximal_graph,
)
from oracles import hereditary_saturated_sets_brute, reach_sets
from test_algebra import _300_term_factors, _coprime_factors, graph_and_two_elements
from test_golden import escaped_ids, loop_antichain, mul_args
from lpaideals import (
    DirectedGraph,
    ResourceCapError,
    enumerate_HE,
    parse_element,
    parse_graph,
    render_element,
    serialize_graph,
)
from lpaideals import cli
from lpaideals.algebra import zero
from lpaideals.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


def test_analyze_unique_maximal_fixture(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("analyze", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["maximality"]["unique_maximal"] == {"kind": "graded", "H": ["v", "w"], "S": []}
    assert doc["hereditary_saturated"]["sets"] == [[], ["v", "w"], ["u", "v", "w"]]
    assert doc["condition_K"] == {"holds": False, "witness": ["c"]}
    assert len(doc["primes"]) == 3


def test_analyze_mixed_maximals_fixture(run, tmp_path):
    path = write_graph(tmp_path, mixed_maximals_graph())
    code, out, _ = run("analyze", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["maximality"]["every_maximal_graded"] is False
    assert doc["maximality"]["nongraded_maximal_families"] == [{"H": ["u"], "cycle": ["c"]}]


def test_analyze_human_output_mirrors_json(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("analyze", path)
    assert code == 0
    assert "unique maximal ideal: I({v,w}, {})" in out
    assert "condition (K): fails, witness cycle [c]" in out


def test_json_output_is_byte_stable(run, tmp_path):
    path = write_graph(tmp_path, mixed_maximals_graph())
    outputs = set()
    for _ in range(3):
        code, out, _ = run("analyze", path, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_analyze_invalid_graph_exits_1(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["v"], "edges": [], "bogus": 1}', encoding="utf-8")
    code, out, err = run("analyze", str(bad))
    assert code == 1
    assert "error" in err
    code, _, err = run("analyze", str(tmp_path / "missing.json"))
    assert code == 1
    bad.write_text('{"vertices": ["v"], "edges": [], "omega_bundles": [{"src": "v", "dst": "z"}]}')
    assert run("analyze", str(bad)) == (1, "", "error: omega bundle uses undeclared vertex 'z'\n")


@pytest.mark.parametrize(
    "data",
    [b'{"vertices": ["\xff"], "edges": []}', b"[" * 100_000],
    ids=["not-utf8", "nested-past-the-recursion-limit"],
)
def test_bad_graph_bytes_exit_1_with_one_error_line(run, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run("analyze", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_usage_exits_2(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    with pytest.raises(SystemExit) as exc:
        main(["analyze", path, "--nope"])
    assert exc.value.code == 2
    code, _, err = run("quotient", path, "--H", "v,nope")
    assert code == 2
    code, _, err = run("quotient", path, "--H", "v")  # {v} is not hereditary saturated
    assert code == 2
    code, _, err = run("quotient", path, "--H", "u,v,w")  # the quotient would be empty
    assert (code, err) == (2, "error: quotient at the full vertex set would be the empty graph\n")
    code, _, err = run("mul", path, "--lhs", "zzz", "--rhs", "u")
    assert code == 2
    expected = (2, "", "error: bad element expression: empty id in element expression\n")
    assert run("mul", path, "--lhs", "*", "--rhs", "u") == expected
    # the emitter u breaks {w}, and its primed copy u' is taken
    taken = write_graph(tmp_path, graph(["u", "u'", "w"], [("e", "u", "u'")], [("u", "w")]), "taken.json")
    code, _, err = run("quotient", taken, "--H", "w")
    assert (code, err) == (2, """error: primed vertex ids collide with existing ids: ["u'"]\n""")


def test_resource_cap_exits_3(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, _, err = run("analyze", path, "--cap", "2")
    assert code == 3
    assert "cap" in err or "cycles" in err
    code, _, err = run("hsets", path, "--max-vertices", "2")
    assert code == 3


def test_maximals_and_primes_share_one_cycle_cap(run, tmp_path):
    """Neither enumerates the 85 simple cycles (84 in the clique, and the
    loop at z), so a cap below their number answers as one above it."""
    path = write_graph(tmp_path, clique_with_loop(5))
    for command in ("primes", "maximals"):
        below = run(command, path, "--cap", "84", "--json")
        assert below == run(command, path, "--cap", "85", "--json")
        assert below[0] == 0 and below[2] == ""


def test_hsets(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("hsets", path, "--json")
    assert code == 0
    assert json.loads(out) == {
        "sets": [[], ["v", "w"], ["u", "v", "w"]],
        "maximal_proper": [["v", "w"]],
    }


def test_primes(run, tmp_path):
    path = write_graph(tmp_path, mixed_maximals_graph())
    code, out, _ = run("primes", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [d["kind"] for d in doc] == ["graded", "nongraded_family", "graded"]


def test_maximals(run, tmp_path):
    path = write_graph(tmp_path, omega_graph())
    code, out, _ = run("maximals", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["graded_maximals"] == []
    assert doc["nongraded_maximal_families"] == [{"H": ["w"], "cycle": ["f"]}]


def test_quotient_round_trip(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("quotient", path, "--H", "v,w")
    assert code == 0
    quotient = parse_graph(out)
    assert quotient.vertices == ("u",)
    assert sorted(e.id for e in quotient.edges) == ["f1", "g1"]
    # the emitted document is directly reusable as tool input
    path2 = tmp_path / "quotient.json"
    path2.write_text(out, encoding="utf-8")
    code, out2, _ = run("analyze", str(path2), "--json")
    assert code == 0
    assert json.loads(out2)["condition_L"]["holds"] is True


def test_quotient_with_S(run, tmp_path):
    path = write_graph(tmp_path, omega_graph())
    code, out, _ = run("quotient", path, "--H", "w", "--S", "v")
    assert code == 0
    assert parse_graph(out).vertices == ("v",)


def test_a_vertex_list_that_starts_with_a_dash_needs_an_equals_sign(run, tmp_path, capsys):
    """argparse reads ``--H -1,0`` as ``--H`` with no value, as ``-1,0`` looks
    like an option; ``--H=-1,0`` is the documented form (README, ``--help``)."""
    g = graph(["-1", "0", "u"], [("a", "u", "u"), ("b", "u", "-1"), ("c", "-1", "0")])
    path = write_graph(tmp_path, g)
    code, out, err = run("quotient", path, "--H=-1,0")
    assert (code, err) == (0, "")
    assert out == serialize_graph(graph(["u"], [("a", "u", "u")]))
    with pytest.raises(SystemExit) as exc:
        run("quotient", path, "--H", "-1,0")
    assert exc.value.code == 2
    assert "--H: expected one argument" in capsys.readouterr().err


def test_a_factor_that_starts_with_a_dash_and_holds_no_space_needs_an_equals_sign(run, tmp_path, capsys):
    """argparse reads ``--lhs -x`` as ``--lhs`` with no value, as ``-x`` looks
    like an option; ``--lhs=-x`` is the documented form (README, ``--help``).
    A factor with a space, as ``-3/2 -x``, is read as a value."""
    g = graph(["u", "v"], [("-x", "u", "v"), ("b", "v", "v")])
    path = write_graph(tmp_path, g)
    assert run("mul", path, "--lhs=-x", "--rhs", "b") == (0, "-x b\n", "")
    assert run("mul", path, "--lhs", "b", "--rhs=-x*") == (0, "b | -x*\n", "")
    assert run("mul", path, "--lhs", "-3/2 -x", "--rhs", "b") == (0, "-3/2 -x b\n", "")
    for argv in (["--lhs", "-x", "--rhs", "b"], ["--lhs", "b", "--rhs", "-x*"]):
        with pytest.raises(SystemExit) as exc:
            run("mul", path, *argv)
        assert exc.value.code == 2
        flag = argv[0] if argv[1].startswith("-") else argv[2]
        assert f"{flag}: expected one argument" in capsys.readouterr().err


def test_check(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("check", path, "--condition", "L", "--json")
    assert code == 0
    assert json.loads(out) == {"holds": False, "witness": ["c"]}
    code, out, _ = run("check", path, "--condition", "K")
    assert code == 0
    assert "fails" in out


def test_mul(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("mul", path, "--lhs", "e1*", "--rhs", "e1")
    assert code == 0
    assert out.strip() == "v"
    code, out, _ = run("mul", path, "--lhs", "e1*", "--rhs", "f1")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run("mul", path, "--lhs", out.strip(), "--rhs", "u")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run("mul", path, "--lhs", "f1 | g1*", "--rhs", "g1 e1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "f1 e1"
    assert doc["terms"] == [
        {
            "coeff": "1",
            "alpha": {"source": "u", "edges": ["f1", "e1"]},
            "beta": {"source": "v", "edges": []},
        }
    ]


def test_mul_coefficients_have_no_digit_limit(run, tmp_path):
    """Python refuses int-str conversions above 4,300 digits by default;
    ``mul`` prints a coefficient of any length exactly, and leaves the
    interpreter's limit as it found it."""
    path = write_graph(tmp_path, unique_maximal_graph())
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    long = "9" * 5000
    a, b = "1" + "0" * 2998 + "3", "2" + "0" * 2998 + "1"
    a_times_b = "2" + "0" * 2998 + "7" + "0" * 2998 + "3"  # (10^2999 + 3)(2 * 10^2999 + 1)
    for lhs, rhs, coeff, product_path in [(f"{long} u", "u", long, "u"), (f"{a} c", f"{b} c", a_times_b, "c c")]:
        code, out, err = run("mul", path, "--lhs", lhs, "--rhs", rhs)
        assert (code, out, err) == (0, f"{coeff} {product_path}\n", "")
        code, out, err = run("mul", path, "--lhs", lhs, "--rhs", rhs, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["result"] == f"{coeff} {product_path}"
        assert [t["coeff"] for t in doc["terms"]] == [coeff]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_mul_writes_a_product_at_a_numeric_vertex_so_it_reads_back(run, tmp_path):
    """c* c is the vertex 0, not the zero element: its text carries the
    coefficient 1, and it reads back as the vertex."""
    path = write_graph(tmp_path, graph(["0", "1"], [("c", "0", "0"), ("d", "1", "0")]))
    assert run("mul", path, "--lhs", "c*", "--rhs", "c") == (0, "1 0\n", "")
    code, out, err = run("mul", path, "--lhs", "c*", "--rhs", "c", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["result"] == "1 0"
    assert doc["terms"] == [
        {"coeff": "1", "alpha": {"source": "0", "edges": []}, "beta": {"source": "0", "edges": []}}
    ]
    assert run("mul", path, "--lhs", "1 0", "--rhs", "d* - 1 0") == (0, "-1 0 + d*\n", "")


def test_check_condition_holds(run, tmp_path):
    from conftest import chain_graph

    path = write_graph(tmp_path, chain_graph(3))
    code, out, _ = run("check", path, "--condition", "K", "--json")
    assert code == 0
    assert json.loads(out) == {"holds": True, "witness": None}


def test_nonpositive_cap_is_a_usage_error(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, _, err = run("analyze", path, "--cap", "0")
    assert code == 2
    assert "positive" in err


def test_a_nonpositive_flag_is_named(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    assert run("check", path, "--condition", "K", "--cap", "0") == (2, "", "error: --cap must be positive\n")
    assert run("hsets", path, "--max-vertices", "0") == (2, "", "error: --max-vertices must be positive\n")


def test_the_readme_example_prints_what_the_readme_shows(run, tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    graph_json = readme.split("## Graph files\n\n```json\n", 1)[1].split("```", 1)[0]
    example = readme.split("```sh\n$ lpaideals analyze graph.json\n", 1)[1].split("```", 1)[0]
    shown = [line for line in example.splitlines() if line != "..."]
    path = tmp_path / "graph.json"
    path.write_text(graph_json, encoding="utf-8")
    code, out, err = run("analyze", str(path))
    assert (code, err) == (0, "")
    printed = iter(out.splitlines())
    assert shown and all(line in printed for line in shown)


@pytest.mark.parametrize(
    "command, flag",
    [
        (["quotient", "--H", "v,w"], ["--json"]),
        (["quotient", "--H", "v,w"], ["--cap", "5"]),
        (["quotient", "--H", "v,w"], ["--max-vertices", "5"]),
        (["mul", "--lhs", "u", "--rhs", "u"], ["--cap", "5"]),
        (["mul", "--lhs", "u", "--rhs", "u"], ["--max-vertices", "5"]),
        (["check", "--condition", "L"], ["--max-vertices", "5"]),
    ],
)
def test_a_command_refuses_a_flag_it_does_not_read(run, tmp_path, command, flag):
    path = write_graph(tmp_path, unique_maximal_graph())
    name, *rest = command
    assert run(name, path, *rest)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([name, path, *rest, *flag])
    assert exc.value.code == 2


def test_a_command_keeps_the_flags_it_reads(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, out, _ = run("check", path, "--condition", "L", "--cap", "5", "--json")
    assert (code, json.loads(out)) == (0, {"holds": False, "witness": ["c"]})
    code, _, err = run("check", path, "--condition", "K", "--cap", "0")
    assert code == 2 and "positive" in err
    code, out, _ = run("mul", path, "--lhs", "e1*", "--rhs", "e1", "--json")
    assert (code, json.loads(out)["result"]) == (0, "v")
    for command in ("analyze", "hsets", "primes", "maximals"):
        code, out, _ = run(command, path, "--cap", "5", "--max-vertices", "3", "--json")
        assert code == 0 and json.loads(out)
        code, _, err = run(command, path, "--max-vertices", "0")
        assert code == 2 and "positive" in err


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_during_a_command_and_restored(run, tmp_path, monkeypatch, enabled):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "hsets", lambda g, args: seen.append(gc.isenabled()))
    path = write_graph(tmp_path, unique_maximal_graph())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run("hsets", path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == 0
    assert seen == [False]


JSON_SHAPES = [
    {},
    [],
    {"sets": [], "maximal_proper": [[]], "empty": {}},
    [{}, [], [[]], [{}]],
    {"b": [{"z": None, "a": True}, {"y": False, "x": 0}], "a": {"n": [1, -2, 10**30]}},
    ("tuple", ["of", ("nested", "tuples")]),
    None,
    True,
    17,
    "plain",
    {"H": ["\u00e9", "\u65e5\u672c", 'q"t', "b\\s", "\n\t\x00\x7f", "\U0001F600"], '"k"': "\\"},
]


@pytest.mark.parametrize("doc", JSON_SHAPES)
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc, "\n") == json.dumps(doc, sort_keys=True, indent=2)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_json_writer_matches_json_dumps_on_random_documents(doc):
    assert cli._json_text(doc, "\n") == json.dumps(doc, sort_keys=True, indent=2)


def test_json_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        cli._json_text({"x": {1, 2}}, "\n")


GRAPH_COMMANDS = [
    ["analyze"],
    ["hsets"],
    ["primes"],
    ["maximals"],
    ["check", "--condition", "L"],
    ["check", "--condition", "K"],
]


def _answer(g, argv, capsys):
    """What ``argv``'s command prints for the parsed graph ``g``, or the
    refusal it raises."""
    args = cli._parser().parse_args(argv)
    try:
        cli._COMMANDS[args.command](g, args)
    except ResourceCapError as exc:
        return "refused: " + str(exc)
    return capsys.readouterr().out


def test_every_command_answers_alike_on_a_graph_it_enumerated_before(capsys):
    """The lattice and the cycles that one command keeps on its graph
    change no later answer on it: every command, at the default cap and
    then at cap 3, runs twice on one parsed graph and prints what it
    prints on a graph of its own."""
    for g in random_corpus(500):
        text = serialize_graph(g)
        kept = parse_graph(text)
        for cap in ([], ["--cap", "3"]):
            for command in GRAPH_COMMANDS:
                argv = [command[0], "graph.json", *command[1:], "--json", *cap]
                alone = _answer(parse_graph(text), argv, capsys)
                assert _answer(kept, argv, capsys) == _answer(kept, argv, capsys) == alone


LATTICE_COMMANDS = ("primes", "maximals", "analyze", "hsets")


def _limits(g):
    """Each cap at either side of |H_E|, of 2^t (t the closed tails, the
    bound that ``enumerate_HE`` decides by) and of 2^k (k the strongly
    connected components), and each vertex bound at either side of n,
    with the refusal that a walk under it must give."""
    family = hereditary_saturated_sets_brute(g)
    size = len(family)
    reach = reach_sets(g)
    k = len({frozenset(w for w in reach[v] if v in reach[w]) for v in g.vertices})
    full = frozenset(g.vertices)
    m_of = {frozenset(w for w in g.vertices if v in reach[w]) for v in g.vertices}
    t = len({full - h for h in family} & m_of)
    n = len(g.vertices)
    caps = sorted({size - 1, size, (1 << t) - 1, 1 << t, (1 << k) - 1, 1 << k} - {0})
    limits = [(["--cap", str(cap)], f"lattice exceeds cap {cap}" if size > cap else None) for cap in caps]
    limits += [
        (["--max-vertices", str(m)], f"exact enumeration limited to {m} vertices, graph has {n}" if n > m else None)
        for m in (n - 1, n)
        if m
    ]
    return limits


def test_lattice_commands_refuse_alike_at_each_cap(monkeypatch, capsys):
    """The caps are decided when ``enumerate_HE`` is called, by the 2^t
    bound or by a walk, so ``primes`` and ``maximals``, which never read
    H_E, refuse exactly where ``analyze`` and ``hsets`` do, on a fresh
    graph and on one whose walk is kept."""
    fixtures = [
        unique_maximal_graph(), mixed_maximals_graph(), omega_graph(), clique_with_loop(4),
        breaking_emitters(2), cross_bundle_cycle(), breaker_below_coatom(),
        breaker_below_coatom_with_loop(), diamond_chain(1), ring(3), loop_antichain(5),
    ]
    for g in random_corpus(500) + fixtures:
        text = serialize_graph(g)
        kept = parse_graph(text)
        assert enumerate_HE(kept).sets
        for limit, refusal in _limits(g):
            expected = (0, "") if refusal is None else (3, f"error: {refusal}\n")
            for load in (lambda path: parse_graph(text), lambda path: kept):
                monkeypatch.setattr(cli, "_load_graph", load)
                for command in LATTICE_COMMANDS:
                    assert main([command, "graph.json", *limit]) == expected[0]
                    assert capsys.readouterr().err == expected[1]


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    """Well-formed commands build no parser; a usage error builds it once,
    and commands after it still read their own command lines.  Each prints
    in one process what it prints in a process of its own."""
    path = write_graph(tmp_path, mixed_maximals_graph())
    calls = [
        ["check", path, "--condition", "L"],
        ["analyze", path, "--nope"],
        ["check", path, "--condition", "K", "--json"],
        ["analyze", path],
        ["analyze", path, "--nope"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(call(argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    together = [call(calls[0])]
    assert built == []
    together += [call(argv) for argv in calls[1:]]
    assert together == alone
    assert [code for code, _, _ in together] == [0, 2, 0, 0, 2]
    assert built == [1]


# Tokens a command line is drawn from: the command names and two that are
# not, graph paths, every flag and forms argparse reads in its own way
# (abbreviations, ``=``, help, ``--``), and values, among them ones that
# argparse converts in its own way, ones that it refuses and ones that
# start with a dash.
_COMMAND_TOKENS = tuple(cli._COMMAND_LINES) + ("nope", "anal")
_PATH_TOKENS = ("g.json", "", "-g.json")
_FLAG_TOKENS = (
    "--json", "--cap", "--max-vertices", "--condition", "--H", "--S", "--lhs", "--rhs",
    "--cond", "--js", "--max", "--cap=5", "--H=-1,0", "--json=a b", "-h", "--help", "--",
)  # fmt: skip
_VALUE_TOKENS = (
    "5", "0", " 7 ", "5_0", "+3", "x", "9" * 5000, "L", "K", "M", "", "-1", "-u",
    "-1 u", "- u", "-h u", "-x b", "-3/2 a b", "a b | c*",
)  # fmt: skip
_ANY_TOKEN = st.sampled_from(_COMMAND_TOKENS + _PATH_TOKENS + _FLAG_TOKENS + _VALUE_TOKENS)


@st.composite
def _command_lines(draw):
    """Mostly ``COMMAND GRAPH`` and then flags, values or flag-value
    pairs, the command's own flags most often, so that many lines are
    well formed; sometimes any tokens."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(_ANY_TOKEN, max_size=8))
    command = draw(st.sampled_from(_COMMAND_TOKENS))
    line = [command, draw(st.sampled_from(_PATH_TOKENS))]
    own = cli._COMMAND_LINES[command][2] if command in cli._COMMAND_LINES else ()
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 4)) if own else 4
        if kind <= 2:  # one of the command's own flags: with a value it takes, with any value, or alone
            o = draw(st.sampled_from(own))
            line.append(o.flag)
            if o.convert is not None and kind < 2:
                line.append(draw(st.sampled_from(_VALUE_TOKENS if kind else o.choices or ("5", " 7 "))))
        elif kind == 3:
            line += [draw(st.sampled_from(_FLAG_TOKENS)), draw(st.sampled_from(_VALUE_TOKENS))]
        else:
            line.append(draw(_ANY_TOKEN))
    if draw(st.booleans()):  # the options the command requires, at the end
        for o in own:
            if o.required:
                line += [o.flag, draw(st.sampled_from(o.choices or _VALUE_TOKENS))]
    return line


@settings(max_examples=2000)
@given(_command_lines())
def test_the_command_line_reader_gives_what_argparse_gives(argv):
    """The reader returns None, or the namespace argparse returns for the
    same argv, with argparse exiting on nothing the reader takes."""
    args = cli._read_command_line(argv)
    if args is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        expected = cli._parser().parse_args(argv)
    assert vars(args) == vars(expected)


@pytest.mark.parametrize(
    "argv",
    [
        [command, "g.json", "--json", *cap]
        for command in ("analyze", "hsets", "primes", "maximals")
        for cap in ([], ["--cap", "200000"])
    ]
    + [["check", "g.json", "--condition", c, "--json", *cap] for c in "LK" for cap in ([], ["--cap", "200000"])]
    + [
        ["quotient", "g.json", "--H", "a,b", "--S", ""],
        ["quotient", "g.json", "--H", "", "--S", ""],
        ["mul", "g.json", "--lhs", "-3/2 a b", "--rhs", "u", "--json"],
        ["mul", "g.json", "--lhs", "1/4 a b | c*", "--rhs", "-1 u - 2/3 a*", "--json"],
    ],
)
def test_the_reader_takes_every_command_line_the_benchmark_sends(argv):
    args = cli._read_command_line(argv)
    assert args is not None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert vars(args) == vars(cli._parser().parse_args(argv))


def mul_document(product):
    """The ``mul --json`` document as a dict: the reference that
    ``cli._product_json`` must print as ``json.dumps`` does."""
    return {
        "result": render_element(product),
        "terms": [
            {
                "coeff": str(m.coeff),
                "alpha": {"source": m.alpha.source, "edges": list(m.alpha.edges)},
                "beta": {"source": m.beta.source, "edges": list(m.beta.edges)},
            }
            for m in product.terms
        ],
    }


def assert_product_json(product):
    assert cli._product_json(product) == json.dumps(mul_document(product), sort_keys=True, indent=2)


@given(graph_and_two_elements())
def test_product_json_matches_the_document(xy):
    x, y = xy
    for left, right in ((x, y), (y, x), (x, x), (x, zero(x.graph))):
        assert_product_json(left * right)


def test_product_json_on_fixed_shapes(unique_max):
    g = unique_max
    shapes = [
        ("e1*", "f1"),  # zero
        ("u", "u"),  # one vertex-only term
        ("e1* e2*", "e1*"),  # ghost-only
        ("u + 2 v - w", "1/2 u - v + w"),  # vertex-only terms with coefficients
        ("f1 g1 | f1* - 3/4 c*", "f1 | g1* + c | c* c* + c"),
    ]
    for lhs, rhs in shapes:
        assert_product_json(parse_element(g, lhs) * parse_element(g, rhs))
    assert cli._product_json(zero(g)) == '{\n  "result": "0",\n  "terms": []\n}'


def test_product_json_where_ids_read_as_coefficients():
    """Each branch of the text rule, where the edge ids ``2`` and ``1/2``
    read as coefficients: such an id opens alpha with a ghost part and
    without one, a ghost-only term follows one, and a coefficient of 1 or
    -1 is written out on the first term and on a later one (and left out
    on the ghost-only term).  Each product by ``a + z`` is its left
    factor; the others share alphas across several betas."""
    g = graph(["a", "z"], [("2", "a", "a"), ("1/2", "a", "z"), ("e", "z", "z")])
    units = parse_element(g, "a + z")
    for lhs, text in [
        ("- 1 1/2 | 1/2* + 1 2 | 2* - 3 2 2 + 1/2*", "-1 1/2 | 1/2* + 1 2 | 2* - 3 2 2 + 1/2*"),
        ("1 1/2 e - 1 2 - 1/2*", "1 1/2 e - 1 2 - 1/2*"),
        ("- 1 1/2 + 1 2 | 2* - e* - 1/2*", "-1 1/2 + 1 2 | 2* - 1/2* - e*"),
        ("1/2 1/2 e | 1/2* e* - 2/3 2", "1/2 1/2 e | 1/2* e* - 2/3 2"),
    ]:
        product = parse_element(g, lhs) * units
        assert render_element(product) == text
        assert parse_element(g, text) == product
        assert_product_json(product)
    for lhs, rhs, text in [
        (
            "1 2 | 2* - 1/2*",
            "1 2 + 1 2 | 2* - 1/2 2 | 2* 2* + 1 1/2 | 1/2* - 2 1/2 | e*",
            "1 2 + 1 2 | 2* - 1/2 2 | 2* 2* - 1/2* + 2 e*",
        ),
        (
            "1 1/2 | 1/2* + 1/2 2 | 2*",
            "1 1/2 e + 1 1/2 | e* + 1 2 2 | 2* + 1 1/2 | 1/2*",
            "1 1/2 | 1/2* + 1 1/2 | e* + 1 1/2 e + 1/2 2 2 | 2*",
        ),
    ]:
        product = parse_element(g, lhs) * parse_element(g, rhs)
        assert render_element(product) == text
        assert len({m.alpha for m in product.terms}) < len(product.terms)
        assert_product_json(product)


@pytest.mark.parametrize(
    "factors, json_sha256, text_sha256",
    [
        (
            _300_term_factors,
            "12b965d363d515c2f5b3c35397b913205f9fa321e476c74c281850f1182a0dc3",
            "92acdb5d862fd051f56503a4676c01f714e99add2b33a45de5983c3601df35eb",
        ),
        (
            _coprime_factors,
            "9198c701c6c27f235881abdb04516639b94e507777596a51b95cccca0ed845d4",
            "d5f904e14201ef14d29ca403eb8df85ddbf85c1d30c57c7a3cb4eae8f2b1d75b",
        ),
    ],
    ids=["300-terms", "coprime-denominators"],
)
def test_product_bytes_of_300_term_factors(unique_max, factors, json_sha256, text_sha256):
    """``mul --json`` and plain ``mul`` text of products as large as the
    benchmark's (about 7,000 terms), pinned by digest: the mul goldens
    hold only 40- and 6-term inputs."""
    x, y = factors(unique_max)
    product = x * y
    assert len(product.terms) > 6000
    assert hashlib.sha256(cli._product_json(product).encode()).hexdigest() == json_sha256
    assert hashlib.sha256(render_element(product).encode()).hexdigest() == text_sha256


def test_product_json_with_escaped_ids():
    g = escaped_ids()
    _, lhs, _, rhs = mul_args(g, 6)
    product = parse_element(g, lhs) * parse_element(g, rhs)
    assert not product.is_zero()
    assert_product_json(product)


def _printed(g, command, *flags):
    """What ``command`` prints for the parsed graph ``g``."""
    args = cli._parser().parse_args([command, "graph.json", "--max-vertices", "1000", *flags])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._COMMANDS[command](g, args)
    return out.getvalue()


def assert_lattice_printed(g):
    """The lattice writer gives the stdlib's text at the top level and
    nested one level down, as ``analyze --json`` holds it; ``hsets`` and
    ``analyze`` print each set of H_E as the writers that take its
    vertex set (``lat.sets``) do."""
    lat = enumerate_HE(g, max_vertices=1000)
    doc = lat.to_json_dict()
    assert cli._lattice_json(lat, "\n") == json.dumps(doc, sort_keys=True, indent=2)
    sections = ['"hereditary_saturated": ' + cli._lattice_json(lat, "\n  "), '"x": ' + cli._json_text([1], "\n  ")]
    nested = json.dumps({"hereditary_saturated": doc, "x": [1]}, sort_keys=True, indent=2)
    assert cli._json_block(sections, "\n", "{}") == nested
    assert _printed(g, "hsets", "--json") == cli._json_text(doc, "\n") + "\n"
    sets = ["{" + ",".join(sorted(s)) + "}" for s in lat.sets]
    hsets = _printed(g, "hsets").splitlines()
    assert hsets[:-1] == [f"hereditary saturated sets ({len(sets)}):"] + ["  " + s for s in sets]
    assert hsets[-1].startswith("maximal proper: ")
    assert _printed(g, "analyze").splitlines()[3] == f"hereditary saturated sets ({len(sets)}): " + ", ".join(sets)


def two_chains(n):
    """n vertices v01, v02, ..., each with a loop: the first ceil(n / 2)
    on a path down to v01, the rest on a path up to the last.  The sets
    of H_E are the unions of a tail of each path, so those on one path
    alone lie in one half of the index's masks (``_Masks.texts``)."""
    h = (n + 1) // 2
    vs = [f"v{i:02}" for i in range(1, n + 1)]
    loops = [(f"l{i}", v, v) for i, v in enumerate(vs)]
    down = [(f"d{i}", vs[i], vs[i - 1]) for i in range(1, h)]
    up = [(f"u{i}", vs[i], vs[i + 1]) for i in range(h, n - 1)]
    return graph(vs, loops + down + up)


@given(graphs())
def test_lattice_json_matches_the_document(g):
    assert_lattice_printed(g)


def test_lattice_json_on_fixed_graphs():
    """Also both parities of mask width, the empty high half of one
    vertex, sets in one half only, and wide masks."""
    for g in random_corpus(500, seed=20260809) + [escaped_ids(), omega_graph(), sparse_graph(200)]:
        assert_lattice_printed(g)
    for n in range(1, 17):
        assert_lattice_printed(loop_antichain(n))
    for n in range(17, 21):
        assert_lattice_printed(two_chains(n))
    # only {} and E^0: the empty set is the one maximal proper element
    single = parse_graph('{"vertices": ["v"], "edges": []}')
    assert cli._lattice_json(enumerate_HE(single), "\n") == (
        '{\n  "maximal_proper": [\n    []\n  ],\n  "sets": [\n    [],\n    [\n      "v"\n    ]\n  ]\n}'
    )
    assert_lattice_printed(single)


# The frames of the three printers: --json at the top level, plain hsets, plain analyze.
SET_FRAMES = {
    "json": (json.dumps, ",\n      ", "[\n      ", "\n    ]", "[]"),
    "hsets": (str, ",", "  {", "}\n", "  {}\n"),
    "analyze": (str, ",", "{", "}", "{}"),
}


@pytest.mark.parametrize("frame", SET_FRAMES)
def test_set_texts_are_framed_in_one_piece(frame):
    """``_Masks.texts`` writes each set framed, in ``in_order``: the empty
    set as the frame's empty text, and sets in the high half only (the
    smaller ids), in the low half only, and in both.  On 18 vertices the
    halves are 9 bits each."""
    word, sep, opened, closed, empty = SET_FRAMES[frame]
    masks = two_chains(18)._masks
    sets = [{"v01", "v18"}, {"v18"}, set(), {"v01", "v02"}, {"v09", "v10"}, {"v10", "v11"}, {"v01", "v18"}]
    texts = masks.texts(map(masks.of, sets), word, sep, opened, closed, empty)
    order = [set(), {"v18"}, {"v01", "v02"}, {"v01", "v18"}, {"v01", "v18"}, {"v09", "v10"}, {"v10", "v11"}]
    assert texts == [opened + sep.join(map(word, sorted(s))) + closed if s else empty for s in order]
    assert masks.texts([], word, sep, opened, closed, empty) == []
    assert masks.texts([0], word, sep, opened, closed, empty) == [empty]


def test_closed_stdout_exits_141_quietly(tmp_path):
    """A reader that stops early (``| head``) ends the command with the
    status a shell reports for SIGPIPE, and with nothing on stderr."""
    path = write_graph(tmp_path, loop_antichain(12))  # about 350 kB of --json
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lpaideals", "hsets", path, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
def test_a_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch):
    """Each run into a pipe whose reader has gone points stdout at devnull
    and closes the descriptor that it opened to do so."""
    path = write_graph(tmp_path, unique_maximal_graph())
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        reader, writer = os.pipe()
        os.close(reader)
        with open(writer, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["hsets", path, "--json"]) == 141
            monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    "build, witness",
    [
        (lambda: ring(5000), 5000),
        (lambda: chain_graph(3000, reverse=True), None),
        (lambda: paired_cycles(3000), 2),
    ],
    ids=["ring", "reversed_chain", "paired_cycles"],
)
def test_check_on_a_long_cycle_or_path_takes_under_a_second(run, tmp_path, build, witness):
    """Condition (K) on 5,000 vertices around one cycle, on 3,000 along a
    path and on 3,000 two-cycles joined in a path, each numbered against
    the index's walk (F6); ``witness`` is the length of the cycle without
    K that fails it, or None when it holds."""
    path = write_graph(tmp_path, build())
    start = time.perf_counter()
    code, out, _ = run("check", path, "--condition", "K", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is (witness is None)
    assert (None if doc["witness"] is None else len(doc["witness"])) == witness


def test_vertex_ids_are_checked_by_lookup():
    """``--H`` and ``--S`` check each id against the graph's id dict: 20,000
    ids take milliseconds, where a scan of the vertex tuple per id took
    seconds."""
    g = DirectedGraph.from_parts([f"v{i}" for i in range(20_000)])
    raw = ",".join(g.vertices)
    start = time.perf_counter()
    assert cli._split_vertices(g, raw, "--H") == frozenset(g.vertices)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(cli.UsageError) as caught:
        cli._split_vertices(g, raw + ",x", "--S")
    assert str(caught.value) == "--S: unknown vertex 'x'"
