import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import clique_with_loop, omega_graph, unique_maximal_graph, mixed_maximals_graph, random_corpus
from test_algebra import graph_and_two_elements
from test_golden import escaped_ids, loop_antichain, mul_args
from lpaideals import ResourceCapError, parse_element, parse_graph, render_element, serialize_graph
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


def test_resource_cap_exits_3(run, tmp_path):
    path = write_graph(tmp_path, unique_maximal_graph())
    code, _, err = run("analyze", path, "--cap", "2")
    assert code == 3
    assert "cap" in err or "cycles" in err
    code, _, err = run("hsets", path, "--max-vertices", "2")
    assert code == 3


def test_maximals_and_primes_share_one_cycle_cap(run, tmp_path):
    # 85 simple cycles: 84 in the clique, and the loop at z
    path = write_graph(tmp_path, clique_with_loop(5))
    for command in ("primes", "maximals"):
        code, _, err = run(command, path, "--cap", "84")
        assert (code, err) == (3, "error: more than 84 simple cycles\n")
        code, _, _ = run(command, path, "--cap", "85")
        assert code == 0


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
def test_json_writer_matches_json_dumps(doc, capsys):
    cli._emit_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    """A usage error and then three commands in one process print what
    each prints in a process of its own."""
    path = write_graph(tmp_path, mixed_maximals_graph())
    calls = [
        ["analyze", path, "--nope"],
        ["check", path, "--condition", "L"],
        ["check", path, "--condition", "K", "--json"],
        ["analyze", path],
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
    together = [call(argv) for argv in calls]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 0, 0]
    assert built == [1]


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


def test_product_json_with_escaped_ids():
    g = escaped_ids()
    _, lhs, _, rhs = mul_args(g, 6)
    product = parse_element(g, lhs) * parse_element(g, rhs)
    assert not product.is_zero()
    assert_product_json(product)


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
