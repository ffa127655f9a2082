"""The command line writes the bytes its transcript records.

``tests/transcripts.py`` documents what the transcript covers and
rewrites it.  On a mismatch this test names the graph and the command
family, and prints each run of the family with its new output.
"""

from transcripts import TRANSCRIPT, families, graph_line, graphs, run
from lpaideals import serialize_graph


def _family_report(name, g, family, tmp_path) -> str:
    path = tmp_path / "graph.json"
    path.write_text(serialize_graph(g), encoding="utf-8")
    lines = [f"{name}: {family} differs from {TRANSCRIPT.name}"]
    for argv in families(name, g)[family]:
        code, out, err = run(str(path), argv)
        lines.append(f"$ {' '.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "\n".join(lines)


def test_the_command_line_matches_its_transcript(tmp_path):
    recorded = {line.split(" ", 1)[0]: line for line in TRANSCRIPT.read_text(encoding="utf-8").splitlines()}
    named = graphs()
    assert list(recorded) == list(named)
    changed = []  # (graph name, family) of each changed digest
    for name, g in named.items():
        old = dict(pair.split("=") for pair in recorded[name].split()[1:])
        new = dict(pair.split("=") for pair in graph_line(name, g, str(tmp_path)).split()[1:])
        changed += [(name, family) for family in new if new[family] != old.get(family)]
    if changed:
        name, family = changed[0]
        summary = f"{len(changed)} digests differ, first {name} {family}"
        raise AssertionError(summary + "\n" + _family_report(name, named[name], family, tmp_path))
