"""Names that one part of the project looks up in another by string or
by key: a renamed or missing one would only surface when a run stops."""
import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from minsum import _projection, cli, membership, serialize

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")


def test_traced_names_resolve():
    traced = load_tracing().TRACED
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"minsum.{module}"), name, None))
    ]
    assert missing == []


def test_benchmark_flags_are_options():
    # every --flag in a list that names a subcommand, as the benchmark and
    # the verify corpus build their argv, must be an option of it
    actions = cli.build_parser()._subparsers._group_actions[0]
    options = {name: set(p._option_string_actions) for name, p in actions.choices.items()}
    used = set()
    for path in ("perfbench/workloads.py", "scripts/verify_corpus.py"):
        for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.List):
                continue
            words = [e.value for e in node.elts
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            command = next((w for w in words if w in options), None)
            if command is not None:
                used |= {(command, w) for w in words if w.startswith("--")}
    assert {command for command, _ in used} == {"check", "region", "verify"}
    assert ("region", "--workers") in used
    assert sorted(f for f in used if f[1] not in options[f[0]]) == []


def test_benchmark_presets_route_as_labelled():
    # the raster workload checks each render's predicate_used against PATTERN_OF
    inputs = load(ROOT / "perfbench" / "inputs.py", "perfbench_inputs")
    for spec in inputs.PRESETS + inputs.VERIFY_PRESETS:
        for seed, dim in ((0, 2), (3, 2), (7, 8)):
            text = inputs.scenario_text(inputs.scenario_dict(seed, spec, dim))
            scenario = serialize.scenario_from_json(text)
            assert membership.route(scenario) == inputs.PATTERN_OF[spec[0]]


def test_solver_statuses_have_oracle_verdicts():
    # every batch verdict is certified or undecided: no plateau status.
    # cross_check compares these strings
    assert _projection._STATUS.tolist() == ["feasible", "separated", "undecided"]


def test_verify_corpus_times_go_to_stderr_only(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends to it
    corpus = load(ROOT / "scripts" / "verify_corpus.py", "verify_corpus")
    runs = [("random/1x5", ["verify", "--random", "--seeds", 1, "--points", 5])]
    monkeypatch.setattr(corpus, "preset_runs", lambda tmp: iter(()))
    monkeypatch.setattr(corpus, "random_runs", lambda: iter(runs))
    assert corpus.main([]) == 0
    plain = capsys.readouterr()
    assert corpus.main(["--times"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.out.startswith("random/1x5\t{")
    assert plain.err == ""
    lines = [line.split("\t") for line in timed.err.splitlines()]
    assert [tag for tag, _ in lines] == ["random/1x5", "total"]
    assert float(lines[0][1]) == float(lines[1][1]) > 0.0


def test_verify_corpus_projection_stats_go_to_stderr_only(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])
    corpus = load(ROOT / "scripts" / "verify_corpus.py", "verify_corpus")
    runs = [
        ("random/1x10", ["verify", "--random", "--seeds", 1, "--points", 10]),
        ("random/2x20", ["verify", "--random", "--seeds", 2, "--points", 20]),
    ]
    monkeypatch.setattr(corpus, "preset_runs", lambda tmp: iter(()))
    monkeypatch.setattr(corpus, "random_runs", lambda: iter(runs))
    solve = _projection.batch_block_projection
    assert corpus.main([]) == 0
    plain = capsys.readouterr()
    assert corpus.main(["--projection-stats"]) == 0
    stats = capsys.readouterr()
    assert stats.out == plain.out and plain.err == ""
    # the solver is unwrapped again after the run
    assert _projection.batch_block_projection is solve
    lines = [line.split("\t") for line in stats.err.splitlines()]
    assert [tag for tag, _ in lines] == ["random/1x10", "random/2x20", "total"]
    first, second, total = (json.loads(v) for _, v in lines)
    statuses = ["feasible", "separated", "undecided"]
    assert list(total) == [*statuses, "batches"]
    # every point of these runs is a projection row
    assert [sum(r[s] for s in statuses) for r in (first, second)] == [10, 20]
    for key in total:
        assert total[key] == first[key] + second[key]


def test_render_figures_smoke(capsys, tmp_path):
    figures = load(ROOT / "scripts" / "render_figures.py", "render_figures")
    assert figures.main(["--outdir", str(tmp_path), "--res", "8"]) == 0
    assert len(list(tmp_path.iterdir())) == 3 * len(figures.PRESETS) == 18
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(figures.PRESETS)
    for line in lines:
        name = line.split(":")[0]
        scenario, bbox = figures.PRESETS[name]
        assert line.split(": ")[1].split(",")[0] == membership.route(scenario)
        raster = membership.rasterize_region(scenario, bbox, (8, 8))
        csv = (tmp_path / f"{name}.csv").read_text(encoding="utf-8")
        assert csv == serialize.raster_to_csv_text(raster)


def test_only_emit_writes_to_stdout():
    # stdout carries one strict JSON document, spelled and written by
    # cli._emit; every other message goes to stderr
    def to_stdout(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "write" and ast.unparse(node.value).startswith("sys.stdout")
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
                and "file=sys.stderr" not in map(ast.unparse, node.keywords))

    writers = []
    for path in sorted((ROOT / "src" / "minsum").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in filter(to_stdout, ast.walk(tree)):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = min(around, key=lambda f: f.end_lineno - f.lineno, default=None)
            writers.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert writers == ["cli._emit"]
