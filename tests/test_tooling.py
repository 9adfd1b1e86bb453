"""Names that one part of the project looks up in another by string or
by key: a renamed or missing one would only surface when a run stops.
And rules that hold across modules: where stdout is written, and where
inputs are checked."""
import ast
import importlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

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


def test_benchmark_verify_argv_keep_to_one_form():
    # verify takes a scenario file (with --seed) or --random (with
    # --seeds), and rejects a mix of the two; no argv the benchmark or the
    # verify corpus builds may mix them.  The path is the element right
    # after "verify" when that is not a --flag
    forms = set()
    for path in ("perfbench/workloads.py", "scripts/verify_corpus.py"):
        for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.List):
                continue
            words = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
            if "verify" not in words:
                continue
            after = words[words.index("verify") + 1:][:1]
            has_path = bool(after) and not (isinstance(after[0], str)
                                            and after[0].startswith("--"))
            random = "--random" in words
            argv = f"{path}:{node.lineno}"
            assert not (has_path and random), argv
            assert "--seeds" not in words or random, argv
            assert "--seed" not in words or not random, argv
            forms.add("file" if has_path else "random")
    assert forms == {"file", "random"}


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


def test_verify_corpus_replays_each_scenario_command_to_stdout(capsys, monkeypatch):
    # one preset file's runs: verify, check at three of its sampled
    # points, bounds and focal, each on its own stdout line with its exit
    # code; --times adds stderr lines and leaves stdout as it was
    monkeypatch.setattr(sys, "path", sys.path[:])
    corpus = load(ROOT / "scripts" / "verify_corpus.py", "verify_corpus")
    presets = corpus.preset_runs
    monkeypatch.setattr(corpus, "preset_runs", lambda tmp: itertools.islice(presets(tmp), 6))
    monkeypatch.setattr(corpus, "random_runs", lambda: iter(()))
    assert corpus.main([]) == 0
    plain = capsys.readouterr()
    assert corpus.main(["--times"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    lines = [line.split("\t") for line in plain.out.splitlines()]
    first = "seed0/c0/one_nonsmooth3"
    assert [tag for tag, _, _ in lines] == [
        first, f"{first}/check0", f"{first}/check1", f"{first}/check2",
        f"{first}/bounds", f"{first}/focal"]
    assert [tag for tag, _ in (line.split("\t") for line in timed.err.splitlines())] == [
        *(tag for tag, _, _ in lines), "total"]
    verify, *checks, bound, focal = lines
    assert json.loads(verify[1])["ok"] and verify[2] == "0"
    for _, out, code in checks:
        assert int(code) == cli._STATE_CODES[json.loads(out)["state"]]
    assert list(json.loads(bound[1])) == ["reports", "enclosing", "focal", "notes"]
    assert bound[2] == "0"
    # the focal point is not defined with a nonsmooth summand among smooth ones
    assert focal[1:] == ["", str(cli.EXIT_UNSUPPORTED)]


def test_verify_corpus_skips_few_boundary_points(tmp_path, monkeypatch):
    # the corpus's verify runs decide every point they do not skip, and
    # skip at most 1 point in 1,000 as too close to the boundary
    monkeypatch.setattr(sys, "path", sys.path[:])
    corpus = load(ROOT / "scripts" / "verify_corpus.py", "verify_corpus")
    runs = [argv for _, argv in corpus.preset_runs(str(tmp_path)) if argv[0] == "verify"]
    runs += [argv for _, argv in corpus.random_runs()]
    assert len(runs) == 388
    results = []
    for argv in runs:
        out, code = corpus.run(argv)
        payload = json.loads(out)
        assert payload["ok"] and code == 0, argv
        results += payload.get("runs", [payload])
    points = sum(r["points"] for r in results)
    assert points == 23_920
    assert sum(r["indeterminate"] for r in results) == 0
    assert 1000 * sum(r["boundary_skipped"] for r in results) <= points


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


def owners_in_src(matches):
    """module.function (or module.<module>) around every AST node of
    src/minsum for which matches holds, in file and walk order."""
    owners = []
    for path in sorted((ROOT / "src" / "minsum").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in filter(matches, ast.walk(tree)):
            around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = min(around, key=lambda f: f.end_lineno - f.lineno, default=None)
            owners.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    return owners


def test_mutant_texts_occur_once():
    # scripts/mutants.py plants each fault by replacing text that must
    # occur exactly once in its file: a refactor that moves the text
    # would otherwise retire the mutant without a word
    catalogue = load(ROOT / "scripts" / "mutants.py", "mutants").MUTANTS
    assert {"wide", "narrow", "deep", "band_factor", "sweep_threshold"} <= set(catalogue)
    for name, edits in catalogue.items():
        for file, old, new in edits:
            assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1, (name, old)
            assert new != old, name


def test_only_emit_writes_to_stdout():
    # stdout carries one strict JSON document, spelled and written by
    # cli._emit; every other message goes to stderr
    def to_stdout(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "write" and ast.unparse(node.value).startswith("sys.stdout")
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
                and "file=sys.stderr" not in map(ast.unparse, node.keywords))

    assert owners_in_src(to_stdout) == ["cli._emit"]


def test_array_classification_has_one_caller():
    # the kernels return margins and tolerances; membership._batch alone
    # turns them into state codes, and the one-point path classifies
    # Python floats instead of arrays
    def calls_classify(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_classify"

    assert owners_in_src(calls_classify) == ["membership._batch"]


def test_witness_is_one_kernel_pass():
    # witness_gradients takes its verdict and its gradients from one run
    # of the routed kernel: no second verdict through _one_point, and no
    # norm worked out again outside the bounded pair's branch (the one
    # that runs the QP, whose argmin it holds to the cap).  The gradient
    # balls' formulas stay in the kernels: membership does not import
    # interpolation's _gradient_ball
    tree = ast.parse((ROOT / "src" / "minsum" / "membership.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "_gradient_ball" not in imported
    witness = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "witness_gradients")

    def calls(*nodes):
        return [ast.unparse(n.func) for node in nodes for n in ast.walk(node)
                if isinstance(n, ast.Call)]

    called = calls(witness)
    assert called.count("_kernel") == called.count("_kernel(scenario)") == 1
    assert "_one_point" not in called
    pair = next(n for n in ast.walk(witness)
                if isinstance(n, ast.If) and "_pair_qp" in calls(*n.body))
    assert called.count("np.linalg.norm") == calls(*pair.body).count("np.linalg.norm")


def test_each_vector_argument_is_checked_once(monkeypatch):
    # inputs are checked where they enter: one as_vec per vector argument,
    # with the dimension given, and no check_same_dim after it.  The spies
    # replace the names in every module that imports them; Ball's check of
    # the centre it is built from is geometry's own and is not counted
    from minsum import geometry, interpolation
    from minsum.interpolation import ClassParams, Triplet
    from minsum.membership import KnownFunction, Scenario, Summand

    smooth, nonsmooth = ClassParams(0.5, 4.0), ClassParams(1.0, float("inf"))
    known = KnownFunction(np.diag([1.0, 2.0]), np.array([0.5, -1.0]))
    scenarios = {
        "two_smooth": Scenario((Summand([-1.0, 0.0], smooth), Summand([1.0, 0.5], smooth))),
        "known_one_nonsmooth": Scenario((
            Summand([0.5, -1.0], smooth, known), Summand([-1.0, 0.0], smooth),
            Summand([1.0, 0.5], nonsmooth))),
        "two_nonsmooth_bounded": Scenario(
            (Summand([-1.0, 0.0], nonsmooth), Summand([1.0, 0.5], nonsmooth)), bound_B=3.0),
    }
    points = {"two_smooth": [0.0, 0.25], "known_one_nonsmooth": [1.0, 0.5],
              "two_nonsmooth_bounded": [0.0, 0.25]}
    for name, sc in scenarios.items():
        assert sc.pattern == name
        # the kernel is built once per scenario, outside the calls counted
        assert membership.evaluate(sc, points[name]).admits

    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    importers = [m for key, m in sorted(sys.modules.items())
                 if key.startswith("minsum.") and m is not geometry]
    for module in importers:
        for name in ("as_vec", "check_same_dim"):
            if getattr(module, name, None) is getattr(geometry, name):
                monkeypatch.setattr(module, name, spy(name, getattr(geometry, name)))

    def no_gradient(self, x):
        raise AssertionError("witness_gradients checked x again")

    monkeypatch.setattr(KnownFunction, "gradient", no_gradient)

    def counted(call):
        calls.clear()
        call()
        return calls.count("as_vec"), calls.count("check_same_dim")

    x, g, xs = np.array([0.3, -0.2]), np.array([1.0, 2.0]), np.array([-1.0, 0.0])
    for name, sc in scenarios.items():
        p = points[name]
        assert counted(lambda: membership.evaluate(sc, p)) == (1, 0), name
        assert counted(lambda: membership.witness_gradients(sc, p)) == (1, 0), name
    assert counted(lambda: interpolation.minimizer_condition_margin(x, g, xs, smooth)) == (3, 0)
    assert counted(lambda: interpolation.witness_values(x, 0.5 * g, xs, ClassParams(0.0, 4.0))) == (3, 0)
    assert counted(lambda: interpolation.geometric_ball(x, xs, smooth)) == (2, 0)
    assert counted(lambda: Triplet(x, g, 1.0)) == (2, 0)
