"""The three closed-loop workloads: raster, verify and query.

Each workload has one client that issues its next operation only after
the previous one returned.  Operations go through minsum's public entry
points only (`cli.main` and the modules' public functions); the inputs
are the files and point lists made by `inputs` from the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import inputs
import reference

MODULES = ("cli", "serialize", "membership", "geometry", "interpolation",
           "bounds", "oracle", "_projection")

RASTER_RES = 40           # cells per axis of every raster
VERIFY_POINTS = 50        # sampled points per `verify <file>` call
VERIFY_VARIANTS = 4       # seeded scenarios per verify preset
VERIFY_RANDOM_SEEDS = 4   # scenarios per `verify --random` call
VERIFY_RANDOM_POINTS = 100
QUERY_POINTS = 50         # uniform points per query scenario and pass
BOUNDARY_PER_PASS = 1     # bisected boundary points per query pass
BOUNDARY_SCENARIO = "two_smooth_2d"
COLD_CHECKS = 20          # spread evenly over the timed phase
SETUP_REPEATS = 9         # after the first set-up, at cycle ends

RECORDED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")


def tail_stat(values):
    """(value, percentile, samples) at the highest percentile that has
    at least ten samples beyond it.  Below 20 samples that percentile
    would not exceed the median, so the maximum is reported instead."""
    v = np.sort(np.asarray(values, float))
    n = len(v)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 20:
        return float(v[-1]), 100.0, n
    return float(v[n - 11]), 100.0 * (n - 10) / n, n


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def interquartile_mean(values) -> float:
    """Mean of the middle half: it averages over stretches of machine
    speed like a mean, and ignores an outlying quarter on either side
    like a median.  With fewer than four values, the plain mean."""
    v = sorted(values)
    k = len(v) // 4
    mid = v[k:len(v) - k]
    return sum(mid) / len(mid)


def rate_of_shapes(ops, key) -> float:
    """Work items per second of one rotation of operation shapes, from
    each shape's interquartile mean latency and items: the sum of the
    items over the sum of the latencies.  `key(op)` names an operation's
    shape, or None for one that is not rated.  Each shape has many
    samples spread over the run; the middle half's mean follows the mix
    of the machine's speed modes smoothly where a median would jump
    between them, and a rare costly input does not move it."""
    lat, items = {}, {}
    for o in ops:
        k = key(o)
        if k is None:
            continue
        lat.setdefault(k, []).append(o["latency"])
        items.setdefault(k, []).append(o["items"])
    return (sum(interquartile_mean(v) for v in items.values())
            / sum(interquartile_mean(v) for v in lat.values()))


class Run:
    """Shared state of one benchmark process."""

    def __init__(self, root: str, seed: int, outdir: str):
        self.root = root
        self.seed = seed
        self.outdir = outdir
        self.m = None
        self.problems = []       # output checks that failed (correct = false)
        self.attempted = 0
        self.failed = 0
        try:
            with open(RECORDED_PATH, encoding="utf-8") as fh:
                self.recorded = json.load(fh).get(str(seed))
        except FileNotFoundError:
            self.recorded = None

    def path(self, *parts) -> str:
        p = os.path.join(self.outdir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def fresh_import(self):
        """Import minsum from the checkout's src/, discarding any
        earlier import so set-up can be timed more than once."""
        for name in [k for k in sys.modules if k == "minsum" or k.startswith("minsum.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        pkg = importlib.import_module("minsum")
        self.m = {"minsum": pkg}
        for name in MODULES:
            self.m[name] = importlib.import_module(f"minsum.{name}")
        return pkg

    def cli(self, argv):
        """Run cli.main in-process; (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.m["cli"].main([str(a) for a in argv])
        return code, buf.getvalue()

    def problem(self, msg: str):
        if len(self.problems) < 50:
            self.problems.append(msg)

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("MINSUM_TOL", None)
        return env

    def subprocess_wall(self, argv) -> tuple:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=60)
        return time.perf_counter() - t0, proc.returncode

    def cold_check(self, scenario_path: str, scenario: dict, point) -> float:
        """One `python -m minsum check` subprocess; its wall time."""
        state = reference.Model(scenario).classify(np.asarray(point)[None, :])[0][0]
        argv = [sys.executable, "-m", "minsum", "check", scenario_path, "--point",
                *[repr(float(v)) for v in point]]
        wall, code = self.subprocess_wall(argv)
        self.attempted += 1
        if code != reference.STATE_CODE[state]:
            self.failed += 1
            self.problem(f"cold check exit {code}, expected {reference.STATE_CODE[state]}")
        return wall

    def import_times(self, count=5) -> list:
        return [self.subprocess_wall([sys.executable, "-c", "import minsum"])[0]
                for _ in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_HEAVY = ("verdict", "gradients", "stdout", "scenario", "reports", "focal", "x",
          "case", "argv", "path", "bbox", "csv_path", "svg_path")


def slim(op: dict) -> dict:
    """Drop an operation's outputs once they are checked, so that the
    records a run keeps do not grow its memory with its length."""
    if "case" in op:
        op["label"] = op["case"]["label"]
    for key in _HEAVY:
        op.pop(key, None)
    return op


# ---------------------------------------------------------------------------
# raster


class Raster:
    # cycles per rotation: one cycle is one render, so a run holds many
    # short samples of every (preset, workers) shape
    rotation = 2 * len(inputs.PRESETS)

    def __init__(self, run: Run):
        self.run = run

    def make_inputs(self):
        self.cases = []
        for spec in inputs.PRESETS:
            sc = inputs.scenario_dict(self.run.seed, spec, inputs.RASTER_DIM)
            path = self.run.path("raster", f"{spec[0]}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.scenario_text(sc))
            self.cases.append((spec[0], sc, path, inputs.raster_bbox(sc)))

    def warm_up(self):
        for name, _, path, bbox in self.cases:
            self.run.cli(["region", path, "--bbox", *map(repr, bbox), "--res", 8, 8,
                          "--out", self.run.path("raster", "warm.csv")])

    def cycle(self, c: int):
        """One render: the presets in turn, each with --workers 1 and
        then 2, so `rotation` cycles render every shape once.  Every
        rotation renders the same inputs."""
        name, sc, path, bbox = self.cases[(c // 2) % len(self.cases)]
        workers = 1 + c % 2
        yield {"kind": "region", "latency_op": True, "preset": name, "workers": workers,
               "pattern": inputs.PATTERN_OF[name], "scenario": sc,
               "path": path, "bbox": bbox}

    def execute(self, op):
        csv_path = self.run.path("raster", f"{op['preset']}_w{op['workers']}.csv")
        svg_path = self.run.path("raster", f"{op['preset']}_w{op['workers']}.svg")
        bbox = op["bbox"]
        argv = ["region", op["path"], "--bbox", *map(repr, bbox),
                "--res", RASTER_RES, RASTER_RES, "--out", csv_path, "--svg", svg_path,
                "--workers", op["workers"]]
        t0 = time.perf_counter()
        code, out = self.run.cli(argv)
        op["latency"] = time.perf_counter() - t0
        op["cells"] = RASTER_RES * RASTER_RES
        op["items"] = op["cells"]
        op["code"], op["stdout"] = code, out
        op["csv_path"], op["svg_path"] = csv_path, svg_path

    def check(self, op) -> bool:
        """Output checks for one region call; returns False on failure."""
        run = self.run
        tag = f"region {op['preset']} w{op['workers']}"
        if op["code"] != 0:
            run.problem(f"{tag}: exit {op['code']}")
            return False
        with open(op["csv_path"], encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(op["svg_path"], encoding="utf-8") as fh:
            svg_text = fh.read()
        op["csv_bytes"], op["svg_bytes"] = len(csv_text.encode()), len(svg_text.encode())
        op["file_digest"] = digest(csv_text + svg_text)
        op["output_digest"] = digest(op["file_digest"] + op["stdout"])
        return check_region_output(run, tag, op["scenario"], op["bbox"], RASTER_RES,
                                   csv_text, svg_text, op["stdout"], op["preset"])

    @staticmethod
    def work_rate(ops) -> float:
        return rate_of_shapes(ops, lambda o: (o["preset"], o["workers"]))

    def finish(self, ops):
        w1 = [o for o in ops if o["workers"] == 1]
        w2 = [o for o in ops if o["workers"] == 2]
        # --workers must not change a single output byte
        by_key = {}
        for o in ops:
            by_key.setdefault(o["preset"], set()).add(o.get("file_digest"))
        for preset, digests in by_key.items():
            if len(digests) != 1:
                self.run.problem(f"region {preset}: output bytes differ between runs")
        return {
            "raster_cells_per_s": {
                "value": rate_of_shapes(w1, lambda o: o["preset"]),
                "unit": "cells/s", "samples": len(w1)},
            "raster_w2_cells_per_s": {
                "value": rate_of_shapes(w2, lambda o: o["preset"]),
                "unit": "cells/s", "samples": len(w2)},
        }

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation of one rasterize_region call on the
        largest preset (five smooth summands), with --workers 1."""
        name, sc, path, bbox = next(c for c in self.cases if c[0] == "m_smooth5")
        scenario = self.run.m["serialize"].load_scenario(path)
        tracemalloc.start()
        try:
            self.run.m["membership"].rasterize_region(scenario, bbox, (RASTER_RES, RASTER_RES))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def cold_target(self):
        name, sc, path, _ = self.cases[0]
        return path, sc, inputs.query_points(self.run.seed, sc, "cold", COLD_CHECKS)


def parse_csv(csv_text: str):
    lines = csv_text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    xy = np.array([(float(r[0]), float(r[1])) for r in rows]) if rows else np.zeros((0, 2))
    states = np.array([r[2] for r in rows])
    margins = np.array([float(r[3]) for r in rows])
    bits = np.array([int(r[4]) for r in rows], dtype=np.int64)
    return lines[0], xy, states, margins, bits


def check_region_output(run, tag, scenario, bbox, n, csv_text, svg_text, stdout, preset) -> bool:
    """Every output check of one n x n `region` call against the
    independent reference and, where recorded, the seed commit's states."""
    header, xy, states, margins, bits = parse_csv(csv_text)
    ok = True
    if header != "x,y,state,margin,conditions" or len(states) != n * n:
        run.problem(f"{tag}: {len(states)} CSV rows, expected {n * n}")
        return False
    xmin, xmax, ymin, ymax = bbox
    xs = xmin + (xmax - xmin) / n * (np.arange(n) + 0.5)
    ys = ymin + (ymax - ymin) / n * (np.arange(n) + 0.5)
    grid = np.column_stack([np.tile(xs, n), np.repeat(ys, n)])
    if not np.allclose(xy, grid, rtol=1e-12, atol=1e-12):
        run.problem(f"{tag}: cell centres are not the grid's")
        ok = False
    ref_states, ref_margins, eps, ref_bits = reference.Model(scenario).classify(xy)
    bad = reference.state_mismatches(states, margins, eps, ref_states, ref_margins)
    if len(bad):
        i = int(bad[0])
        run.problem(f"{tag}: {len(bad)} cells differ from the reference, first #{i} "
                    f"{states[i]} {margins[i]!r} vs {ref_states[i]} {ref_margins[i]!r}")
        ok = False
    if len(reference.condition_mismatches(bits, ref_bits)):
        run.problem(f"{tag}: fired-condition bits differ from the reference")
        ok = False
    admitted = int(np.count_nonzero(states != reference.OUTSIDE))
    if svg_text.count("<rect ") != admitted + 1:
        run.problem(f"{tag}: {svg_text.count('<rect ')} SVG rects for {admitted} admitted cells")
        ok = False
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        run.problem(f"{tag}: stdout is not JSON")
        return False
    counts = {s: int(np.count_nonzero(states == s))
              for s in (reference.INSIDE, reference.BOUNDARY, reference.OUTSIDE)}
    if (summary.get("cells") != n * n
            or summary.get("predicate_used") != inputs.PATTERN_OF[preset]
            or any(summary.get(k) != v for k, v in counts.items())):
        run.problem(f"{tag}: stdout counts {summary} do not match the CSV")
        ok = False
    if run.recorded is not None and n == RASTER_RES:
        want = run.recorded["raster"].get(preset)
        if want is not None and digest("\n".join(states)) != want:
            run.problem(f"{tag}: states differ from the seed commit's")
            ok = False
    return ok


# ---------------------------------------------------------------------------
# verify


class Verify:
    rotation = 1

    def __init__(self, run: Run):
        self.run = run

    def _write_cases(self, c: int) -> list:
        """Cycle c's scenario files: fresh seeded variants of every
        verify preset, so a run averages over many geometries."""
        cases = []
        for spec in inputs.VERIFY_PRESETS:
            for k in range(VERIFY_VARIANTS):
                variant = c * VERIFY_VARIANTS + k
                name = spec[0] + (f"_v{variant}" if variant else "")
                sc = inputs.scenario_dict(self.run.seed, spec, inputs.RASTER_DIM, variant)
                path = self.run.path("verify", f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inputs.scenario_text(sc))
                cases.append((name, spec[0], sc, path))
        return cases

    def make_inputs(self):
        self.cases = self._write_cases(0)

    def warm_up(self):
        # the --random scenarios do not depend on the seed, so neither
        # does the warm-up's cost; a seeded variant can need thousands
        # of projection iterations and would decide setup_s
        self.run.cli(["verify", "--random", "--seeds", 2, "--points", 5])

    def cycle(self, c: int):
        """The four presets in VERIFY_VARIANTS fresh variants each, then
        one `verify --random`."""
        cases = self.cases if c == 0 else self._write_cases(c)
        for name, spec_name, sc, path in cases:
            smooth = all(s["L"] != "inf" for s in sc["summands"] if "known" not in s)
            yield {"kind": "verify", "latency_op": False, "preset": name, "shape": spec_name,
                   "cycle": c, "necessity": smooth,
                   "argv": ["verify", path, "--points", VERIFY_POINTS,
                            "--seed", self.run.seed * 1000 + c]}
        yield {"kind": "verify", "latency_op": True, "preset": "random", "shape": "random",
               "cycle": c, "necessity": None,
               "argv": ["verify", "--random", "--seeds", VERIFY_RANDOM_SEEDS,
                        "--points", VERIFY_RANDOM_POINTS]}

    def execute(self, op):
        t0 = time.perf_counter()
        code, out = self.run.cli(op["argv"])
        op["latency"] = time.perf_counter() - t0
        op["code"], op["stdout"] = code, out

    def check(self, op) -> bool:
        run = self.run
        tag = f"verify {op['preset']} cycle {op['cycle']}"
        op["items"] = op["points"] = op["checked"] = op["indeterminate"] = op["instances"] = 0
        try:
            res = json.loads(op["stdout"])
        except json.JSONDecodeError:
            run.problem(f"{tag}: stdout is not JSON")
            return False
        op["output_digest"] = digest(op["stdout"])
        runs = res["runs"] if op["preset"] == "random" else [res]
        ok = op["code"] == 0 and res.get("ok") is True
        for r in runs:
            op["points"] += r["points"]
            op["checked"] += r["checked"]
            op["indeterminate"] += r["indeterminate"]
            if r["mismatches"]:
                ok = False
            if r["checked"] + r["boundary_skipped"] + r["indeterminate"] != r["points"]:
                run.problem(f"{tag}: point counts do not add up")
                return False
            nec = r.get("necessity")
            if op["necessity"] is not None and (nec is not None) != op["necessity"]:
                run.problem(f"{tag}: necessity sweep presence is wrong")
                return False
            if nec is not None:
                op["instances"] += nec["instances"]
                ok = ok and not nec["failures"]
        expected_points = VERIFY_POINTS if op["preset"] != "random" else (
            VERIFY_RANDOM_SEEDS * VERIFY_RANDOM_POINTS)
        if op["points"] != expected_points:
            run.problem(f"{tag}: {op['points']} points, expected {expected_points}")
            return False
        op["items"] = op["checked"] + op["instances"]
        # an indeterminate point hit the projection's iteration cap without
        # a decision: like a WitnessRecoveryError on query, the program
        # declined to answer rather than answered wrongly, so it is
        # reported (fail_share, oracle.indeterminate_ratio), not failed
        op["unresolved"] = op["indeterminate"] > 0
        if not ok:
            run.problem(f"{tag}: exit {op['code']}, mismatch, failed necessity or ok false")
        return ok

    @staticmethod
    def work_rate(ops) -> float:
        return rate_of_shapes(ops, lambda o: o["shape"])

    def finish(self, ops):
        return {
            "verify_points_per_s": {
                "value": sum(o["items"] for o in ops) / sum(o["latency"] for o in ops),
                "unit": "points/s", "samples": len(ops)},
        }

    def cold_target(self):
        name, _, sc, path = self.cases[0]
        return path, sc, inputs.query_points(self.run.seed, sc, "cold", COLD_CHECKS)


# ---------------------------------------------------------------------------
# query


class Query:
    rotation = 1

    def __init__(self, run: Run):
        self.run = run

    def make_inputs(self):
        """Scenario files, uniform points over the padded anchor box, and
        boundary points bisected from the focal point."""
        run = self.run
        self.cases = []
        for label, sc in inputs.query_scenarios(run.seed):
            path = run.path("query", f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.scenario_text(sc))
            pts = inputs.query_points(run.seed, sc, label, QUERY_POINTS)
            self.cases.append({"label": label, "scenario": sc, "path": path,
                               "points": pts, "model": reference.Model(sc)})
        case = next(c for c in self.cases if c["label"] == BOUNDARY_SCENARIO)
        targets = inputs.bisection_targets(run.seed, case["scenario"], BOUNDARY_SCENARIO,
                                           BOUNDARY_PER_PASS)
        case["boundary"] = [self._bisect(case["model"], t) for t in targets]

    @staticmethod
    def _bisect(model, target, steps=64):
        """The point where the reference margin changes sign on the
        segment from the focal point towards target: a boundary point,
        its margin within ulps of zero."""
        inside = np.asarray(model.focal(), float)
        outside = np.asarray(target, float)
        for _ in range(steps):
            mid = 0.5 * (inside + outside)
            if model.classify(mid[None, :])[1][0] >= 0.0:
                inside = mid
            else:
                outside = mid
        return inside

    def warm_up(self):
        for case in self.cases:
            sc = self.run.m["serialize"].load_scenario(case["path"])
            self.run.m["membership"].evaluate(sc, case["points"][0])

    def cycle(self, c: int):
        """One pass: per scenario a load, its bound reports and focal
        point, then QUERY_POINTS uniform points (fresh ones each pass);
        the boundary points last."""
        cases = self.cases
        for case in cases:
            yield {"kind": "scenario", "latency_op": False, "case": case, "cycle": c}
            pts = case["points"] if c == 0 else inputs.query_points(
                self.run.seed, case["scenario"], f"{case['label']}/{c}", QUERY_POINTS)
            for i in range(len(pts)):
                yield {"kind": "point", "latency_op": True, "case": case, "cycle": c,
                       "index": i, "x": pts[i], "boundary": False}
        # a boundary point spends seconds reaching the projection's
        # iteration cap at the seed: it counts as attempted and as
        # unresolved, and its latency is reported on its own
        # (query_boundary_ms), so it decides neither the rate nor the
        # latency percentiles
        for case in cases:
            for i, x in enumerate(case.get("boundary", ())):
                yield {"kind": "point", "latency_op": False, "case": case,
                       "cycle": c, "index": i, "x": x, "boundary": True}

    def execute(self, op):
        m = self.run.m
        case = op["case"]
        if op["kind"] == "scenario":
            t0 = time.perf_counter()
            sc = m["serialize"].load_scenario(case["path"])
            reports = m["bounds"].scenario_bound_reports(sc)
            try:
                focal = m["membership"].focal_point(sc.summands)
            except m["membership"].UnsupportedPatternError:
                focal = None
            op["latency"] = time.perf_counter() - t0
            case["loaded"] = sc
            op["reports"], op["focal"] = reports, focal
            op["items"] = 0
            op["output_digest"] = digest(repr((reports, None if focal is None else focal.tobytes())))
            return
        sc = case["loaded"]
        x = op["x"]
        interp = m["interpolation"]
        t0 = time.perf_counter()
        verdict = m["membership"].evaluate(sc, x)
        gs = error = None
        certified = []
        if verdict.admits:
            try:
                gs = m["membership"].witness_gradients(sc, x)
            except m["membership"].WitnessRecoveryError as exc:
                error = exc
            if gs is not None:
                for s, g in zip(sc.summands, gs):
                    if s.known is not None:
                        continue
                    interp.minimizer_condition_margin(x, g, s.x_star, s.params)
                    try:
                        w = interp.witness_values(x, g, s.x_star, s.params)
                        pair = [interp.Triplet(x, g, w.f_x),
                                interp.Triplet(s.x_star, np.zeros_like(x), w.f_star)]
                        ok = interp.check_interpolation(pair, s.params).state != "outside"
                    except ValueError:
                        ok = False
                    certified.append(ok)
        op["latency"] = time.perf_counter() - t0
        op["items"] = 1
        op["verdict"], op["gradients"] = verdict, gs
        op["error"] = None if error is None else type(error).__name__
        op["admits"] = verdict.admits
        op["certified_ok"] = certified
        op["output_digest"] = digest(
            f"{verdict.state}|{verdict.margin!r}|{verdict.fired_conditions}|{op['error']}|"
            + ("" if gs is None else np.concatenate(gs).tobytes().hex()))

    def check(self, op) -> bool:
        run = self.run
        case = op["case"]
        model = case["model"]
        tag = f"query {case['label']}"
        if op["kind"] == "scenario":
            return self._check_scenario(op, tag)
        x = op["x"]
        v = op["verdict"]
        ref_states, ref_margins, eps, _ = model.classify(x[None, :])
        if len(reference.state_mismatches([v.state], [v.margin], eps, ref_states, ref_margins)):
            run.problem(f"{tag} #{op['index']}: verdict {v.state} {v.margin!r}, "
                        f"reference {ref_states[0]} {ref_margins[0]!r}")
            return False
        op["state"] = v.state
        op["unresolved"] = False
        if not v.admits:
            return True
        if op["error"] is not None:
            # WitnessRecoveryError: the known witness defect.  The program
            # declined to answer rather than answered wrongly, so the query
            # is not a failed operation; fail_share and the membership.witness_*
            # metrics report it
            op["unresolved"] = True
            return True
        gs = op["gradients"]
        if gs is None or len(gs) != len(case["scenario"]["summands"]):
            run.problem(f"{tag} #{op['index']}: admitted point without one witness per summand")
            return False
        total = np.sum(gs, axis=0)
        scale = 1.0 + max(float(np.linalg.norm(g)) for g in gs)
        if float(np.linalg.norm(total)) > 1e-9 * scale:
            run.problem(f"{tag} #{op['index']}: witness sum {np.linalg.norm(total):.3e} is not zero")
            return False
        bound = case["scenario"].get("bound_B")
        for s, g in zip(case["scenario"]["summands"], gs):
            xs = np.array(s["x_star"], float)
            if "known" in s:
                a = np.array(s["known"]["matrix"], float)
                c = np.array(s["known"]["center"], float)
                want = a @ (x - c)
                if not np.allclose(g, want, rtol=1e-12, atol=1e-12):
                    run.problem(f"{tag} #{op['index']}: known gradient is wrong")
                    return False
                continue
            big_l = math.inf if s["L"] == "inf" else float(s["L"])
            slack = reference.witness_condition(x, g, xs, float(s["mu"]), big_l)
            tol = 1e-6 * (1.0 + float(np.abs(g).max()) + float(np.abs(x - xs).max())) ** 2 \
                * (1.0 + (0.0 if math.isinf(big_l) else big_l))
            if slack < -tol:
                run.problem(f"{tag} #{op['index']}: witness misses its summand's set ({slack:.3e})")
                return False
            if bound is not None and float(np.linalg.norm(g)) > bound * (1 + 1e-6) + 1e-6:
                run.problem(f"{tag} #{op['index']}: witness exceeds bound_B")
                return False
        # the program's own certification, strict tolerance: a witness it
        # cannot certify is the same defect, reported like a recovery error
        op["unresolved"] = not all(op["certified_ok"])
        return True

    def _check_scenario(self, op, tag) -> bool:
        model = op["case"]["model"]
        want = model.focal()
        focal = op["focal"]
        if (want is None) != (focal is None) or (
                want is not None and not np.allclose(focal, want, rtol=1e-12, atol=1e-12)):
            self.run.problem(f"{tag}: focal point {focal} differs from {want}")
            return False
        if want is not None and model.classify(np.asarray(focal)[None, :])[0][0] == reference.OUTSIDE:
            self.run.problem(f"{tag}: focal point is outside the set")
            return False
        for r in op["reports"]["reports"]:
            if not (r.bound_value > 0.0):
                self.run.problem(f"{tag}: bound report {r} is not positive")
                return False
        return True

    @staticmethod
    def work_rate(ops) -> float:
        """Point queries per second at each scenario's interquartile mean
        point latency: about 1% of the points, near the boundary, take up
        half of the point time, so a total over one run follows the few
        such points the run happened to draw.  query_tail_ms reports them."""
        return rate_of_shapes(
            ops, lambda o: o["label"] if o["kind"] == "point" and not o["boundary"] else None)

    def finish(self, ops):
        lat = [o["latency"] * 1e3 for o in ops if o["kind"] == "point" and not o["boundary"]]
        edge = [o["latency"] * 1e3 for o in ops if o["kind"] == "point" and o["boundary"]]
        tail, pct, n = tail_stat(lat)
        return {
            "query_p50_ms": {"value": median(lat), "unit": "ms", "samples": n},
            "query_tail_ms": {"value": tail, "unit": "ms", "percentile": pct, "samples": n},
            "query_boundary_ms": {"value": median(edge), "unit": "ms", "samples": len(edge)},
        }

    def recorded_digests(self, ops):
        """Verdict states per scenario, for comparison with the seed commit."""
        out = {}
        for o in ops:
            if o["kind"] == "point" and o["cycle"] == 0 and not o["boundary"] and "state" in o:
                out.setdefault(o["label"], {})[o["index"]] = o["state"]
        return {k: digest("\n".join(v[i] for i in sorted(v))) for k, v in out.items()}

    def cold_target(self):
        case = self.cases[0]
        return case["path"], case["scenario"], case["points"]


WORKLOADS = {"raster": Raster, "verify": Verify, "query": Query}
