#!/usr/bin/env python3
"""Plant each catalogued fault in a fresh copy of the project and run
tier-1 against it: a fault no test catches is a gap in the suite.

A mutant is one or more (file, old, new) edits, each replacing text that
occurs exactly once in its file.  The copy is `git archive <rev>`
unpacked into a temporary directory; tier-1 runs there with -x on the
copy's own src.  One line per mutant goes to stdout:

    <name>\tkilled by <first failing test>
    <name>\tsurvived
    <name>\tnot applicable: <file> lacks its text

Usage:
    python scripts/mutants.py                 # every mutant, on HEAD
    python scripts/mutants.py --rev "$(git stash create)"   # uncommitted work

`git stash create` names a commit of the working tree without touching
it; new files need `git add` first.  Standard library only.
"""
from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMBERSHIP = "src/minsum/membership.py"
ORACLE = "src/minsum/oracle.py"
# a mutant that makes tier-1 hang is killed, not waited for; tier-1 takes
# about 20 s on two cores
TIMEOUT_S = 600

# the three planted lemma errors change the kernel and the oracle alike,
# so the two still agree with each other
MUTANTS = {
    # the ball radius factor (L - mu) becomes (L - mu/2): the sets grow
    "wide": [
        (MEMBERSHIP, "minus = _column([s.params.L - s.params.mu for s in smooth])",
         "minus = _column([s.params.L - s.params.mu / 2 for s in smooth])"),
        (ORACLE, "minus = np.array([0.5 * (s.params.L - s.params.mu) for s in smooth])",
         "minus = np.array([0.5 * (s.params.L - s.params.mu / 2) for s in smooth])"),
    ],
    # the same radius times 0.98: the smooth sets shrink
    "narrow": [
        (MEMBERSHIP, "minus = _column([s.params.L - s.params.mu for s in smooth])",
         "minus = _column([0.98 * (s.params.L - s.params.mu) for s in smooth])"),
        (ORACLE, "minus = np.array([0.5 * (s.params.L - s.params.mu) for s in smooth])",
         "minus = np.array([0.98 * 0.5 * (s.params.L - s.params.mu) for s in smooth])"),
    ],
    # the half-space modulus mu_m times 1.05: the one-nonsmooth sets shrink
    "deep": [
        (MEMBERSHIP, "np.vstack(([[-m.params.mu, -1.0]],",
         "np.vstack(([[-1.05 * m.params.mu, -1.0]],"),
        (ORACLE, "offsets = -last.params.mu * ", "offsets = -1.05 * last.params.mu * "),
    ],
    # cross_check skips a boundary band 100 times wider
    "band_factor": [
        (ORACLE, "BOUNDARY_BAND_FACTOR = 1e3", "BOUNDARY_BAND_FACTOR = 1e5"),
    ],
    # the necessity sweep forgives minimizers 1e3 times further outside
    "sweep_threshold": [
        (ORACLE, "failed = outside & (margins < -band * ",
         "failed = outside & (margins < -1e3 * band * "),
    ],
    # the half-space witness takes the ball's point of greatest <g, d_m>
    "halfspace_witness_sign": [
        (MEMBERSHIP, "d[:, 1:] * -coef[1:, 1] - (coef[1:, 0] * norms[1:]) * u[:, None]",
         "d[:, 1:] * -coef[1:, 1] + (coef[1:, 0] * norms[1:]) * u[:, None]"),
    ],
    # the chain witness moves each centre by r_i C, not (r_i/R) C
    "chain_witness_share": [
        (MEMBERSHIP, "g = g - (radii[:-1] / radius) * total[:, None]",
         "g = g - (0.5 * radii[:-1]) * total[:, None]"),
    ],
    # the bounded pair loses its determinant clause
    "determinant_clause": [
        (MEMBERSHIP, "best = np.maximum(np.maximum(c12[0], c12[1]), value[3])",
         "best = np.maximum(c12[0], c12[1])"),
    ],
    # each seed draws a summand's eigenvalues before its matrix
    "sweep_draw_order": [
        (ORACLE,
         "rngs[i].standard_normal(out=g[row, j])\n"
         "                rngs[i].random(out=spectra[row, j, 0])",
         "rngs[i].random(out=spectra[row, j, 0])\n"
         "                rngs[i].standard_normal(out=g[row, j])"),
    ],
    "one_nonsmooth_ball_bound": [
        ("src/minsum/bounds.py", "return math.sqrt(k + 1.0)", "return math.sqrt(k + 0.9)"),
    ],
    "tolerance": [
        ("src/minsum/geometry.py", "TOL = 1e-9", "TOL = 1e-7"),
    ],
}


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses members
        # outside dest; it is the default from Python 3.14 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def plant(tree: Path, edits) -> str | None:
    """Apply the edits in tree; the first file lacking its text, or None."""
    for file, old, new in edits:
        path = tree / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return file
        path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ")[1]
    return "an error before any test (see pytest's output)"


def run(edits, rev: str) -> str:
    with tempfile.TemporaryDirectory(prefix="minsum-mutant-") as tmp:
        tree = Path(tmp)
        unpack(rev, tree)
        missing = plant(tree, edits)
        if missing is not None:
            return f"not applicable: {missing} lacks its text"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed by the {TIMEOUT_S} s timeout"
        if done.returncode == 0:
            return "survived"
        return f"killed by {first_failure(done.stdout)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the commit to copy (default HEAD)")
    args = parser.parse_args(argv)
    for name, edits in MUTANTS.items():
        print(f"{name}\t{run(edits, args.rev)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
