"""Names that one part of the project looks up in another by string or
by key: a renamed or missing one would only surface when a run stops."""
import importlib
import importlib.util
from pathlib import Path

from minsum import _projection, oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_solver_statuses_have_oracle_verdicts():
    # every batch verdict is certified or undecided: no plateau status
    assert _projection._STATUS.tolist() == ["feasible", "separated", "cap"]
    # a new solver status must not reach cross_check as a KeyError
    missing = [s for s in _projection._STATUS.tolist() if s not in oracle._SOLVER_STATUS]
    assert missing == []
