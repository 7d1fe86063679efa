"""The benchmark's tracer patches dvqkd attributes by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites():
    tracing = _tracing()
    sites = [(m, a) for m, a, _ in tracing.SITES] + [(m, a) for m, a, _, _ in tracing.LABELLED_SITES]
    return sites + [("montecarlo", "_poisson")]


@pytest.mark.parametrize("module_name, attr", _sites())
def test_traced_site_resolves(module_name, attr):
    target = getattr(importlib.import_module(f"dvqkd.{module_name}"), attr)
    # the tracer wraps the ppf of the Poisson law the Monte Carlo sampler holds
    assert callable(target.ppf if attr == "_poisson" else target)
