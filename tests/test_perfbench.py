"""The benchmark's tracer finds the package names it wraps."""

import importlib.util
from pathlib import Path

# the tracer patches these modules, so they must be loaded first
from altcox import chains, cli, coxeter, engine, oracle, presentations, words  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_every_name_it_lists():
    # a renamed function would leave its layer's metric silently at zero
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the one stale entry in the tracer's own list
        assert tracer.missing == ["chains.Chain._regular_table"]
    finally:
        tracer.uninstall()
