"""The benchmark's tracer finds the package names it wraps, and times a
chain's work in the chains layer."""

import importlib.util
from pathlib import Path

from altcox.chains import Chain

# the tracer patches these modules, so they must be loaded first
from altcox import chains, cli, coxeter, engine, oracle, presentations, words  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_wraps_every_name_it_lists():
    # a renamed function would leave its layer's metric silently at zero
    tracer = _tracer()
    tracer.install()
    try:
        # the one stale entry in the tracer's own list
        assert tracer.missing == ["chains.Chain._regular_table"]
    finally:
        tracer.uninstall()


def test_a_chains_sift_runs_inside_its_traced_table(monkeypatch, capsys):
    """The tracer wraps Chain._table, not Chain._sift, so the sift counts
    in chains.self_ms only when it runs while a Chain._table span is open:
    a cold nf's chain makes its top table and sift there."""
    tracer, open_spans, sift = _tracer(), [], Chain._sift

    def recording_sift(self, *args):
        open_spans.append([tracer.spans[i][0] for i in tracer._stack])
        return sift(self, *args)

    monkeypatch.setattr(Chain, "_sift", recording_sift)
    tracer.install()
    try:
        tracer.begin(0)
        assert cli.main(["nf", "--family", "B", "--rank", "5", "--variant", "edge",
                         "--word", "r1 r2"]) == 0
        tracer.end()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert len(open_spans) == 1 and "chains.Chain._table" in open_spans[0]
