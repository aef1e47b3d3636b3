"""The per-layer tracer of perfbench/ rebinds package names by string.

A rename or deletion in the package would leave `perfbench/run.py --trace 1`
failing at install time; this pins every name it wraps, and runs the tracer
in-process over a few jobs, as the traced benchmark pass does.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_package():
    tracer = _load_tracer()
    entries = [entry[:2] for entry in tracer.SPAN_ENTRIES + tracer.LEAF_ENTRIES]
    assert entries
    missing = [f"{mod}.{attr}" for mod, attr in entries
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


# one strip-default verify, one grid job with a ray row (t = 5, lam = 0.01),
# one scan; the batched quadrature must show under completed_quadrature
_TRACED_JOBS = (
    ["verify", "--kind", "exp-alpha", "--s-grid", "strip-default",
     "--lambda", "0.5", "--alpha", "0.5"],
    ["grid", "--fn", "omega", "--sigma", "0.2:0.6:0.2", "--t", "5",
     "--lambda", "0.01", "--cache-dir", ""],
    ["scan", "--t", "100:102"],
)


def _traced_job(tracer_module, argv):
    """(exit code, {metric: (calls, evals)}, scalars) of one CLI job under
    a fresh Tracer."""
    cli = importlib.import_module("zetalab.cli")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    counts = {key: (calls, evals)
              for key, (calls, evals, _) in totals["agg"].items()}
    return code, counts, totals["scalars"]


def _traced_pass(tracer_module):
    """Per job of `_TRACED_JOBS`: `_traced_job`'s triple."""
    return [_traced_job(tracer_module, argv) for argv in _TRACED_JOBS]


def test_trace_runs_in_process_and_repeats_its_counts():
    tracer_module = _load_tracer()
    # a discarded pass first, as the bench worker warms up before it
    # measures: the process tables (psi columns, K rows, ray columns) fill
    # on a first pass and are read on later ones, which moves the counts
    _traced_pass(tracer_module)
    first = _traced_pass(tracer_module)
    second = _traced_pass(tracer_module)
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert first == second
    verify_counts, grid_counts, scan_counts = (c for _, c, _ in first)
    for counts in (verify_counts, grid_counts):
        assert counts["regularized.completed_quadrature"][0] > 0
    assert "regularized.completed_quadrature" not in scan_counts
    assert scan_counts["zeta_classic.hardy_z"][0] > 0


def test_trace_sees_zeta_under_a_classic_verify():
    # riemann-classic's two sides call the public zeta_analytic, which the
    # tracer wraps: 0.3 + 5i on the theta route and 0.7 - 5i on the sum
    code, counts, _ = _traced_job(
        _load_tracer(), ["verify", "--kind", "riemann-classic", "--s", "0.3+5i"])
    assert code == 0
    assert counts["zeta_classic.zeta_analytic.low_t"][0] == 2


def test_trace_counts_hits_and_misses_of_a_cache_log(tmp_path):
    # the tracer wraps get_or_compute's first argument through unread, so a
    # cold run counts a miss and a replay a hit for each of the 6 points
    tracer_module = _load_tracer()
    cli = importlib.import_module("zetalab.cli")
    argv = ["grid", "--fn", "xi-lambda", "--sigma", "0.2:0.6:0.2", "--t", "0,5",
            "--lambda", "0.5", "--cache-dir", str(tmp_path / "cache")]
    scalars = []
    for _ in range(2):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(list(argv)) == 0
        finally:
            tracer.uninstall()
        scalars.append(tracer.totals()["scalars"])
    assert [(s["cache.misses"], s["cache.hits"]) for s in scalars] == [(6, 0), (0, 6)]
