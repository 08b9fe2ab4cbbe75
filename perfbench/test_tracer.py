"""Self-tests of the traced mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochorder import catalog, cli, criteria, oracle  # noqa: E402

import tracer  # noqa: E402
from run import PER_LAYER_UNITS  # noqa: E402


def test_install_wraps_every_binding_and_uninstall_restores_it():
    modules = tracer.layer_modules()
    originals = (cli.check_lr, criteria.density, catalog.log_pochhammer, oracle.oracle_lr)
    trace = tracer.Tracer(modules)
    trace.install()
    try:
        wrapped = set(tracer.installed_wrappers(modules))
        assert {"stochorder.cli.check_lr", "stochorder.criteria.check_lr",
                "stochorder.criteria.density", "stochorder.catalog.density",
                "stochorder.catalog.log_pochhammer", "stochorder.special.digamma",
                "stochorder.oracle.oracle_lr"} <= wrapped
        assert getattr(oracle.oracle_for("lr"), "__perfbench_wrapper__", False)
    finally:
        trace.uninstall()
    assert tracer.installed_wrappers(modules) == []
    assert (cli.check_lr, criteria.density, catalog.log_pochhammer, oracle.oracle_lr) == originals


def test_traced_check_reports_every_layer_metric():
    trace = tracer.Tracer(tracer.layer_modules())
    trace.install()
    try:
        with redirect_stdout(io.StringIO()):
            cli.main(["check", "--family", "negbinomial-in-shape", "--nu1=1.5", "--nu2=4"])
    finally:
        trace.uninstall()
    metrics = trace.layer_metrics()
    assert trace.cmd == 0
    assert set(metrics) | {"cli.output_bytes", "trace.overhead_frac"} == set(PER_LAYER_UNITS)
    assert metrics["special.calls"] > 100_000  # the span search's scalar log-Pochhammer
    assert metrics["criteria.checks"] == 8
    assert metrics["criteria.density_per_nu"] > 1.0
    root = trace.spans[0]
    assert root.name == "cli.main" and root.parent == -1
    assert all(s.self_s >= 0.0 for s in trace.spans)
