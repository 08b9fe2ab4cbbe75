"""Benchmark of the stochorder CLI, driven in-process as a closed loop.

    python3 perfbench/run.py --workload catalogue-check --seed 1 --seconds 20 --trace 0

One client in one process and one thread calls `stochorder.cli.main(argv)`,
sending the next command as soon as the previous one returns. The argv lists
come from the seeded generators in `workloads.py`; every command's exit code
and report are checked by `checks.py`.

--trace 0 measures the end-to-end metrics:
  setup_s      median time for a fresh interpreter to import stochorder.cli
               and run one trivial command
  cmd_per_s    commands completed per second of command time, after a
               warm-up pass
  cmd_ms.p50   median command latency
  cmd_ms.p95   95th-percentile command latency
  peak_rss_mb  peak resident memory of this process
and prints `failed_frac` (failed / attempted) beside them. The times are
scaled to a reference host speed (see REF_PROBE_S); the summary lines also
print the unscaled wall-clock figures.

--trace 1 alternates untraced and traced passes over the same commands and
reports the per-layer metrics of `tracer.py`, each a mean per traced command,
plus trace.overhead_frac (traced / untraced command time - 1). The spans are
written to .bench_out/ at the root of the checkout.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 11  # timed fresh interpreters per run, after one untimed
SETUP_ARGV = ["check", "--family", "poisson", "--nu1=1", "--nu2=2", "--orders", "lr"]
SETUP_CODE = "import sys; from stochorder.cli import main; sys.exit(main(sys.argv[1:]))"
MIN_SAMPLES = 200  # so that at least 10 latencies lie beyond the p95
HARD_STOP_S = 90.0  # stop the timed phase here even below MIN_SAMPLES
# A shared host can run, for seconds to minutes at a time, up to about 1.9x
# slower than its full speed (seen on a 2-vCPU Intel Xeon KVM guest), which
# swamps any change worth measuring. Every time is therefore scaled to a
# reference host speed: multiplied by REF_PROBE_S over the time `probe()`
# takes around it. REF_PROBE_S is the probe's time on that guest at full
# speed under CPython 3.11, so there a scaled time equals the wall time.
REF_PROBE_S = 500e-6

# metric names and units, declared once in BENCHMARK.json
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


class Client:
    """Runs one command at a time and checks its output."""

    def __init__(self, cli, checker) -> None:
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def run(self, argv: list[str]) -> float:
        """Run one command; return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not the end of the run
                code = None
                crash = traceback.format_exc()
            latency = time.perf_counter() - start
        text = out.getvalue()
        self.output_bytes += len(text.encode("utf-8"))
        if code is None:
            problems = [f"raised:\n{crash}"]
        else:
            problems = self.checker.problems(argv, code, text)
        self.record(argv, problems, err.getvalue())
        return latency

    def record(self, argv: list[str], problems: list[str], stderr: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {' '.join(argv)}", file=sys.stderr)
                for p in problems:
                    print(f"  {p}", file=sys.stderr)
                if stderr:
                    print(f"  stderr: {stderr.strip()}", file=sys.stderr)


def probe() -> float:
    """Seconds a fixed pure-Python loop takes, mean of three: the host's
    current speed, independent of the program."""
    start = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(10_000):
            total += i * i
    return (time.perf_counter() - start) / 3


def measure_setup(client: Client) -> tuple[list[float], list[float]]:
    """Wall and scaled times of fresh interpreters importing the CLI and
    running one trivial command; the first, untimed, run fills the bytecode
    cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV]
    wall, scaled = [], []
    before = probe()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = probe()
        if proc.returncode in (0, 1):
            problems = client.checker.problems(SETUP_ARGV, proc.returncode, proc.stdout)
        else:
            problems = [f"exit code {proc.returncode}"]
        client.record(SETUP_ARGV, problems, proc.stderr)
        if i:
            wall.append(elapsed)
            scaled.append(elapsed * REF_PROBE_S / (0.5 * (before + after)))
        before = after
    return wall, scaled


def require_clean(modules) -> None:
    left = tracer.installed_wrappers(modules)
    if left:
        raise RuntimeError(f"tracer wrappers installed in an untraced run: {left}")


def _latency_stats(latencies: list[float]) -> tuple[float, float, float, int]:
    """(commands per second, p50 ms, p95 ms, samples beyond the p95)."""
    ms = sorted(1000.0 * t for t in latencies)
    p95 = statistics.quantiles(ms, n=100, method="inclusive")[94]
    return len(ms) / sum(latencies), statistics.median(ms), p95, sum(1 for t in ms if t > p95)


def timed_run(client: Client, passes, seconds: int) -> tuple[dict, str]:
    modules = tracer.layer_modules()
    require_clean(modules)
    setup_wall, setup = measure_setup(client)
    for argv in next(passes):  # warm-up: lazy imports and first-call work
        client.run(argv)
    gc.collect()
    wall: list[float] = []
    scaled: list[float] = []
    before = probe()
    start = time.perf_counter()
    while True:
        latencies = [client.run(argv) for argv in next(passes)]
        after = probe()
        scale = REF_PROBE_S / (0.5 * (before + after))
        wall.extend(latencies)
        scaled.extend(t * scale for t in latencies)
        before = after
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(wall) >= MIN_SAMPLES):
            break
    require_clean(modules)

    per_s, p50, p95, beyond = _latency_stats(scaled)
    raw_per_s, raw_p50, raw_p95, _ = _latency_stats(wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_per_s": per_s,
        "cmd_ms.p50": p50,
        "cmd_ms.p95": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; "
                   f"wall {statistics.median(setup_wall):.4g}",
        "cmd_per_s": f"{len(wall)} commands in {sum(wall):.1f} s; wall {raw_per_s:.4g}",
        "cmd_ms.p50": f"{len(wall)} samples; wall {raw_p50:.4g}",
        "cmd_ms.p95": f"{beyond} samples above; wall {raw_p95:.4g}",
        "peak_rss_mb": "this process",
    }
    lines = [f"  {name:<12} {value:>12.6g} {END_TO_END_UNITS[name]:<5} {notes[name]}"
             for name, value in metrics.items()]
    frac = client.failed / client.attempted
    lines.append(f"  {'failed_frac':<12} {frac:>12.6g} {'ratio':<5} "
                 f"{client.failed} of {client.attempted} attempted")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, "\n".join(lines)


def traced_run(client: Client, passes, seconds: int, out_path: Path) -> tuple[dict, str]:
    modules = tracer.layer_modules()
    trace = tracer.Tracer(modules)
    for argv in next(passes):  # warm-up, untraced
        client.run(argv)
    gc.collect()
    untraced = traced = 0.0
    output_bytes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = next(passes)
        untraced += sum(client.run(argv) for argv in batch)
        before = client.output_bytes
        trace.install()
        try:
            traced += sum(client.run(argv) for argv in batch)
        finally:
            trace.uninstall()
        output_bytes += client.output_bytes - before
    require_clean(modules)

    metrics = trace.layer_metrics()
    metrics["cli.output_bytes"] = output_bytes / (trace.cmd + 1)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    trace.write(out_path)
    lines = [f"  {name:<30} {value:>14.6g} {PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
    lines.append(f"  spans: {len(trace.spans)} over {trace.cmd + 1} traced commands, "
                 f"written to {out_path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}, "\n".join(lines)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="stochorder CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stochorder" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/stochorder; run from a full checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from stochorder import cli

    from checks import Checker

    # built before any tracing, so it holds the program's own functions
    client = Client(cli, Checker.from_program())
    passes = workloads.passes(args.workload, args.seed)
    print(f"stochorder benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, summary = traced_run(client, passes, args.seconds, out_path)
    else:
        metrics, summary = timed_run(client, passes, args.seconds)
    declared = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(declared):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}")
    print(summary)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
