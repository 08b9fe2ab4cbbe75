"""Run every workload and print all end-to-end metrics by name, unit and workload.

    python3 perfbench/report.py [--seed 1] [--seconds N] [--trace]

Each workload runs in its own process (so peak_rss_mb is that workload's
own), through run.py with the run length of BENCHMARK.json unless --seconds
is given. --trace adds the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="also report the per-layer metrics")
    args = ap.parse_args(argv)

    print(f"{'workload':<16} {'metric':<30} {'value':>14} unit")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            res = run(workload, args.seed, args.seconds, trace)
            for name, m in res["metrics"].items():
                print(f"{workload:<16} {name:<30} {m['value']:>14.6g} {m['unit']}")
            if not trace:
                frac = res["failed"] / res["attempted"]
                print(f"{workload:<16} {'failed_frac':<30} {frac:>14.6g} ratio"
                      f" ({res['failed']} of {res['attempted']} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
