"""Run every workload once and print its end-to-end row, one row per workload.

Usage, from the root of a checkout:

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs as in ``bench/run.py``: a closed loop of fresh
interpreters. Each row gives ``setup_s``, the pass time under its workload's
name (``einfty_s``, ``atlas_s``, ``verify_s``), ``peak_rss_mib`` and
``ops_failed_share``; a second row gives the plain wall-clock times.
``--trace`` adds a traced run per workload and prints the per-layer metrics
that are not zero there, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run as bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    layers = {}
    for workload in bench.WORKLOADS:
        run = bench.measure(workload, args.seed, args.seconds, False)
        if not run["plain"]:
            print(f"{workload}: no pass succeeded: {run['errors'][:3]}")
            return 1
        for line in bench.summary_lines(workload, run):
            print(line)
        if args.trace:
            traced = bench.measure(workload, args.seed, args.seconds, True)
            layers[workload] = bench.per_layer(traced) if traced["traced"] and traced["plain"] else {}
    for workload, metrics in layers.items():
        print(f"\nper-layer, {workload}:")
        for name, value in metrics.items():
            if value:
                print(f"  {name:40} {value:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
