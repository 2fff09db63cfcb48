"""Benchmark entry point: one workload, one seed, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

The run is a closed loop on one core: it starts a fresh interpreter for each
pass (``bench/worker.py``), waits for it, and starts the next until
``--seconds`` have passed. A fresh interpreter per pass keeps module-level
memos from carrying warm state between passes, makes each peak RSS that
pass's own, and puts interpreter start-up into ``setup_s``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``: medians over the passes. With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead. Before that line come a run record and a
human-readable summary; the samples (and, when tracing, the spans of the last
traced pass) go to ``.bench_out/``. The line is not printed, and the exit
code is not 0, if no pass succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import probe_kernel

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("einfty_builtin", "einfty_wide", "atlas", "verify")
# the workload-specific name of pass_s, as the report table prints it
PASS_NAMES = {"einfty_builtin": "einfty_s", "einfty_wide": "einfty_s", "atlas": "atlas_s", "verify": "verify_s"}
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# after a pass longer than LONG_PASS_S, set up this many more times, so that
# runs of long workloads also have about twenty set-up samples
LONG_PASS_S = 2.0
EXTRA_SETUPS = 3
OUT_DIR = Path(".bench_out")


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple[dict | None, str]:
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode, repr(launched)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "pass timed out"
    if proc.returncode != 0:
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"worker exited {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), ""


def calibrate() -> float:
    """Median seconds of the speed probe's fixed kernel: context for machine speed."""
    times = []
    for _ in range(200):
        start = time.perf_counter()
        probe_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile (nearest rank) with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run passes until ``seconds`` are up; return samples and check totals."""
    start = time.monotonic()
    stop, deadline = start + seconds, start + RUN_LIMIT_S
    record = run_record(workload, seed, seconds, trace)
    record["calibration_s_before"] = calibrate()
    plain, traced, setups, errors = [], [], [], []
    attempted = failed = 0
    passes = 0
    while True:
        tr = trace and passes % 2 == 1  # a traced run alternates untraced and traced passes
        passes += 1
        sample, error = _spawn(workload, seed, "trace" if tr else "pass", deadline)
        attempted += len(sample["checks"]) if sample else 1
        if sample is None:
            failed += 1
            errors.append(error)
        else:
            failed += sum(1 for _, ok, _ in sample["checks"] if not ok)
            errors.extend(f"{name}: {detail}" for name, ok, detail in sample["checks"] if not ok)
            (traced if tr else plain).append(sample)
            setups.append(sample)
            for _ in range(EXTRA_SETUPS if sample["pass_wall_s"] > LONG_PASS_S else 0):
                extra, error = _spawn(workload, seed, "setup", deadline)
                if extra is None:
                    attempted += 1
                    failed += 1
                    errors.append(error)
                else:
                    setups.append(extra)
        now = time.monotonic()
        if now >= deadline or (sample is None and not plain):
            break
        if now >= stop and (not trace or passes >= 2):
            break
    record["calibration_s_after"] = calibrate()
    return {
        "record": record,
        "plain": plain,
        "traced": traced,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def end_to_end(run: dict) -> dict[str, float]:
    plain = run["plain"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in run["setups"]),
        "pass_s": statistics.median(s["pass_s"] for s in plain),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in plain),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["traced"]
    out = {key: statistics.median(s["layer"][key] for s in traced) for key in traced[0]["layer"]}
    plain_s = statistics.median(s["pass_s"] for s in run["plain"])
    overhead = statistics.median(s["pass_s"] for s in traced) - plain_s
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / plain_s
    return out


def _timing(values: list[float]) -> str:
    t = tail(values)
    tail_text = f"p{t[0]} {t[1]:.4f}" if t else "p- (n<11)"
    return f"median {statistics.median(values):.4f} {tail_text} n={len(values)}"


def summary_lines(workload: str, run: dict) -> list[str]:
    """Human-readable end-to-end row of one workload."""
    plain, setups = run["plain"], run["setups"]
    share = run["failed"] / run["attempted"]
    return [
        f"{workload}: setup_s [s] {_timing([s['setup_s'] for s in setups])} | "
        f"{PASS_NAMES[workload]} [s] {_timing([s['pass_s'] for s in plain])} | "
        f"peak_rss_mib [MiB] {statistics.median(s['peak_rss_mib'] for s in plain):.1f} | "
        f"ops_failed_share [1] {share:.4f} ({run['failed']}/{run['attempted']})",
        f"{workload} wall clock: setup [s] {_timing([s['setup_wall_s'] for s in setups])} | "
        f"{PASS_NAMES[workload]} [s] {_timing([s['pass_wall_s'] for s in plain])}",
    ]


def _write_out(workload: str, seed: int, trace: bool, run: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    spans = run["traced"][-1]["spans"] if run["traced"] else []
    samples = [{k: v for k, v in s.items() if k != "spans"} for s in run["setups"]]
    data = {"record": run["record"], "errors": run["errors"], "samples": samples, "spans": spans}
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: run from the checkout root, next to BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not Path("src/motivic_stems/__init__.py").is_file():
        print("error: no src/motivic_stems here; run from the root of a checkout", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    run = measure(args.workload, args.seed, args.seconds, trace)
    print("run: " + json.dumps(run["record"]))
    for error in run["errors"][:10]:
        print(f"failed: {error}")
    if not run["plain"] or (trace and not run["traced"]):
        print(f"error: no pass of {args.workload} succeeded", file=sys.stderr)
        return 1
    for line in summary_lines(args.workload, run):
        print(line)
    print(f"wrote {_write_out(args.workload, args.seed, trace, run)}")

    measured = per_layer(run) if trace else end_to_end(run)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    if trace:
        for m in wanted:
            print(f"  {m['name']} [{m['unit']}] {measured[m['name']]}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
