"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py <workload> <seed> <mode> <launched>

``mode`` is ``pass`` (set up, time one pass, check it), ``trace`` (the same
with the tracer installed around the pass) or ``setup`` (set up only).

Run from the root of a checkout. ``launched`` is the parent's
``time.monotonic()`` just before it started this process, so set-up covers
interpreter start-up, the import of ``motivic_stems`` from the checkout's
``src`` and the workload's one-time loads.

Timings come in two forms. ``*_wall_s`` is plain wall time. ``setup_s`` and
``pass_s`` are the same wall time with the speed probe's own time taken out,
rescaled to the probe's reference speed (see ``SpeedProbe``).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.01
# Probe kernel time, in seconds, that defines the reference speed; it is
# close to the kernel's fastest time on a 2-vCPU Intel Xeon VM (Python 3.11).
REFERENCE_PROBE_S = 110e-6


def _branches(a: int, b: int) -> int:
    if a < 0 or b > a:
        return 0
    if 2 * b <= a + 2:
        return 1
    return 2


def probe_kernel() -> None:
    # Small calls with integer branches. Of the kernels tried (dict and sort
    # churn, string formatting, this one), this tracked the slow phases of
    # einfty_wide, atlas and verify passes best: scaled pass times spread
    # 0.03 where wall times spread 0.14-0.21 (interquartile range over median).
    n = 0
    for i in range(-600, 600):
        n += _branches(i, i >> 1)


class SpeedProbe:
    """Times a fixed pure-Python kernel every ``PROBE_INTERVAL_S`` from SIGALRM.

    The kernel runs on the same core and in the same phase of the host as the
    code being measured. A shared VM's speed drifts by a factor of up to 1.7
    over tens of seconds; dividing a wall time by the mean kernel time over
    the same interval takes most of that drift out.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic end, seconds)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.samples.append((time.monotonic(), time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _inside(self, t_from: float, t_to: float) -> list[float]:
        return [d for t, d in self.samples if t_from <= t <= t_to] or [d for _, d in self.samples]

    def factor(self, t_from: float, t_to: float) -> float:
        """Reference probe time over the mean probe time in [t_from, t_to]."""
        inside = self._inside(t_from, t_to)
        return REFERENCE_PROBE_S / statistics.fmean(inside) if inside else 1.0

    def scaled(self, t_from: float, t_to: float) -> float:
        """Wall time of [t_from, t_to] without probe time, at reference speed."""
        return (t_to - t_from - sum(self._inside(t_from, t_to))) * self.factor(t_from, t_to)


def main() -> int:
    name, seed, mode, launched = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    probe = SpeedProbe()
    probe.start()
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import motivic_stems
    except ImportError as exc:
        print(f"error: cannot import motivic_stems from {src}: {exc}", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - t0
    if not os.path.abspath(motivic_stems.__file__).startswith(src + os.sep):
        print(f"error: motivic_stems was imported from {motivic_stems.__file__}, not {src}", file=sys.stderr)
        return 3

    import workloads

    setup, run, check = workloads.WORKLOADS[name]
    ctx = setup(seed)
    setup_end = time.monotonic()
    if mode == "setup":
        probe.stop()
        print(json.dumps({"setup_s": probe.scaled(launched, setup_end), "setup_wall_s": setup_end - launched}))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    pass_start = time.monotonic()
    try:
        out = run(ctx)
    finally:
        pass_end = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # layer times and rates are put on the same reference speed as pass_s
        replay_start = time.monotonic()
        layer = tracer.metrics()
        replay_end = time.monotonic()
        pass_factor, replay_factor = probe.factor(pass_start, pass_end), probe.factor(replay_start, replay_end)
        layer = {
            k: v / replay_factor if k.endswith("_per_s") else v * pass_factor if k.endswith("_s") else v
            for k, v in layer.items()
        }
        layer["cli.import_s"] = import_s * probe.factor(launched, setup_end)
    probe.stop()

    checks = []
    try:
        checks = [list(c) for c in check(ctx, out)]
    except Exception as exc:  # a broken check is a failed check, not a stopped run
        checks = [["checks_raised", False, f"{type(exc).__name__}: {exc}"]]

    result = {
        "setup_s": probe.scaled(launched, setup_end),
        "pass_s": probe.scaled(pass_start, pass_end),
        "setup_wall_s": setup_end - launched,
        "pass_wall_s": pass_end - pass_start,
        "peak_rss_mib": rss_mib,
        "checks": checks,
    }
    if tracer is not None:
        layer["spectral.valid_with_truncated_fibre"] = (
            workloads.valid_with_truncated_fibre(ctx, out) if name == "einfty_wide" else 0
        )
        result["layer"] = layer
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
