"""The benchmark's engine workloads, run in-process with its tracer installed.

``bench/run.py`` runs these in fresh interpreters; here one traced pass of
each engine workload checks that the tracer still reads the engine's results
(``enumerate_basis``'s through ``values()`` and ``len``, ``run_to_einfty``'s
through ``status.values()``) and that every output check of the workload
passes. The GF(2) elimination work is pinned too, so that a faster engine
pass cannot come from less elimination.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
# the traced gf2.rref calls and the rows they take, per workload
GF2_WORK = {"einfty_builtin": (0, 0), "einfty_wide": (180, 8_640)}


@pytest.mark.parametrize(
    "workload, tridegrees, monomials, valid",
    [("einfty_builtin", 21_658, 21_658, 17_966), ("einfty_wide", 420, 25_920, 150)],
)
def test_a_traced_engine_pass_passes_its_checks(monkeypatch, workload, tridegrees, monomials, valid):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer
    import workloads

    setup, run, check = workloads.WORKLOADS[workload]
    ctx = setup(1)
    traced = tracer.Tracer()
    traced.install()
    try:
        out = run(ctx)
    finally:
        traced.uninstall()
    layer = traced.metrics()
    failed = [(name, detail) for name, ok, detail in check(ctx, out) if not ok]
    assert failed == []
    assert layer["algebra.tridegrees"] == tridegrees
    assert layer["algebra.monomials"] == monomials
    assert layer["spectral.valid_tridegrees"] == valid
    assert (layer["gf2.rref_calls"], layer["gf2.rows_in"]) == GF2_WORK[workload]
