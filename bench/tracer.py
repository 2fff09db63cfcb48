"""Spans and counts around the package's public functions, from outside.

``Tracer.install`` replaces each listed function in every ``motivic_stems``
module namespace that holds it (and in ``verify.SUITES``), and each listed
method on its class; ``uninstall`` puts the originals back. Three kinds of
wrapper:

* span: records ``(name, start, end, parent index)`` in memory. A layer's
  self time is the duration of its spans minus the time their child spans
  cover; calls that are only counted stay in the self time of the span
  around them.
* count: increments a counter. Used for functions called hundreds of
  thousands of times, where a span per call would swamp the run.
* replay: a count that also keeps up to ``REPLAY_CALLS`` argument tuples,
  spread over the pass. After uninstalling, ``metrics`` replays them against
  the original function and reports calls per second without wrapper cost.

The layer of a name is the part before the first dot.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from motivic_stems import algebra, charts, cli, gf2, regions, render, spectral, verify

REPLAY_CALLS = 200_000

# layers with a self_s metric; algebra and regions have only counted calls,
# whose time stays in the self time of the span around them
SELF_TIME_LAYERS = ("spectral", "gf2", "charts", "render", "verify", "cli")

SPANS = {
    "algebra.enumerate_basis": (algebra, "enumerate_basis"),
    "spectral.initial_page": (spectral, "initial_page"),
    "spectral.turn_page": (spectral, "turn_page"),
    "spectral.run_to_einfty": (spectral, "run_to_einfty"),
    "gf2.kernel_and_image": (gf2, "kernel_and_image"),
    "gf2.quotient_representatives": (gf2, "quotient_representatives"),
    "charts.parse_chart": (charts, "parse_chart"),
    "charts.parse_stems": (charts, "parse_stems"),
    "charts.serialize_chart": (charts, "serialize_chart"),
    "charts.lift_to_motivic": (charts, "lift_to_motivic"),
    "charts.eta_localize_chart": (charts, "eta_localize_chart"),
    "render.region_chart_svg": (render, "region_chart_svg"),
    "render.motivic_chart_svg": (render, "motivic_chart_svg"),
    "render.groups_tsv": (render, "groups_tsv"),
    "cli.main": (cli, "main"),
    **{f"verify.{suite}": (verify, fn.__name__) for suite, fn in verify.SUITES.items()},
}
COUNTS = {
    "spectral.leibniz_extend": (spectral, "leibniz_extend"),
    "gf2.rref": (gf2, "rref"),
}
METHOD_COUNTS = {
    "algebra.validate_monomial": (algebra.MonomialAlgebraPresentation, "validate_monomial"),
    "algebra.multiply": (algebra.MonomialAlgebraPresentation, "multiply"),
    "algebra.window_contains": (algebra.Window, "contains"),
}
REPLAYS = {
    "regions.classify": (regions, "classify"),
    "regions.resolve_group": (regions, "resolve_group"),
    "charts.ctau": (charts, "ctau_homotopy"),
}


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "motivic_stems" or n.startswith("motivic_stems.")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.replay_args: dict[str, list[tuple]] = defaultdict(list)
        self._open: list[int] = []
        self._covered: list[float] = []
        self._self: Counter = Counter()
        self._total: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # --- wrappers -----------------------------------------------------

    def _span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, opened, covered = self.spans, self._open, self._covered
        on_result = getattr(self, "_on_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = opened[-1] if opened else -1
            opened.append(len(spans))
            spans.append(None)
            covered.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                index = opened.pop()
                spans[index] = (name, start, end, parent)
                duration = end - start
                self._self[layer] += duration - covered.pop()
                self._total[name] += duration
                if covered:
                    covered[-1] += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        if name == "gf2.rref":

            @functools.wraps(fn)
            def wrapper(rows):
                counts[name] += 1
                counts["gf2.rows_in"] += len(rows)
                return fn(rows)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replay(self, name: str, fn):
        # keeps every stride-th call and doubles the stride when full, so the
        # kept calls spread over the whole pass, not only its first part
        counts, kept, stride = self.counts, self.replay_args[name], [1]

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            result = fn(*args)  # calls that raise are counted, not replayed
            if counts[name] % stride[0] == 0:
                kept.append(args)
                if len(kept) == REPLAY_CALLS:
                    del kept[1::2]
                    stride[0] *= 2
            return result

        return wrapper

    # --- result hooks ---------------------------------------------------

    def _on_enumerate_basis(self, args, basis) -> None:
        self.counts["algebra.monomials"] += sum(len(v) for v in basis.values())
        self.counts["algebra.tridegrees"] += len(basis)
        self.counts["algebra.max_fibre_dim"] = max(
            self.counts["algebra.max_fibre_dim"], max((len(v) for v in basis.values()), default=0)
        )

    def _on_run_to_einfty(self, args, state) -> None:
        self.counts["spectral.valid_tridegrees"] += sum(
            1 for s in state.status.values() if s is spectral.Certainty.VALID
        )

    def _on_parse_chart(self, args, chart) -> None:
        self.counts["charts.classes"] += len(chart.classes)

    def _on_region_chart_svg(self, args, svg) -> None:
        style = args[0] if args and args[0] is not None else render.ChartStyle()
        self.counts["render.cells"] += (style.s_max - style.s_min + 1) * (style.w_max - style.w_min + 1)
        self.counts["render.bytes_out"] += len(svg)

    def _on_groups_tsv(self, args, tsv) -> None:
        self.counts["render.cells"] += tsv.count("\n") - 1
        self.counts["render.bytes_out"] += len(tsv)

    def _on_motivic_chart_svg(self, args, svg) -> None:
        self.counts["render.bytes_out"] += len(svg)

    # --- install ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for suite, fn in verify.SUITES.items():
            if fn is original:
                self._restore.append((verify.SUITES, suite, original))
                verify.SUITES[suite] = wrapper

    def install(self) -> None:
        for kind, table in ((self._span, SPANS), (self._count, COUNTS), (self._replay, REPLAYS)):
            for name, (owner, attr) in table.items():
                original = getattr(owner, attr)
                self._originals[name] = original
                self._replace(original, kind(name, original))
        for name, (cls, attr) in METHOD_COUNTS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._count(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # --- results ------------------------------------------------------

    def _per_second(self, name: str) -> float:
        fn, kept = self._originals[name], self.replay_args[name]
        if not kept:
            return 0.0
        start = time.perf_counter()
        for args in kept:
            fn(*args)
        return len(kept) / (time.perf_counter() - start)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass; call after ``uninstall``."""
        c, total = self.counts, self._total
        out = {
            "algebra.enumerate_basis_s": total["algebra.enumerate_basis"],
            "algebra.monomials": c["algebra.monomials"],
            "algebra.tridegrees": c["algebra.tridegrees"],
            "algebra.max_fibre_dim": c["algebra.max_fibre_dim"],
            "algebra.validate_monomial_calls": c["algebra.validate_monomial"],
            "algebra.multiply_calls": c["algebra.multiply"],
            "algebra.window_contains_calls": c["algebra.window_contains"],
            "spectral.initial_page_s": total["spectral.initial_page"],
            "spectral.turn_page_s": total["spectral.turn_page"],
            "spectral.leibniz_extend_calls": c["spectral.leibniz_extend"],
            "spectral.valid_tridegrees": c["spectral.valid_tridegrees"],
            "gf2.kernel_and_image_s": total["gf2.kernel_and_image"],
            "gf2.quotient_representatives_s": total["gf2.quotient_representatives"],
            "gf2.rref_calls": c["gf2.rref"],
            "gf2.rows_in": c["gf2.rows_in"],
            "regions.classify_calls": c["regions.classify"],
            "regions.resolve_group_calls": c["regions.resolve_group"],
            "regions.classify_per_s": self._per_second("regions.classify"),
            "regions.resolve_group_per_s": self._per_second("regions.resolve_group"),
            "charts.parse_chart_s": total["charts.parse_chart"],
            "charts.serialize_chart_s": total["charts.serialize_chart"],
            "charts.ctau_queries_per_s": self._per_second("charts.ctau"),
            "charts.eta_localize_s": total["charts.eta_localize_chart"],
            "charts.classes": c["charts.classes"],
            "render.region_chart_svg_s": total["render.region_chart_svg"],
            "render.motivic_chart_svg_s": total["render.motivic_chart_svg"],
            "render.groups_tsv_s": total["render.groups_tsv"],
            "render.cells": c["render.cells"],
            "render.bytes_out": c["render.bytes_out"],
        }
        for suite in verify.SUITES:
            out[f"verify.{suite}_s"] = total[f"verify.{suite}"]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self._self[layer]
        return out
