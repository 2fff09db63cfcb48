"""Command line interface.

Machine-readable `key=value` output on stdout, prose behind --pretty, errors
on stderr. A command raises on a bad input, and `main` alone turns the outcome
into the exit code: 0 on success, 1 when a file cannot be read, data fails
validation or a verification check fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from argparse import ArgumentTypeError
from pathlib import Path

from .algebra import PresentationError, Window
from .charts import (
    ChartError,
    ctau_homotopy,
    eta_localize_chart,
    lift_to_motivic,
    load_sample_chart,
    load_sample_stems,
    parse_chart,
    parse_stems,
    serialize_chart,
    serialize_stems,
)
from .families import (
    FamilyError,
    builtin_families,
    family_line,
    may_e1_generators,
    sharpness_report,
)
from .regions import classify, resolve_group
from .render import ChartStyle, RenderError, bidegree_window, groups_tsv, motivic_chart_svg, region_chart_svg
from .render import MOTIVIC_SCALE, REGION_SCALE, motivic_chart_style
from .resources import DATA_ENV_VAR
from .spectral import localized_motivic_anss
from . import families, verify as verify_mod

MAX_EINFTY_MONOMIALS = 2_000_000  # above the 1,229,410 of the engine at k=8
MAX_CHART_CELLS = 1_000_000  # the CLI refuses a larger window before it builds anything; the library takes any
MAX_CENSUS_LINES = 100_000  # likewise for may-census, which sorts every line first: 1.2 s and 80 MiB at the cap

REGION_PROSE = {
    "Zero": "the group vanishes (negative stem or weight above the stem)",
    "TauLocal": "multiplication by tau is invertible; the group is the classical 2-complete stem",
    "EtaLocal": "multiplication by eta is invertible; the group is read off a three-generator ring",
    "NotUnderstood": "between the local regions; no general answer is known",
}


def _load_chart(path: str):
    if path == "sample":
        return load_sample_chart()
    return parse_chart(Path(path).read_text(encoding="utf-8"))


def _load_stems(path: str):
    if path == "sample":
        return load_sample_stems()
    return parse_stems(Path(path).read_text(encoding="utf-8"))


def _parse_window4(text: str, form: str = "smin:smax:wmin:wmax") -> tuple[int, int, int, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ArgumentTypeError(f"--window expects {form}, got {text!r}")
    try:
        s_min, s_max, w_min, w_max = (int(p) for p in parts)
    except ValueError:
        raise ArgumentTypeError(f"--window has a non-integer bound in {text!r}") from None
    if (cells := max(0, s_max - s_min + 1) * max(0, w_max - w_min + 1)) > MAX_CHART_CELLS:
        raise ArgumentTypeError(f"--window holds {cells:,} cells, more than the limit of {MAX_CHART_CELLS:,}")
    return s_min, s_max, w_min, w_max


def _parse_exponent_window(text: str) -> dict[str, tuple[int, int]]:
    bounds: dict[str, tuple[int, int]] = {}
    for piece in text.split(","):
        name, _, span = piece.partition("=")
        lo_text, _, hi_text = span.partition(":")
        if name.strip() in bounds:
            raise ArgumentTypeError(f"--einfty-window gives {name.strip()!r} twice")
        try:
            bounds[name.strip()] = (int(lo_text), int(hi_text))
        except ValueError:
            raise ArgumentTypeError(f"--einfty-window expects name=lo:hi[,...] with integer bounds, got {piece!r}") from None
    presentation = localized_motivic_anss()[0]
    try:
        effective = Window.from_dict(presentation, bounds).effective_bounds(presentation)
    except PresentationError as exc:
        raise ArgumentTypeError(f"--einfty-window: {exc}") from None
    if (n := math.prod(hi - lo + 1 for lo, hi in effective)) > MAX_EINFTY_MONOMIALS:
        raise ArgumentTypeError(f"--einfty-window holds {n:,} monomials, more than the limit of {MAX_EINFTY_MONOMIALS:,}")
    return bounds


_WRITE_CHUNK = 1 << 20  # characters per write


def _emit(text: str, output: str | None) -> None:
    # a slice at a time: one write of the whole text would hold a second, encoded copy of it
    to_file = output and output != "-"
    with open(output, "w", encoding="utf-8") if to_file else contextlib.nullcontext(sys.stdout) as out:
        for i in range(0, len(text), _WRITE_CHUNK):
            out.write(text[i : i + _WRITE_CHUNK])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivic-stems",
        description="Region structure and group values of the motivic stable stems over C.",
        epilog=f"Chart and stems paths accept the literal 'sample' for the bundled data; "
        f"set {DATA_ENV_VAR} to point at a different data directory.",
    )
    # the arguments that several subcommands share, each declared once on a parent parser
    bidegree, stems, chart, output = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    bidegree.add_argument("s", type=int)
    bidegree.add_argument("w", type=int)
    stems.add_argument("--stems", default="sample", help="stems table file, or 'sample'")
    chart.add_argument("--chart", default="sample", help="classical chart file, or 'sample'")
    output.add_argument("-o", "--output", default=None, help="output file; stdout when omitted")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[bidegree], help="region of a bidegree (s, w)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("group", parents=[bidegree, stems], help="resolved group value at (s, w)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("ctau", parents=[bidegree, chart], help="homotopy of the cofiber of tau at (s, w)")
    p.set_defaults(func=_cmd_ctau)

    p = sub.add_parser("localize", parents=[chart], help="eta-localize the classes of a chart")
    p.add_argument("--name", help="restrict to one class")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("ingest", help="parse and validate a chart or stems file")
    p.add_argument("path")
    p.add_argument("--kind", choices=("chart", "stems"), default="chart")
    p.add_argument("--canonical", action="store_true", help="print the canonical serialization")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("families", help="named element families")
    fam_sub = p.add_subparsers(dest="families_command", required=True)
    p = fam_sub.add_parser("list", help="bases, periods, and lines of the built-in families")
    p.set_defaults(func=_cmd_families_list)

    p = sub.add_parser("may-census", help="May E1 generators up to a stem bound")
    p.add_argument("max_stem", type=int)
    p.set_defaults(func=_cmd_may_census)

    p = sub.add_parser("chart", help="render charts")
    chart_sub = p.add_subparsers(dest="chart_command", required=True)

    pc = chart_sub.add_parser("regions", parents=[stems, output], help="SVG of the four-region picture")
    pc.add_argument("--window", default=None, help="smin:smax:wmin:wmax; ChartStyle's window when omitted")
    pc.add_argument("--scale", type=int, default=REGION_SCALE)
    pc.add_argument("--dots", action="store_true", help="mark each lattice point with its group")
    family_names = [f.name for f in builtin_families()]
    pc.add_argument("--overlay", action="append", default=[], choices=family_names, help="family name; repeatable")
    pc.set_defaults(func=_cmd_chart_regions)

    pc = chart_sub.add_parser("groups", parents=[stems, output], help="TSV of resolved groups over a window")
    pc.add_argument("--window", default=None, help="smin:smax:wmin:wmax; the golden file's window when omitted")
    pc.set_defaults(func=_cmd_chart_groups)

    pc = chart_sub.add_parser("motivic", parents=[chart, output], help="SVG of the motivic lift of a chart")
    pc.add_argument("--window", default=None, help="smin:smax:fmin:fmax")
    pc.add_argument("--scale", type=int, default=MOTIVIC_SCALE)
    pc.set_defaults(func=_cmd_chart_motivic)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help=f"subset of {', '.join(verify_mod.SUITES)}; all when omitted")
    p.add_argument("--table", action="store_true", help="with einfty: per-tridegree comparison table")
    example = ",".join(f"{name}={lo}:{hi}" for name, (lo, hi) in verify_mod.EINFTY_WINDOW.items())
    p.add_argument("--einfty-window", default=None, help=f"override, e.g. {example}")
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_classify(args) -> None:
    label = classify(args.s, args.w)
    print(f"region={label}")
    if args.pretty:
        print(f"pi_{{{args.s},{args.w}}}: {REGION_PROSE[str(label)]}")


def _cmd_group(args) -> None:
    table = _load_stems(args.stems)
    value = resolve_group(args.s, args.w, table)
    print(f"group={value.group_str} generator={value.generator_str}")
    if args.pretty:
        print(f"region={value.region}; {REGION_PROSE[str(value.region)]}")


def _cmd_ctau(args) -> None:
    chart = _load_chart(args.chart)
    print(f"group={ctau_homotopy(chart, args.s, args.w)}")


def _cmd_localize(args) -> None:
    if args.max_steps is not None and args.max_steps < 0:
        raise ArgumentTypeError(f"--max-steps must be >= 0, got {args.max_steps}")
    chart = _load_chart(args.chart)
    results = eta_localize_chart(chart, max_steps=args.max_steps)
    if args.name and args.name not in results:
        raise ChartError(f"no class named {args.name!r} in the chart")
    shown = [results[args.name]] if args.name else results.values()
    for r in shown:  # chart classes, and so the results, are in (s, f, name) order
        target = r.value.name if r.value is not None else "0"
        print(f"{r.cls.name} ({r.cls.s},{r.cls.f}): {r.status} -> {target} steps={r.steps}")


def _cmd_ingest(args) -> None:
    if args.kind == "chart":
        chart = _load_chart(args.path)
        print(
            f"ok: {len(chart.classes)} classes, s_max={chart.s_max}, "
            f"provenance={chart.provenance or '(none)'}"
        )
        if args.canonical:
            _emit(serialize_chart(chart), None)
    else:
        table = _load_stems(args.path)
        stems = f"stems 0..{table.s_max}" if table.groups else "no stems"
        print(f"ok: {stems}, provenance={table.provenance or '(none)'}")
        if args.canonical:
            _emit(serialize_stems(table), None)


def _cmd_families_list(args) -> None:
    for fam in builtin_families():
        print(f"{fam.name}: base={fam.base} period={fam.period} annihilated_by={fam.annihilated_by}")
        if fam.period.s != 0:
            slope, intercept = family_line(fam.name)
            print(f"  line: w = {slope}*s + {intercept}")
        print(f"  {fam.note}")
    print()
    print(sharpness_report(load_sample_stems()))


def _cmd_may_census(args) -> None:
    if (lines := sum(families.may_e1_counts(args.max_stem))) > MAX_CENSUS_LINES:
        raise ArgumentTypeError(f"the census holds {lines:,} generators, more than the limit of {MAX_CENSUS_LINES:,}")
    for g in may_e1_generators(args.max_stem):
        print(f"{g.name} stem={g.stem} weight={g.weight}")


def _cmd_chart_regions(args) -> None:
    style = ChartStyle(
        *(() if args.window is None else _parse_window4(args.window)),
        scale=args.scale,
        group_dots=args.dots,
        family_overlays=tuple(dict.fromkeys(args.overlay)),
    )
    _emit(region_chart_svg(style, stems_table=_load_stems(args.stems)), args.output)


def _cmd_chart_groups(args) -> None:
    bounds = verify_mod.GOLDEN_GROUPS_WINDOW if args.window is None else _parse_window4(args.window)
    window = bidegree_window(*bounds)
    table = _load_stems(args.stems)
    _emit(groups_tsv(window, stems_table=table), args.output)


def _cmd_chart_motivic(args) -> None:
    style = None if args.window is None else ChartStyle(*_parse_window4(args.window, "smin:smax:fmin:fmax"), scale=args.scale)
    chart = _load_chart(args.chart)
    if style is None and (n := max(0, chart.s_max + 2)) ** 2 > MAX_CHART_CELLS:  # s and f in 0..s_max+1
        raise ArgumentTypeError(f"default window 0..{n - 1} holds {n * n:,} cells, more than the limit of {MAX_CHART_CELLS:,}")
    lift = lift_to_motivic(chart)
    _emit(motivic_chart_svg(lift, style or motivic_chart_style(lift, args.scale)), args.output)


def _run_suite(name: str, window_bounds: dict | None, table: bool) -> tuple[list, list[str]]:
    # module level, so that a forked worker can run it; the caller prints what it returns
    if name != "einfty":
        return verify_mod.SUITES[name](), []
    lines: list[str] = []
    return verify_mod.check_einfty(window_bounds, table=lines if table else None), lines


def _cmd_verify(args) -> int:
    window_bounds = _parse_exponent_window(args.einfty_window) if args.einfty_window else None
    names = list(dict.fromkeys(args.suites)) or list(verify_mod.SUITES)
    unknown = [n for n in names if n not in verify_mod.SUITES]
    if unknown:
        raise ArgumentTypeError(f"unknown suites: {', '.join(unknown)}; available: {', '.join(verify_mod.SUITES)}")
    flag = "--table" if args.table else "--einfty-window" if args.einfty_window else None
    if flag and "einfty" not in names:
        raise ArgumentTypeError(f"{flag} needs the einfty suite")
    suite_args = (names, [window_bounds] * len(names), [args.table] * len(names))
    # suites are independent, so on Linux more than one runs in forked workers, one per usable CPU
    workers = min(len(names), len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    if workers > 1:
        # imported only here: at the top of the module they would add about 25 ms to every start of the CLI
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        map_suites = pool.map
    else:
        pool, map_suites = contextlib.nullcontext(), map
    results = []  # (suite key, check result)
    with pool:  # the pool's exit waits for its workers, so none outlives the command
        for name, (checks, table_lines) in zip(names, map_suites(_run_suite, *suite_args)):
            for line in table_lines:
                print(line)
            results.extend((name, r) for r in checks)
    for suite, r in results:
        tail = f": {r.detail}" if r.detail else ""
        print(f"{'PASS' if r.passed else 'FAIL'} {suite}.{r.name}{tail}")
    passed = sum(1 for _, r in results if r.passed)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except (ArgumentTypeError, RenderError) as exc:  # usage errors: every render argument comes from the command line
        parser.error(str(exc))
    except (ChartError, FamilyError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
