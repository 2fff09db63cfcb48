"""Command line interface.

Machine-readable `key=value` output on stdout, prose behind --pretty, errors
on stderr. Exit codes: 0 on success, 1 when a file cannot be read, data fails
validation or a verification check fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
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
from .render import MOTIVIC_SCALE, motivic_chart_style
from .resources import DATA_ENV_VAR
from .spectral import localized_motivic_anss
from . import verify as verify_mod

MAX_EINFTY_MONOMIALS = 2_000_000  # above the 1,229,410 of the engine at k=8
MAX_CHART_CELLS = 1_000_000  # the CLI refuses a larger window before it builds anything; the library takes any

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


def _parse_window4(text: str, parser: argparse.ArgumentParser) -> tuple[int, int, int, int]:
    parts = text.split(":")
    if len(parts) != 4:
        parser.error(f"--window expects smin:smax:wmin:wmax, got {text!r}")
    try:
        s_min, s_max, w_min, w_max = (int(p) for p in parts)
    except ValueError:
        parser.error(f"--window has a non-integer bound in {text!r}")
    if (cells := max(0, s_max - s_min + 1) * max(0, w_max - w_min + 1)) > MAX_CHART_CELLS:
        parser.error(f"--window holds {cells:,} cells, more than the limit of {MAX_CHART_CELLS:,}")
    return s_min, s_max, w_min, w_max


def _parse_exponent_window(text: str, parser: argparse.ArgumentParser) -> dict[str, tuple[int, int]]:
    bounds: dict[str, tuple[int, int]] = {}
    for piece in text.split(","):
        name, _, span = piece.partition("=")
        lo_text, _, hi_text = span.partition(":")
        if name.strip() in bounds:
            parser.error(f"--einfty-window gives {name.strip()!r} twice")
        try:
            bounds[name.strip()] = (int(lo_text), int(hi_text))
        except ValueError:
            parser.error(f"--einfty-window expects name=lo:hi[,...] with integer bounds, got {piece!r}")
    presentation = localized_motivic_anss()[0]
    try:
        effective = Window.from_dict(presentation, bounds).effective_bounds(presentation)
    except PresentationError as exc:
        parser.error(f"--einfty-window: {exc}")
    if (n := math.prod(hi - lo + 1 for lo, hi in effective)) > MAX_EINFTY_MONOMIALS:
        parser.error(f"--einfty-window holds {n:,} monomials, more than the limit of {MAX_EINFTY_MONOMIALS:,}")
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="region of a bidegree (s, w)")
    p.add_argument("s", type=int)
    p.add_argument("w", type=int)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("group", help="resolved group value at (s, w)")
    p.add_argument("s", type=int)
    p.add_argument("w", type=int)
    p.add_argument("--stems", default="sample", help="stems table file, or 'sample'")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("ctau", help="homotopy of the cofiber of tau at (s, w)")
    p.add_argument("s", type=int)
    p.add_argument("w", type=int)
    p.add_argument("--chart", default="sample", help="classical chart file, or 'sample'")
    p.set_defaults(func=_cmd_ctau)

    p = sub.add_parser("localize", help="eta-localize the classes of a chart")
    p.add_argument("--chart", default="sample")
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

    pc = chart_sub.add_parser("regions", help="SVG of the four-region picture")
    pc.add_argument("--window", default=None, help="smin:smax:wmin:wmax; ChartStyle's window when omitted")
    pc.add_argument("--scale", type=int, default=ChartStyle.scale)
    pc.add_argument("--dots", action="store_true", help="mark each lattice point with its group")
    family_names = [f.name for f in builtin_families()]
    pc.add_argument("--overlay", action="append", default=[], choices=family_names, help="family name; repeatable")
    pc.add_argument("--stems", default="sample")
    pc.add_argument("-o", "--output", default=None, help="output file; stdout when omitted")
    pc.set_defaults(func=_cmd_chart_regions)

    pc = chart_sub.add_parser("groups", help="TSV of resolved groups over a window")
    pc.add_argument("--window", default=None, help="smin:smax:wmin:wmax; the golden file's window when omitted")
    pc.add_argument("--stems", default="sample")
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=_cmd_chart_groups)

    pc = chart_sub.add_parser("motivic", help="SVG of the motivic lift of a chart")
    pc.add_argument("--chart", default="sample")
    pc.add_argument("--window", default=None, help="smin:smax:fmin:fmax")
    pc.add_argument("--scale", type=int, default=MOTIVIC_SCALE)
    pc.add_argument("-o", "--output", default=None)
    pc.set_defaults(func=_cmd_chart_motivic)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help=f"subset of {', '.join(verify_mod.SUITES)}; all when omitted")
    p.add_argument("--table", action="store_true", help="with einfty: per-tridegree comparison table")
    p.add_argument("--einfty-window", default=None, help="override, e.g. tau=0:8,alpha1=-12:12,alpha3=0:6,alpha4=0:1")
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_classify(args, parser: argparse.ArgumentParser) -> int:
    label = classify(args.s, args.w)
    print(f"region={label}")
    if args.pretty:
        print(f"pi_{{{args.s},{args.w}}}: {REGION_PROSE[str(label)]}")
    return 0


def _cmd_group(args, parser: argparse.ArgumentParser) -> int:
    table = _load_stems(args.stems)
    value = resolve_group(args.s, args.w, table)
    print(f"group={value.group_str} generator={value.generator_str}")
    if args.pretty:
        print(f"region={value.region}; {REGION_PROSE[str(value.region)]}")
    return 0


def _cmd_ctau(args, parser: argparse.ArgumentParser) -> int:
    chart = _load_chart(args.chart)
    print(f"group={ctau_homotopy(chart, args.s, args.w)}")
    return 0


def _cmd_localize(args, parser: argparse.ArgumentParser) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        parser.error(f"--max-steps must be >= 0, got {args.max_steps}")
    chart = _load_chart(args.chart)
    results = eta_localize_chart(chart, max_steps=args.max_steps)
    if args.name and args.name not in results:
        raise ChartError(f"no class named {args.name!r} in the chart")
    shown = [results[args.name]] if args.name else results.values()
    for r in shown:  # chart classes, and so the results, are in (s, f, name) order
        target = r.value.name if r.value is not None else "0"
        print(f"{r.cls.name} ({r.cls.s},{r.cls.f}): {r.status} -> {target} steps={r.steps}")
    return 0


def _cmd_ingest(args, parser: argparse.ArgumentParser) -> int:
    if args.kind == "chart":
        chart = _load_chart(args.path)
        print(
            f"ok: {len(chart.classes)} classes, s_max={chart.s_max}, "
            f"provenance={chart.provenance or '(none)'}"
        )
        if args.canonical:
            sys.stdout.write(serialize_chart(chart))
    else:
        table = _load_stems(args.path)
        stems = f"stems 0..{table.s_max}" if table.groups else "no stems"
        print(f"ok: {stems}, provenance={table.provenance or '(none)'}")
        if args.canonical:
            sys.stdout.write(serialize_stems(table))
    return 0


def _cmd_families_list(args, parser: argparse.ArgumentParser) -> int:
    for fam in builtin_families():
        print(f"{fam.name}: base={fam.base} period={fam.period} annihilated_by={fam.annihilated_by}")
        if fam.period.s != 0:
            slope, intercept = family_line(fam.name)
            print(f"  line: w = {slope}*s + {intercept}")
        print(f"  {fam.note}")
    print()
    print(sharpness_report(load_sample_stems()))
    return 0


def _cmd_may_census(args, parser: argparse.ArgumentParser) -> int:
    for g in may_e1_generators(args.max_stem):
        print(f"{g.name} stem={g.stem} weight={g.weight}")
    return 0


def _cmd_chart_regions(args, parser: argparse.ArgumentParser) -> int:
    style = ChartStyle(
        *(() if args.window is None else _parse_window4(args.window, parser)),
        scale=args.scale,
        group_dots=args.dots,
        family_overlays=tuple(args.overlay),
    )
    table = _load_stems(args.stems) if args.dots else None
    _emit(region_chart_svg(style, stems_table=table), args.output)
    return 0


def _cmd_chart_groups(args, parser: argparse.ArgumentParser) -> int:
    bounds = verify_mod.GOLDEN_GROUPS_WINDOW if args.window is None else _parse_window4(args.window, parser)
    window = bidegree_window(*bounds)
    table = _load_stems(args.stems)
    _emit(groups_tsv(window, stems_table=table), args.output)
    return 0


def _cmd_chart_motivic(args, parser: argparse.ArgumentParser) -> int:
    style = None if args.window is None else ChartStyle(*_parse_window4(args.window, parser), scale=args.scale)
    chart = _load_chart(args.chart)
    if style is None and (n := max(0, chart.s_max + 2)) ** 2 > MAX_CHART_CELLS:  # s and f in 0..s_max+1
        parser.error(f"default window 0..{n - 1} holds {n * n:,} cells, more than the limit of {MAX_CHART_CELLS:,}")
    lift = lift_to_motivic(chart)
    _emit(motivic_chart_svg(lift, style or motivic_chart_style(lift, args.scale)), args.output)
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    window_bounds = _parse_exponent_window(args.einfty_window, parser) if args.einfty_window else None
    names = args.suites or list(verify_mod.SUITES)
    unknown = [n for n in names if n not in verify_mod.SUITES]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}; available: {', '.join(verify_mod.SUITES)}")
    flag = "--table" if args.table else "--einfty-window" if args.einfty_window else None
    if flag and "einfty" not in names:
        parser.error(f"{flag} needs the einfty suite")
    results = []  # (suite key, check result)
    for name in names:
        if name == "einfty":
            table = [] if args.table else None
            checks = verify_mod.check_einfty(window_bounds, table=table)
            for line in table or ():
                print(line)
        else:
            checks = verify_mod.SUITES[name]()
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
        return args.func(args, parser)
    except RenderError as exc:  # every render argument comes from the command line
        parser.error(str(exc))
    except (ChartError, FamilyError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
