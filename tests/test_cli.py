"""End-to-end command line behavior: output formats and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems import cli, verify
from motivic_stems.charts import lift_to_motivic, load_sample_chart, load_sample_stems
from motivic_stems.cli import main
from motivic_stems.render import ChartStyle, bidegree_window, groups_tsv, motivic_chart_svg, region_chart_svg
from motivic_stems.resources import DATA_ENV_VAR, SAMPLE_CHART_FILE, SAMPLE_STEMS_FILE, data_path, read_data_text
from motivic_stems.spectral import run_to_einfty


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "10", "8")
    assert code == 0
    assert out == "region=EtaLocal\n"


def test_classify_pretty(capsys):
    code, out, _ = run(capsys, "classify", "20", "13", "--pretty")
    assert code == 0
    assert out.splitlines()[0] == "region=NotUnderstood"
    assert "no general answer is known" in out


def test_group(capsys):
    code, out, _ = run(capsys, "group", "0", "-4")
    assert (code, out) == (0, "group=Z2 generator=tau^4\n")
    code, out, _ = run(capsys, "group", "3", "1")
    assert (code, out) == (0, "group=Z/8 generator=-\n")
    code, out, _ = run(capsys, "group", "16", "13", "--pretty")
    assert code == 0
    assert out.splitlines()[0] == "group=Z/2 generator=eta^9*sigma"
    assert "region=EtaLocal" in out


def test_ctau(capsys):
    assert run(capsys, "ctau", "3", "2")[:2] == (0, "group=Z/4\n")
    assert run(capsys, "ctau", "5", "2")[:2] == (0, "group=0\n")
    code, _, err = run(capsys, "ctau", "99", "50")
    assert code == 1
    assert err.startswith("error:") and "outside ingested range" in err


def test_localize_single_class(capsys):
    code, out, _ = run(capsys, "localize", "--name", "alpha2/2")
    assert code == 0
    assert out == "alpha2/2 (3,1): STABLE -> 0 steps=0\n"


def test_localize_all(capsys):
    code, out, _ = run(capsys, "localize")
    assert code == 0
    lines = out.splitlines()
    assert "1 (0,0): STABLE -> alpha1^3 steps=3" in lines
    assert len(lines) == 26


def test_localize_max_steps(capsys):
    code, out, _ = run(capsys, "localize", "--name", "1", "--max-steps", "1")
    assert code == 0
    assert out == "1 (0,0): UNRESOLVED -> 0 steps=1\n"


def test_localize_missing_name(capsys):
    code, _, err = run(capsys, "localize", "--name", "ghost")
    assert code == 1
    assert err.startswith("error:") and "ghost" in err


def test_localize_negative_max_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--max-steps", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-steps must be >= 0" in err and "Traceback" not in err


def test_ingest_sample(capsys):
    code, out, _ = run(capsys, "ingest", "sample")
    assert code == 0
    assert out.startswith("ok: 26 classes, s_max=14, provenance=")


def test_ingest_canonical_matches_bundled_file(capsys):
    code, out, _ = run(capsys, "ingest", "sample", "--canonical")
    assert code == 0
    bundled = data_path("sample_chart.txt").read_text(encoding="utf-8")
    assert out.split("\n", 1)[1] == bundled


def test_ingest_stems(capsys):
    code, out, _ = run(capsys, "ingest", "sample", "--kind", "stems", "--canonical")
    assert code == 0
    assert out.startswith("ok: stems 0..20, provenance=")
    assert out.split("\n", 1)[1] == data_path("stems.txt").read_text(encoding="utf-8")


def test_ingest_of_an_empty_stems_file_says_no_stems(capsys, tmp_path):
    empty = tmp_path / "stems.txt"
    empty.write_text("", encoding="utf-8")
    assert run(capsys, "ingest", str(empty), "--kind", "stems") == (0, "ok: no stems, provenance=(none)\n", "")
    # --canonical then writes the empty table as one empty line
    code, out, _ = run(capsys, "ingest", str(empty), "--kind", "stems", "--canonical")
    assert (code, out) == (0, "ok: no stems, provenance=(none)\n\n")


def test_ingest_corrupt_chart(capsys):
    path = data_path("fixtures/missing_unit.txt")
    code, _, err = run(capsys, "ingest", str(path))
    assert code == 1
    assert err.startswith("error:") and "exactly one class of order 0" in err


def test_invalid_charts_are_one_line_data_errors(capsys, tmp_path):
    two = tmp_path / "two_violations.txt"
    two.write_text("0 0 1 Z\n4 0 extra Z\n-1 1 neg 2\n", encoding="utf-8")
    for path in [data_path(name) for name in verify.CORRUPT_FIXTURES] + [two]:
        code, _, err = run(capsys, "ingest", str(path))
        assert code == 1, path
        assert err.startswith("error: chart violates structural invariants: "), (path, err)
        assert err.count("\n") == 1, (path, err)
    assert "negative stem; " in err and err.endswith("filtration 0 is only allowed at (0,0)\n")


def test_ingest_missing_file(capsys):
    code, _, err = run(capsys, "ingest", "/no/such/file.txt")
    assert code == 1
    assert err.startswith("error:")


def test_unreadable_files_are_data_errors(capsys, tmp_path):
    binary = tmp_path / "chart.bin"
    binary.write_bytes(b"\xff\xfe0 0 1 Z\n")
    for argv in (
        ["ingest", str(binary)],
        ["ingest", str(tmp_path)],
        ["ingest", str(binary), "--kind", "stems"],
        ["group", "3", "1", "--stems", str(binary)],
        ["ctau", "3", "2", "--chart", str(tmp_path)],
        ["chart", "groups", "--window", "0:3:0:3", "-o", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_families_list(capsys):
    code, out, _ = run(capsys, "families", "list")
    assert code == 0
    assert "Pk_h1_4: base=(4,4,4) period=(8,4,4) annihilated_by=tau" in out
    assert "line: w = 1/2*s + 2" in out
    assert "exotic:" in out


def test_families_check(capsys):
    # `verify families` is the one path to the families check
    code, out, _ = run(capsys, "verify", "families")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] and all(line.startswith("PASS families.") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_may_census(capsys):
    code, out, _ = run(capsys, "may-census", "7")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "h1,0 stem=0 weight=0"
    assert lines[-1] == "h1,3 stem=7 weight=4"
    assert len(lines) == 7


def test_chart_regions_file_matches_library(capsys, tmp_path):
    # without --window and --scale the CLI draws ChartStyle's default chart
    target = tmp_path / "regions.svg"
    code, out, _ = run(capsys, "chart", "regions", "-o", str(target))
    assert code == 0 and out == ""
    svg = target.read_text(encoding="utf-8")
    assert svg == region_chart_svg(ChartStyle())
    assert hashlib.sha256(svg.encode()).hexdigest() == "8af71cff31d1225bf44646b63a7aaee855204a659b7d76c38bc141682fa52b67"


def test_chart_output_is_written_in_slices(capsys, tmp_path, monkeypatch):
    # a render longer than one write reaches stdout and a file whole: no slice lost, repeated or reordered
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 1000)
    expected = groups_tsv(bidegree_window(-5, 20, -5, 20), stems_table=load_sample_stems())
    assert len(expected) > 10 * 1000 and len(expected) % 1000
    code, out, _ = run(capsys, "chart", "groups", "--window=-5:20:-5:20")
    assert code == 0 and out == expected
    target = tmp_path / "groups.tsv"
    code, out, _ = run(capsys, "chart", "groups", "--window=-5:20:-5:20", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "argv, name, digest",
    [
        pytest.param(
            ["chart", "regions", "--dots", "--overlay", "Pk_h1_4", "--overlay", "w1_family"],
            "regions.svg",
            "008f3f01b894087e264473bce10b3d4c39f123f9f096102737ca4c209d45abd8",
            id="regions",
        ),
        pytest.param(
            ["chart", "groups"], "groups.tsv", "c05ca868068f67a98903728f29d72b82c56bafaf8019bde4f5bd33363095bcf5", id="groups"
        ),
    ],
)
def test_default_charts_are_the_golden_files(capsys, argv, name, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == data_path(f"golden/{name}").read_text(encoding="utf-8")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_chart_regions_stdout_with_options(capsys):
    code, out, _ = run(
        capsys, "chart", "regions", "--window", "0:10:0:10", "--scale", "16", "--dots", "--overlay", "eta_powers"
    )
    assert code == 0
    ET.fromstring(out)
    assert "eta_powers" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["chart", "regions", "--window", "1:2:3"], "--window expects", id="short-window"),
        pytest.param(["chart", "groups", "--window=0:x:0:1"], "--window has a non-integer bound", id="non-integer"),
        pytest.param(
            ["chart", "regions", "--window=5:4:0:1"], "error: empty chart range: s in [5,4]", id="regions-s-reversed"
        ),
        pytest.param(
            ["chart", "groups", "--window=5:4:0:1"], "error: empty window: s in [5,4]", id="groups-s-reversed"
        ),
        pytest.param(["chart", "regions", "--scale", "0"], "error: scale must be positive, got 0", id="zero-scale"),
        pytest.param(
            ["chart", "motivic", "--scale", "0"], "error: scale must be positive, got 0", id="motivic-zero-scale"
        ),
        pytest.param(["chart", "regions", "--overlay", "nope"], "invalid choice: 'nope'", id="unknown-overlay"),
        # a usage error is reported before any file is read
        pytest.param(
            ["chart", "groups", "--window=5:4:0:1", "--stems", "/nonexistent/stems.txt"],
            "error: empty window: s in [5,4]",
            id="groups-reversed-before-stems-file",
        ),
        pytest.param(
            ["chart", "motivic", "--window=5:4:0:1", "--chart", "/nonexistent/chart.txt"],
            "error: empty chart range: s in [5,4]",
            id="motivic-reversed-before-chart-file",
        ),
    ],
)
def test_chart_regions_bad_window(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: motivic-stems")
    assert message in err and "Traceback" not in err


def test_chart_groups_stdout(capsys):
    code, out, _ = run(capsys, "chart", "groups", "--window", "0:3:0:3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# s\tw\tregion\tgroup\tgenerator"
    assert len(lines) == 1 + 16


def test_chart_motivic_default_window(capsys):
    # without --window the chart spans s and f in 0..s_max+1, which for the
    # sample chart is the golden style's window, and the library draws the same
    code, out, _ = run(capsys, "chart", "motivic")
    assert code == 0
    assert out == data_path("golden/motivic.svg").read_text(encoding="utf-8")
    assert out == motivic_chart_svg(lift_to_motivic(load_sample_chart()))
    code, out, _ = run(capsys, "chart", "motivic", "--scale", "7")
    assert code == 0  # test_render pins this window at scale 7 with the same digest
    assert hashlib.sha256(out.encode()).hexdigest() == "2fe43797f0c32482e6844f04d2f68b069a6004f9c3c6ca957184755d857e7074"


def test_chart_motivic(capsys, tmp_path):
    target = tmp_path / "motivic.svg"
    code, out, _ = run(capsys, "chart", "motivic", "--window", "0:15:0:15", "-o", str(target))
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    ET.fromstring(svg)
    assert "alpha1: w &lt;= 1" in svg


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "ctau")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ctau.") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: motivic-stems")
    assert "error: unknown suites: nope; available: einfty, leibniz," in err


def test_verify_einfty_table(capsys):
    code, out, _ = run(capsys, "verify", "einfty", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3/3 checks passed"
    assert any(line.startswith("PASS einfty.survivors_match_closed_form") for line in lines)
    assert any(" ok" in line for line in lines)


def test_verify_einfty_table_runs_the_engine_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return run_to_einfty(*args)

    monkeypatch.setattr(verify, "run_to_einfty", counting)
    code, out, _ = run(capsys, "verify", "einfty", "--table")
    assert code == 0 and out.startswith("tridegree (s,f,w) | status")
    assert len(calls) == 1


def test_verify_table_needs_the_einfty_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "partition", "--table"])
    assert exc.value.code == 2
    assert "--table needs the einfty suite" in capsys.readouterr().err


def test_verify_einfty_window_needs_the_einfty_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ctau", "--einfty-window", "tau=0:8,alpha1=-12:12,alpha3=0:6,alpha4=0:1"])
    assert exc.value.code == 2
    assert "--einfty-window needs the einfty suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "window, digest",
    [
        (None, "d7a177b8574153384e16f3cd90894d879bda24c374f21a795b0ce8c35db592c1"),
        (
            "tau=0:16,alpha1=-24:24,alpha3=0:12,alpha4=0:1",
            "b2d6cbb95877f1cafc88782cd9a459a8835e9ffee0622d55dacce1f869a9c38a",
        ),
    ],
    ids=["acceptance", "doubled"],
)
def test_verify_einfty_table_bytes_are_pinned(capsys, window, digest):
    # SHA-256 of the whole table and check lines, without the measured
    # time_budget line; pins every class, status and mark, not only PASS
    argv = ["verify", "einfty", "--table"] + (["--einfty-window", window] if window else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True) if "time_budget" not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_verify_output_bytes_are_pinned(verify_output):
    # every suite's lines, without the measured time_budget line
    code, out = verify_output
    assert code == 0
    lines = out.splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("PASS einfty.time_budget"))
    digest = "35f053e3ebe2975459da98dd8ec1d1f631f2edd3e61305d387c71223496e4c7b"
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_verify_bad_einfty_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "einfty", "--einfty-window", "xx"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bounds, message",
    [
        ("tau=0:8", "missing bounds"),
        ("tau=0:8,alpha1=-12:12,alpha3=0:6,alpha4=0:1,bogus=0:1", "unknown generators"),
        ("tau:0=8", "expects name=lo:hi"),
        ("tau=0:8,alpha1=12:-12,alpha3=0:6,alpha4=0:1", "holds no monomials"),
        ("tau=0:8,alpha1=-12:12,alpha3=0:6,alpha4=5:9", "holds no monomials"),  # square-zero caps alpha4 at 1
        ("tau=0:1,alpha1=0:0,alpha3=0:0,alpha4=0:0,alpha4=0:1", "gives 'alpha4' twice"),
    ],
)
def test_verify_einfty_window_is_checked_at_parse_time(capsys, bounds, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "einfty", "--einfty-window", bounds])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _chart_with_smax(tmp_path, s_max):
    lines = read_data_text(SAMPLE_CHART_FILE).splitlines(keepends=True)
    path = tmp_path / f"smax{s_max}.txt"
    path.write_text("".join(f"# smax: {s_max}\n" if line.startswith("# smax:") else line for line in lines), encoding="utf-8")
    return str(path)


K8_WINDOW = "tau=0:64,alpha1=-96:96,alpha3=0:48,alpha4=0:1"  # 65 * 193 * 49 * 2 = 1,229,410 monomials


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "einfty", "--einfty-window", K8_WINDOW], None),
        (["verify", "einfty", "--einfty-window", "tau=0:80,alpha1=-120:120,alpha3=0:60,alpha4=0:9"], "2,381,562 monomials"),
        (["chart", "regions", "--window=0:999:1:1000"], None),
        (["chart", "regions", "--window=0:1000:0:999"], "--window holds 1,001,000 cells"),
        (["chart", "groups", "--window=-1000000:1000000:0:1"], "--window holds 4,000,002 cells"),
        (["chart", "motivic", "--window=0:2000:0:2000"], "--window holds 4,004,001 cells"),
        (["chart", "motivic", "--chart", 998], None),
        (["chart", "motivic", "--chart", 999], "default window 0..1000 holds 1,002,001 cells"),
        (["chart", "motivic", "--chart", 10**20], "holds 10,000,000,000,000,000,000,400,000,000,000,000,000,004 cells"),
    ],
    ids=["einfty-k8", "einfty", "regions-at-cap", "regions", "groups", "motivic", "motivic-at-cap", "motivic-default", "smax-1e20"],
)
def test_a_window_past_the_cli_limit_is_refused_before_anything_is_built(capsys, monkeypatch, tmp_path, argv, message):
    # A window past the limit gives one error line and exit 2; one at the
    # limit reaches the (stubbed) renderers. chart motivic's default window,
    # 0..s_max+1 in s and f, counts s_max from the chart's "# smax:" line.
    built = []
    for name in ("region_chart_svg", "groups_tsv", "lift_to_motivic", "motivic_chart_style", "motivic_chart_svg"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: built.append(_name) or "")
    monkeypatch.setattr(cli.verify_mod, "check_einfty", lambda *args, **kwargs: built.append("check_einfty") or [])
    argv = [_chart_with_smax(tmp_path, a) if isinstance(a, int) else a for a in argv]
    if message is None:
        assert main(argv) == 0 and len(built) >= 1
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and built == []
    lines = capsys.readouterr().err.splitlines()
    assert message in lines[-1] and "limit of" in lines[-1]
    assert sum("error:" in line for line in lines) == 1


def test_data_dir_override(capsys, monkeypatch, tmp_path):
    (tmp_path / "stems.txt").write_text("2 8\n", encoding="utf-8")
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    code, out, _ = run(capsys, "group", "2", "1")
    assert (code, out) == (0, "group=Z/8 generator=-\n")
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path / "empty"))
    code, out, err = run(capsys, "group", "2", "1")
    assert (code, out, err) == (1, "", f"error: data file not found: {tmp_path / 'empty' / 'stems.txt'}\n")
    monkeypatch.delenv(DATA_ENV_VAR)
    code, out, _ = run(capsys, "group", "2", "1")
    assert (code, out) == (0, "group=Z/2 generator=-\n")


# --- robustness: mutated data files and drawn arguments --------------------
# Every input either succeeds or fails with exit 1 or 2 and one error: line.


@st.composite
def mutated(draw, text: str) -> str:
    """The text with a few tokens or lines swapped, dropped, duplicated or made huge or negative."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        op = draw(st.sampled_from(("swap lines", "drop line", "duplicate line", "swap tokens", "drop token", "integer")))
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if op == "swap lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "drop line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(j, list(lines[i]))
        elif lines[i] and lines[j]:
            k, m = draw(st.integers(0, len(lines[i]) - 1)), draw(st.integers(0, len(lines[j]) - 1))
            if op == "swap tokens":
                lines[i][k], lines[j][m] = lines[j][m], lines[i][k]
            elif op == "drop token":
                del lines[i][k]
            else:
                lines[i][k] = str(draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**31))))
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


small = st.integers(-40, 40)
windows = st.builds("--window={}:{}:{}:{}".format, small, small, small, small)


@st.composite
def einfty_windows(draw) -> str:
    """Bounds inside the default einfty window, not necessarily ordered."""
    bounds = []
    for name, (lo, hi) in verify.EINFTY_WINDOW.items():
        bounds.append(f"{name}={draw(st.integers(lo, hi))}:{draw(st.integers(lo, hi))}")
    return ",".join(bounds)


@st.composite
def cli_arguments(draw, chart: str, stems: str) -> list[str]:
    bidegree = [str(draw(st.integers(-30, 30))), str(draw(st.integers(-30, 30)))]
    # chart motivic's default window spans the chart's declared s_max, which
    # a mutated file can make as large as it likes; the CLI's size limit
    # refuses it when it is too large to draw
    return draw(
        st.sampled_from(
            [
                ["classify", *bidegree],
                ["group", *bidegree, "--stems", stems],
                ["ctau", *bidegree, "--chart", chart],
                ["localize", "--chart", chart],
                ["ingest", chart, "--canonical"],
                ["ingest", stems, "--kind", "stems", "--canonical"],
                ["chart", "regions", draw(windows), "--dots", "--stems", stems],
                ["chart", "groups", draw(windows), "--stems", stems],
                ["chart", "groups", "--stems", stems],
                ["chart", "motivic", draw(windows), "--chart", chart],
                ["chart", "motivic", "--chart", chart],
                ["verify", "einfty", "--einfty-window", draw(einfty_windows())],
            ]
        )
    )


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@given(data=st.data())
def test_cli_exits_cleanly_on_mutated_inputs(mutation_dir, data):
    chart, stems = mutation_dir / "chart.txt", mutation_dir / "stems.txt"
    chart.write_text(data.draw(mutated(read_data_text(SAMPLE_CHART_FILE))), encoding="utf-8")
    stems.write_text(data.draw(mutated(read_data_text(SAMPLE_STEMS_FILE))), encoding="utf-8")
    argv = data.draw(cli_arguments(str(chart), str(stems)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert not lines or ("error:" in lines[-1] and sum("error:" in line for line in lines) == 1)
