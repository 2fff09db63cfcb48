from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import settings

from motivic_stems.algebra import Window
from motivic_stems.charts import load_sample_chart, load_sample_stems
from motivic_stems.cli import main
from motivic_stems.spectral import localized_motivic_anss
from motivic_stems.verify import EINFTY_WINDOW

settings.register_profile("suite", deadline=None, max_examples=100)
# a longer search for CI, chosen with --hypothesis-profile deep, which
# overrides the default loaded here
settings.register_profile("deep", deadline=None, max_examples=2000)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def presentation_and_d3():
    presentation, diffs = localized_motivic_anss()
    return presentation, diffs[0]


@pytest.fixture(scope="session")
def einfty_window(presentation_and_d3):
    presentation, _ = presentation_and_d3
    return Window.from_dict(presentation, dict(EINFTY_WINDOW))


@pytest.fixture(scope="session")
def sample_chart():
    return load_sample_chart()


@pytest.fixture(scope="session")
def sample_stems():
    return load_sample_stems()


@pytest.fixture(scope="session")
def verify_output():
    """Exit code and stdout of one `motivic-stems verify` run over every suite.

    Session scoped: tests read their suite's lines from this one run. It is
    computed when a test first asks for it, so never under another test's
    monkeypatched constants.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, out.getvalue()
