"""Locating bundled data files, with an environment override.

The directory holding chart and stems data defaults to the packaged ``data``
directory and can be redirected with the MOTIVIC_STEMS_DATA environment
variable. Missing files always fail with the offending path spelled out.
"""

from __future__ import annotations

import os
from pathlib import Path

DATA_ENV_VAR = "MOTIVIC_STEMS_DATA"

SAMPLE_CHART_FILE = "sample_chart.txt"
SAMPLE_STEMS_FILE = "stems.txt"


def data_path(name: str) -> Path:
    path = Path(os.environ.get(DATA_ENV_VAR) or Path(__file__).parent / "data") / name
    if not path.is_file():
        raise FileNotFoundError(f"data file not found: {path}")
    return path


def read_data_text(name: str) -> str:
    return data_path(name).read_text(encoding="utf-8")
