"""Regenerate the golden render artifacts from the pinned styles.

Run from the repository root after an intentional rendering change, then
eyeball the diff before committing; the golden byte-comparison checks exist to
catch unintentional changes.
"""

from __future__ import annotations

from pathlib import Path

from motivic_stems.verify import golden_artifacts


def main() -> None:
    golden_dir = Path(__file__).resolve().parent.parent / "src" / "motivic_stems" / "data" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name, text in golden_artifacts().items():
        path = golden_dir / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
