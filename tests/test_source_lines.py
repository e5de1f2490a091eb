"""The package source keeps to 79 columns a line."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_is_longer_than_79_columns():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    long = [f"{path.relative_to(SRC)}:{i}: {len(line)} columns"
            for path in paths
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []
