import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour_rows():
    """The `lewisreg.*` rows of the README's "Library tour" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `lewisreg.")]


def test_library_tour_rows_have_two_cells():
    # an unescaped "|" inside a cell, code spans included, starts a new cell
    rows = library_tour_rows()
    assert rows
    for row in rows:
        cells = re.split(r"(?<!\\)\|", row.strip())[1:-1]
        assert len(cells) == 2, f"{len(cells)} cells in the row {row[:40]!r}..."
