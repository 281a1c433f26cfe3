"""README against the code: its measured tables and the homes of its input rules.

The tables' cells are recomputed by ``tests/readme_tables.py`` from the
streams and designs README names, and each number README prints must equal
the recomputed value rounded to as many decimals as README gives it.  Every
backticked name in the "Home" column of README's "Input rules" table must
be an object of ``tailcens`` or of one of its modules, so a rule's home
cannot be renamed or deleted under the docs.
"""

import re
from pathlib import Path

import pytest
import readme_tables

import tailcens

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
NUMBER = re.compile(r"\d+(?: \d{3})*(?:\.\d+)?")  # README groups thousands with a space: 10 278


def table_rows(header: str) -> list[list[str]]:
    """The cells of each row of the README table whose header row is ``header``."""
    start = next((i for i, line in enumerate(README) if line == header), None)
    assert start is not None, f"README has no table headed {header}"
    rows = []
    for line in README[start + 2 :]:  # past the header and its |---| row
        if not line.startswith("|"):
            break
        rows.append([part.strip() for part in line.strip().strip("|").split("|")])
    return rows


@pytest.fixture(scope="module")
def tables():
    return readme_tables.all_tables()


@pytest.mark.parametrize("name", readme_tables.HEADERS)
def test_table_cells_reproduce_at_the_printed_precision(tables, name):
    header = readme_tables.HEADERS[name]
    printed = table_rows(header)
    for row in tables[name]:
        labels = [c for c in row if isinstance(c, str)]
        match = [cells for cells in printed if len(cells) == len(row)
                 and [c for c, want in zip(cells, row) if isinstance(want, str)] == labels]
        assert len(match) == 1, f"{header}: README has {len(match)} rows of {len(row)} cells labelled {labels}"
        for got, want in zip(match[0], row):
            if isinstance(want, str):
                continue
            numbers = NUMBER.findall(got)
            assert NUMBER.sub("{}", got) == want.template and len(numbers) == len(want.values), (
                f"{header} {labels}: README prints {got!r}, the helper {want}")
            for text, value in zip(numbers, want.values):
                decimals = len(text.partition(".")[2])
                assert f"{value:.{decimals}f}" == text.replace(" ", ""), (
                    f"{header} {labels}: README prints {text}, recomputed {value!r}")


def home_names() -> list[str]:
    """Every backticked name in the Home column of the input rules table, a leading-dot name joined to the last."""
    names = []
    for cells in table_rows("| Rule | Home | Used by |"):
        for name in re.findall(r"`([^`]+)`", cells[1]):
            names.append(names[-1].rpartition(".")[0] + name if name.startswith(".") else name)
    return names


@pytest.mark.parametrize("name", home_names())
def test_input_rule_home_exists(name):
    obj = tailcens
    for part in name.split("."):
        assert hasattr(obj, part), f"README's input rules table names {name!r}, which tailcens does not define"
        obj = getattr(obj, part)
