"""Every CSV table is read through one csv row loop: `dataio._csv_cells`
is the only function of the package that refers to ``csv.reader``."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skytraj"


def csv_reader_users(source: str) -> list[str]:
    """The top-level definition of ``source`` around each reference to
    ``csv.reader``, by name ('<module>' for a statement outside them)."""
    users = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        users += [
            name for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "reader"
            and isinstance(node.value, ast.Name) and node.value.id == "csv"
        ]
    return users


def test_csv_reader_only_in_csv_cells():
    users = {
        path.name: csv_reader_users(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in users.items() if found} == {
        "dataio.py": ["_csv_cells"]
    }


def test_the_check_finds_each_reference():
    source = "import csv\nr = csv.reader\ndef f(fh):\n    return csv.reader(fh)\n"
    assert csv_reader_users(source) == ["<module>", "f"]
