"""Every CSV table is read through one csv row loop: `dataio._csv_cells`
is the only function of the package that refers to ``csv.reader``, and
every table is written by `dataio.write_csv`, the only one that refers to
``csv.writer``. Every input file is read once, by one function: in
`dataio`, ``open`` is called only by `_read_text` (input) and
`_output_file` (output)."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skytraj"


def definitions_around(source: str, found) -> list[str]:
    """The top-level definition of ``source`` around each AST node for
    which ``found`` is true, by name ('<module>' for a statement outside
    them)."""
    names = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        names += [name for node in ast.walk(top) if found(node)]
    return names


def csv_users(source: str, attr: str) -> list[str]:
    """`definitions_around` each reference to ``csv.<attr>``."""
    return definitions_around(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.value, ast.Name) and node.value.id == "csv"
    ))


def csv_reader_users(source: str) -> list[str]:
    return csv_users(source, "reader")


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


def test_csv_writer_only_in_write_csv():
    users = {
        path.name: csv_users(path.read_text(encoding="utf-8"), "writer")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in users.items() if found} == {
        "dataio.py": ["write_csv"]
    }


def test_the_check_finds_each_writer_reference():
    source = "import csv\nw = csv.writer\ndef g(fh):\n    return csv.writer(fh), csv.reader\n"
    assert csv_users(source, "writer") == ["<module>", "g"]


def open_callers(source: str) -> list[str]:
    """`definitions_around` each call of the name ``open``."""
    return definitions_around(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    ))


def test_dataio_opens_files_only_in_read_text_and_output_file():
    source = (PACKAGE / "dataio.py").read_text(encoding="utf-8")
    assert open_callers(source) == ["_read_text", "_output_file"]


def test_the_check_finds_each_open_call():
    source = (
        "fh = open('a')\n"
        "def f(p):\n    with open(p, 'rb') as fh:\n        return fh.read()\n"
        "def g(p):\n    return p.open()\n"
    )
    assert open_callers(source) == ["<module>", "f"]
