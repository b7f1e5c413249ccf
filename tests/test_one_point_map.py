"""Projective infinity is decided in one place: only `geometry` names
``Z_TOL``, so every other module maps points through
`geometry.map_point` or `geometry.project_array` and tests a
homogeneous scale with `geometry.at_infinity`."""
import ast

from test_one_csv_loop import PACKAGE, definitions_around


def _names_the_tolerance(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "Z_TOL"
    if isinstance(node, ast.alias):
        return node.name == "Z_TOL"
    if isinstance(node, ast.Attribute):
        return node.attr == "Z_TOL"
    return False


def tolerance_users(source: str) -> list[str]:
    """`definitions_around` each use of the name ``Z_TOL``."""
    return definitions_around(source, _names_the_tolerance)


def test_only_geometry_names_the_tolerance():
    users = {
        path.name: tolerance_users(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in users.items() if found} == {
        "geometry.py": ["<module>", "screen_homographies", "at_infinity", "map_point"]
    }


def test_the_check_finds_each_use():
    source = (
        "from .geometry import Z_TOL\n"
        "def f(z):\n    return abs(z) < geometry.Z_TOL\n"
        "class H:\n    def g(self, z):\n        return z < Z_TOL\n"
        "def ok(z):\n    '''Z_TOL'''\n    return Z_TOLERANCE, at_infinity(z)\n"
    )
    assert tolerance_users(source) == ["<module>", "f", "H"]
