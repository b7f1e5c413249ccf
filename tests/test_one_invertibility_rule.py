"""A homography's invertibility is decided in one place: only `geometry`
names ``DET_FLOOR`` or calls ``linalg.det``, so `Homography.from_matrix`
and the RANSAC block solver share `geometry.screen_homographies`."""
import ast

from test_one_csv_loop import PACKAGE, definitions_around


def _is_rule_use(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "DET_FLOOR"
    if isinstance(node, ast.alias):
        return node.name == "DET_FLOOR"
    if isinstance(node, ast.Attribute):
        return node.attr == "DET_FLOOR"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        return node.func.attr == "det" and (
            isinstance(owner, ast.Attribute) and owner.attr == "linalg"
            or isinstance(owner, ast.Name) and owner.id == "linalg"
        )
    return False


def rule_users(source: str) -> list[str]:
    """`definitions_around` each use of the name ``DET_FLOOR`` and each
    call of ``<x>.linalg.det`` or ``linalg.det``."""
    return definitions_around(source, _is_rule_use)


def test_only_geometry_names_the_floor_or_takes_a_determinant():
    users = {
        path.name: rule_users(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in users.items() if found} == {
        "geometry.py": ["<module>", "screen_homographies", "screen_homographies"]
    }


def test_the_check_finds_each_use():
    source = (
        "from .geometry import DET_FLOOR\n"
        "def f(m):\n    return np.linalg.det(m) > geometry.DET_FLOOR\n"
        "class H:\n    def g(self):\n        return linalg.det(self.m)\n"
        "def ok(m):\n    return m.det(), np.linalg.norm(m)\n"
    )
    assert rule_users(source) == ["<module>", "f", "f", "H"]
