"""A registration problem is set up in one place: only `registration`
names ``SeedSequence``, calls `upscale_homography` or calls a ``.scaled``
method, so the pipeline and the benchmark take their RANSAC seeds from
`registration.derive_seeds` and leave the downscale round trip to
`registration.ransac_homography`."""
import ast

from test_one_csv_loop import PACKAGE, definitions_around


def _called(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def _sets_up_a_problem(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "SeedSequence"
    if isinstance(node, ast.alias):
        return node.name == "SeedSequence"
    if isinstance(node, ast.Attribute) and node.attr == "SeedSequence":
        return True
    return _called(node, "upscale_homography") or _called(node, "scaled")


def setup_sites(source: str) -> list[str]:
    """`definitions_around` each use of ``SeedSequence`` and each call of
    ``upscale_homography`` or ``.scaled``."""
    return definitions_around(source, _sets_up_a_problem)


def test_only_registration_sets_up_a_problem():
    sites = {
        path.name: setup_sites(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in sites.items() if found} == {
        "registration.py": ["derive_seeds", "ransac_homography", "ransac_homography"]
    }


def test_the_check_finds_each_use():
    source = (
        "from numpy.random import SeedSequence\n"
        "def seed(s, k):\n    return np.random.SeedSequence((s, k)).generate_state(1)\n"
        "class Trial:\n    def run(self, m, rho):\n        return m.scaled(rho)\n"
        "def lift(h, rho):\n    return registration.upscale_homography(h, rho)\n"
        "def bare(h):\n    return upscale_homography(h, 0.5), SeedSequence(1)\n"
        "def ok(m, upscale_homography):\n"
        "    '''SeedSequence'''\n    return m.scaled, upscale_homography, derive_seeds(0, 1)\n"
    )
    assert setup_sites(source) == ["<module>", "seed", "Trial", "lift", "bare", "bare"]
