"""RANSAC's minimal samples are solved in closed form. `_solve_block`
reaches no ``linalg`` name and no `_denormalized_solve`, so no sample
pays an SVD; and the fits it stores have the same bits under every
OpenBLAS kernel the CPU can run (first step of byte-reproducible output
across machines)."""
import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_one_csv_loop import PACKAGE


def _functions(source: str) -> dict[str, ast.FunctionDef]:
    return {top.name: top for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}


def reached(source: str, root: str) -> set[str]:
    """The module-level functions of ``source`` that ``root`` names,
    directly or through each other, ``root`` included."""
    defs = _functions(source)
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    return seen


def _is_svd_route(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.Name):
        return node.id in ("linalg", "_denormalized_solve")
    return False


def svd_users(source: str, root: str) -> list[str]:
    """The functions `reached` from ``root`` that name ``linalg`` (as
    ``np.linalg`` or bare) or `_denormalized_solve`."""
    defs = _functions(source)
    return sorted(name for name in reached(source, root)
                  if any(_is_svd_route(node) for node in ast.walk(defs[name])))


def test_minimal_samples_reach_no_svd():
    source = (PACKAGE / "registration.py").read_text(encoding="utf-8")
    assert svd_users(source, "_solve_block") == []
    assert {"_solve_block", "_basis_maps", "_hartley"} <= reached(source, "_solve_block")
    # every linalg use is spelled out, so the guard sees it
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")]


def test_the_check_finds_each_use():
    source = (
        "def _solve_block(p):\n    return helper(p) + _denormalized_solve(p)\n"
        "def helper(p):\n    return deeper(p)\n"
        "def deeper(p):\n    return np.linalg.svd(p)\n"
        "def _denormalized_solve(a):\n    return a\n"
        "def unreached(p):\n    return linalg.inv(p)\n"
    )
    assert reached(source, "_solve_block") == {
        "_solve_block", "helper", "deeper", "_denormalized_solve"}
    assert svd_users(source, "_solve_block") == ["_solve_block", "deeper"]


# --- the same bits under every BLAS kernel --------------------------------------

# Forced OpenBLAS kernels of x86-64 and the CPU flags each needs.
KERNELS = {"Prescott": (), "Sandybridge": ("avx",), "Haswell": ("avx2", "fma")}

# Seeded minimal samples of noisy projective matches, 30% of them with
# an outlier, in blocks of 64 as `ransac_homography` solves them; prints
# one hash of the raw and stored fits of every block.
PROBE = """
import hashlib
import numpy as np
from skytraj.geometry import project_array
from skytraj.registration import _solve_block

rng = np.random.default_rng(34)
digest = hashlib.sha256()
for _ in range(16):
    m = np.eye(3) + rng.normal(0, [[0.05, 0.05, 30], [0.05, 0.05, 30], [2e-5, 2e-5, 0]])
    src = rng.uniform(0, 2000, (64, 4, 2))
    x, y, _ = project_array(m, src)
    dst = np.stack((x, y), axis=-1) + rng.normal(0, 0.4, src.shape)
    dst[rng.random(64) < 0.3, 0] = rng.uniform(0, 2000, 2)
    with np.errstate(all="ignore"):
        _, raw, stored = _solve_block(np.stack((src, dst)))
    digest.update(raw.tobytes())
    digest.update(stored.tobytes())
print(digest.hexdigest())
"""


def _on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _runnable_kernels() -> list[str]:
    """The forced kernels this CPU has the instructions for."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return []
    flags = set(next((line.split(":", 1)[1] for line in text.splitlines()
                      if line.startswith("flags")), "").split())
    return [name for name, need in KERNELS.items() if set(need) <= flags]


def _probe_hash(coretype: str | None) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.split()[-1]


def test_minimal_fits_do_not_depend_on_the_blas_kernel():
    if not _on_openblas():
        pytest.skip("numpy is not on OpenBLAS")
    kernels = _runnable_kernels()
    if not kernels:
        pytest.skip("no forced OpenBLAS kernel runs on this CPU")
    hashes = {name: _probe_hash(name) for name in kernels}
    hashes["default"] = _probe_hash(None)
    assert len(set(hashes.values())) == 1, hashes
