"""Tests of the benchmark itself: generator, tracer and the run contract.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from skytraj import campaign, cli, dataio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    trees = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        run.generate(workload, seed, "tiny", tmp_path / name)
        trees.append(_digest_tree(tmp_path / name))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_session_files_load_through_dataio(tmp_path):
    for spec in (run.WORKLOADS["session_dense"]["tiny"],
                 run.WORKLOADS["session_registered"]["tiny"]):
        out = tmp_path / str(spec.matches_per_frame)
        info = gen.make_session(out, 3, spec)
        p = info["paths"]
        sidecar = dataio.load_sidecar(p["sidecar"])
        tracks = dataio.load_tracks(p["tracks"], sidecar)
        assert len(tracks.points) == info["items"]
        registry = dataio.load_registry(p["registry"])
        assert registry.intersection_for(gen.VIDEO_ID)
        assert dataio.load_segmentation(p["segmentation"]).lanes
        if spec.matches_per_frame:
            files = sorted(Path(p["correspondences"]).glob("*.csv"))
            assert len(files) == spec.n_frames - 1
            for f in files:
                assert len(dataio.load_correspondences(f)) == spec.matches_per_frame
        else:
            assert len(dataio.load_homography_log(p["homographies"])) == spec.n_frames


def test_campaign_config_loads(tmp_path):
    info = gen.make_campaign(tmp_path, 3, run.WORKLOADS["campaign_grid"]["tiny"])
    bench = dataio.load_yaml(info["paths"]["config"])["bench"]
    assert len(campaign.synthetic_scenes(bench["scenes"], bench["scene_seed"])) == bench["scenes"]


def test_traced_call_writes_the_same_bytes(tmp_path):
    info = run.generate("session_registered", 2, "tiny", tmp_path)
    assert cli.main(info["argv"]) == 0
    plain = info["output"].read_bytes()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(info["argv"]) == 0
    finally:
        t.uninstall()
    assert info["output"].read_bytes() == plain
    layers = t.layer_metrics()
    frames = len(list(Path(info["paths"]["correspondences"]).glob("*.csv")))
    assert layers["registration.ransac.calls"] == frames
    assert layers["dataio.export_songdo.rows_written"] == plain.count(b"\n") - 1
    assert not t.absent


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPS", tracer.WRAPS + [
        ("pipeline.gone", "skytraj.pipeline", "no_such_function", None)])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == {"skytraj.pipeline.no_such_function"}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for name in json.loads(lines[-1])["metrics"]:
        assert any(line.startswith(f"{name} ") for line in lines[:-1])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _run(workload, trace)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        if trace:
            calls = res["metrics"]["registration.ransac.calls"]["value"]
            assert (calls == 0) == (workload == "session_dense")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "campaign_grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
