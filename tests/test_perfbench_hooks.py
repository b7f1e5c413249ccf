"""The benchmark's tracer (perfbench/tracer.py) patches public functions at
the module attributes where their callers look them up. A call site that is
renamed, inlined or moved to another module silently drops its per-layer
metric, so every traced name must still resolve here."""
import importlib
import importlib.util
from pathlib import Path

from conftest import PIPELINE_ARGS, build_pipeline_fixture, write_correspondence_fixture
from skytraj.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    wraps = _load_tracer().WRAPS
    assert wraps
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in wraps
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_traced_call_site_is_reached(tmp_path):
    """A tiny correspondence pipeline and a tiny bench go through every
    traced name, and no counter hook breaks on the values it is handed."""
    tracer_module = _load_tracer()
    # One span name per call site, so that a site the program stops calling
    # shows up even where two sites share a layer name.
    tracer_module.WRAPS = [
        (f"{module}.{attr}", module, attr, hook) for _, module, attr, hook in tracer_module.WRAPS
    ]
    paths = build_pipeline_fixture(tmp_path / "session")
    corr_dir = tmp_path / "corrs"
    write_correspondence_fixture(corr_dir, frames=range(2, 21))
    config = tmp_path / "bench.yaml"
    config.write_text(
        "bench: {scenes: 1, trials_per_scene: 1, snn_ratios: [null, 0.9],"
        " downscales: [0.5, 1.0], point_counts: [40]}\n"
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        rc_pipeline = main([str(a) for a in [
            "pipeline",
            "--tracks", paths["tracks"],
            "--sidecar", paths["sidecar"],
            "--correspondences", corr_dir,
            "--registry", paths["registry"],
            "--segmentation", paths["segmentation"],
            "--output", tmp_path / "export.csv",
            "--snn-ratio", "0.9",
            "--downscale", "0.5",
            "--jobs", "1",
            *PIPELINE_ARGS,
        ]])
        rc_bench = main([str(a) for a in [
            "bench", "--config", config, "--jobs", "1", "--output", tmp_path / "bench.csv",
        ]])
    finally:
        tracer.uninstall()
    assert (rc_pipeline, rc_bench) == (0, 0)
    assert tracer.absent == set()
    called = {name for name, *_ in tracer.spans}
    assert [name for name, *_ in tracer_module.WRAPS if name not in called] == []
    rows = sum(len(f.read_text().splitlines()) - 1 for f in corr_dir.glob("*.csv"))
    assert tracer.counts["dataio.load_correspondences.rows"] == rows
