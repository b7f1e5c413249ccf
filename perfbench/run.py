"""Seeded end-to-end and per-layer benchmark of the skytraj CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload session_dense --seed 0 --seconds 30 --trace 0

Workloads (inputs come from ``gen.py``; the program sees only files):

* ``session_dense``: ``skytraj pipeline`` with a homography log, about
  67 boxes per 3840x2160 frame. Loads every per-point stage (load,
  ingest/NMS, class refinement, stabilization, georeference and lane
  lookup, dimensions, kinematics, timestamps, export); no RANSAC.
* ``session_registered``: ``skytraj pipeline`` estimating homographies
  from 1500 matches per frame (30% outliers, 10% on vehicles) with
  ``--snn-ratio 0.9 --downscale 0.5``; RANSAC at large N dominates.
* ``campaign_grid``: ``skytraj bench`` with 100 points and 30% outliers
  over snn_ratio {none, 0.9} x downscale {0.5, 1.0}; RANSAC at small N,
  synthesis and HEA/MIoU scoring.

One run generates the inputs, times ``setup_s`` in several fresh
processes, then starts one measuring process (``worker.py``) that calls
``skytraj.cli.main`` with ``--jobs 1`` until ``--seconds`` have passed.
On a shared machine the CPU speed swings by tens of percent for tens of
seconds at a time, so every timing is rescaled to a reference speed: a
fixed probe loop runs between calls (and around each set-up), and a
call's wall time is multiplied by ``PROBE_REF_S`` over the probe time
measured around it. On an idle core the rescaled time equals the wall
time. Each metric is the median over the calls of a run.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics, measured on every second call
by ``tracer.py``. Each run checks the outputs: every call must write the
same bytes, traced or not; the export must meet its invariants; and at
seed 0 the bytes must match ``digests.json``.
"""
from __future__ import annotations

import argparse
import csv
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TIME_LIMIT_S = 170.0
SETUP_PROCESSES = 5
DEFAULT_SEED = 0
# Duration of ``worker.probe`` on an idle core of the machine the baseline
# in baseline.json was recorded on (2 vCPU, Python 3.11.7).
PROBE_REF_S = 0.055

WORKLOADS = {
    "session_dense": {
        "bench": gen.SessionSpec(n_frames=32, n_vehicles=80),
        "tiny": gen.SessionSpec(n_frames=18, n_vehicles=12),
        "argv": [],
    },
    "session_registered": {
        "bench": gen.SessionSpec(n_frames=18, n_vehicles=16, matches_per_frame=1500),
        "tiny": gen.SessionSpec(n_frames=18, n_vehicles=4, matches_per_frame=120),
        "argv": ["--snn-ratio", "0.9", "--downscale", "0.5"],
    },
    "campaign_grid": {
        "bench": gen.CampaignSpec(scenes=4, trials_per_scene=6),
        "tiny": gen.CampaignSpec(scenes=1, trials_per_scene=1),
        "argv": [],
    },
}

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

EXPORT_COLUMNS = [
    "Vehicle_ID", "Local_Time", "Drone_ID", "Ortho_X", "Ortho_Y", "Local_X", "Local_Y",
    "Latitude", "Longitude", "Vehicle_Length", "Vehicle_Width", "Vehicle_Class",
    "Vehicle_Speed", "Vehicle_Acceleration", "Road_Section", "Lane_Number", "Visibility",
]
CAMPAIGN_COLUMNS = ["snn_ratio", "downscale", "reproj_threshold", "n_points", "hea", "miou",
                    "trials"]
CAMPAIGN_CELLS = {("", "0.5"), ("", "1.0"), ("0.9", "0.5"), ("0.9", "1.0")}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, derived from its name."""
    from tracer import Tracer

    names = list(Tracer().layer_metrics()) + ["metrics.hea", "metrics.miou",
                                              "tracing.overhead_frac"]
    units = {}
    for name in names:
        last = name.rsplit(".", 1)[1]
        if last.startswith("ms") or last.endswith("_ms"):
            units[name] = "ms"
        elif last.startswith("us_"):
            units[name] = "us"
        elif last.endswith(("_frac", "_ratio")) or name.startswith("metrics."):
            units[name] = "frac"
        else:
            units[name] = "count"
    return units


class CheckFailed(Exception):
    pass


def check_export(path: Path) -> None:
    """Export invariants: exact columns, rows sorted by (id, frame), > 15 points each."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != EXPORT_COLUMNS:
        raise CheckFailed(f"export header is {rows[:1]}")
    counts: dict[int, int] = {}
    prev = None
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(EXPORT_COLUMNS):
            raise CheckFailed(f"export line {line} has {len(row)} cells")
        key = (int(row[0]), row[1])  # hh:mm:ss.sss orders like the frame
        if prev is not None and key <= prev:
            raise CheckFailed(f"export line {line} is out of (id, frame) order")
        prev = key
        counts[key[0]] = counts.get(key[0], 0) + 1
    if not counts:
        raise CheckFailed("export holds no vehicle")
    short = [vid for vid, n in counts.items() if n <= 15]
    if short:
        raise CheckFailed(f"exported vehicles with 15 or fewer points: {short[:5]}")


def check_campaign(path: Path, expected_trials: int) -> tuple[float, float]:
    """Campaign invariants; returns the mean HEA and MIoU over the grid cells."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CAMPAIGN_COLUMNS:
        raise CheckFailed(f"campaign header is {rows[:1]}")
    body = rows[1:]
    if {(r[0], r[1]) for r in body} != CAMPAIGN_CELLS or len(body) != len(CAMPAIGN_CELLS):
        raise CheckFailed(f"campaign cells are {[(r[0], r[1]) for r in body]}")
    heas, mious = [], []
    for r in body:
        hea, miou, trials = float(r[4]), float(r[5]), int(r[6])
        if trials != expected_trials or not (0.0 <= hea <= 1.0 and 0.0 <= miou <= 1.0):
            raise CheckFailed(f"campaign row {r} out of range")
        heas.append(hea)
        mious.append(miou)
    return statistics.fmean(heas), statistics.fmean(mious)


def generate(workload: str, seed: int, size: str, work: Path) -> dict:
    spec = WORKLOADS[workload][size]
    if workload == "campaign_grid":
        info = gen.make_campaign(work, seed, spec)
        argv = ["bench", "--config", info["paths"]["config"]]
    else:
        info = gen.make_session(work, seed, spec)
        p = info["paths"]
        argv = ["pipeline", "--tracks", p["tracks"], "--sidecar", p["sidecar"],
                "--registry", p["registry"], "--segmentation", p["segmentation"],
                "--seed", str(seed), *gen.SESSION_META]
        if "correspondences" in p:
            argv += ["--correspondences", p["correspondences"]]
        else:
            argv += ["--homographies", p["homographies"]]
    output = work / ("campaign.csv" if workload == "campaign_grid" else "export.csv")
    info["argv"] = argv + WORKLOADS[workload]["argv"] + ["--jobs", "1", "--output", str(output)]
    info["output"] = output
    return info


def run_worker(spec: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny inputs are for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S

    if not (SRC / "skytraj" / "cli.py").is_file():
        print(f"error: no skytraj sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    info = generate(args.workload, args.seed, args.size, work)
    gen_s = time.perf_counter() - started
    static = {k: v for k, v in info["paths"].items() if k in
              ("config", "sidecar", "registry", "segmentation")}
    base = {"src": str(SRC), "static": static}

    setup_runs = [run_worker({**base, "setup_only": True}, deadline)
                  for _ in range(SETUP_PROCESSES)]
    res = run_worker({**base, "argv": info["argv"], "output": str(info["output"]),
                      "seconds": args.seconds, "trace": bool(args.trace),
                      "spans": str(work / "spans.json")}, deadline)
    setups = [r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in setup_runs + [res]]

    reps = res["reps"]
    failed = [r for r in reps + [res["warmup"]] if r["error"]]
    ok = [r for r in reps if not r["error"]]
    problems = [f"call failed: {r['error']}" for r in failed[:3]]
    digests = {r["digest"] for r in reps + [res["warmup"]] if not r["error"]}
    if len(digests) > 1:
        problems.append(f"outputs differ between calls ({len(digests)} digests)")
    hea = miou = 0.0
    try:
        if args.workload == "campaign_grid":
            hea, miou = check_campaign(info["output"], info["trials_per_cell"])
        else:
            check_export(info["output"])
    except (CheckFailed, OSError, ValueError) as exc:
        problems.append(f"output check: {exc}")
    if args.seed == DEFAULT_SEED and args.size == "bench":
        expected = json.loads((HERE / "digests.json").read_text())[args.workload]
        if digests != {expected}:
            problems.append(f"seed-{DEFAULT_SEED} output digest {sorted(digests)} != {expected}")

    for r in ok:
        r["scale"] = PROBE_REF_S / r["probe_s"]
    untraced = [r["wall_s"] * r["scale"] for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no successful timed call; " + "; ".join(problems), file=sys.stderr)
        return 1
    if args.trace:
        units = per_layer_units()
        values = {}
        for name in traced[0]["layers"]:
            series = [r["layers"][name] for r in traced]
            if units[name] == "count":
                if len(set(series)) > 1:
                    problems.append(f"count {name} differs between calls: {series}")
                values[name] = series[0]
            elif units[name] in ("ms", "us"):
                values[name] = statistics.median(r["layers"][name] * r["scale"] for r in traced)
            else:
                values[name] = statistics.median(series)
        values["metrics.hea"], values["metrics.miou"] = hea, miou
        values["tracing.overhead_frac"] = (
            statistics.median(r["wall_s"] * r["scale"] for r in traced)
            / statistics.median(untraced) - 1.0)
    else:
        units = END_TO_END
        values = {"items_per_s": info["items"] / statistics.median(untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}

    attempted = len(reps) + 1
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{info['items']} items, generated in {gen_s:.2f} s, "
          f"{len(untraced)} untraced and {len(traced)} traced timed calls")
    walls = sorted(r["wall_s"] for r in ok if not r["traced"])
    print(f"unscaled: median call {walls[len(walls) // 2]:.4f} s, fastest {walls[0]:.4f} s; "
          f"median probe {statistics.median(r['probe_s'] for r in ok):.4f} s "
          f"(reference {PROBE_REF_S} s)")
    print(f"failed_frac {len(failed) / attempted:.4f} frac")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    if res.get("absent"):
        print("absent (reported as 0): " + ", ".join(res["absent"]))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
