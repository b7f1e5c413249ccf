"""One measuring process: set up, then run the CLI until the deadline.

Usage: python3 worker.py SPEC_JSON

The spec names the ``src`` directory to import ``skytraj`` from, the
static inputs to parse, the CLI arguments, the output file and the
measuring window. With ``setup_only`` the process stops after set-up.
Otherwise it runs one untimed warm-up call of ``skytraj.cli.main`` and
then timed calls until the window closes; with ``trace`` every second
call runs under the tracer. A fixed probe loop runs before set-up and
between calls; its duration tells the parent how fast the machine ran
at that moment. One JSON object goes to stdout at the end.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def probe() -> float:
    """Duration of a fixed pure-Python loop, the measure of machine speed."""
    start = time.perf_counter()
    slots, acc = {}, 0.0
    for i in range(400_000):
        slots[i & 1023] = acc
        acc += (i % 7) * 0.5
    return time.perf_counter() - start


def _setup(spec: dict) -> float:
    start = time.perf_counter()
    import skytraj.cli  # noqa: F401  (imports every layer)
    from skytraj import campaign, dataio

    static = spec["static"]
    if "config" in static:
        bench = dataio.load_yaml(static["config"])["bench"]
        campaign.synthetic_scenes(int(bench["scenes"]), int(bench["scene_seed"]))
    else:
        dataio.load_sidecar(static["sidecar"])
        dataio.load_registry(static["registry"])
        dataio.load_segmentation(static["segmentation"])
    return time.perf_counter() - start


def _call(main, argv, output: Path) -> dict:
    start = time.perf_counter()
    try:
        rc = main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # one failed call is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    digest = hashlib.sha256(output.read_bytes()).hexdigest() if output.exists() else None
    return {"wall_s": wall, "error": error, "digest": digest}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    before = probe()
    setup_s = _setup(spec)
    setup_probe_s = (before + probe()) / 2
    import skytraj

    if Path(skytraj.__file__).resolve().parent != Path(spec["src"]).resolve() / "skytraj":
        print(f"skytraj imported from {skytraj.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if not spec.get("setup_only"):
        from skytraj.cli import main as cli_main

        from tracer import Tracer

        output = Path(spec["output"])
        argv = spec["argv"]
        tracer = Tracer() if spec["trace"] else None
        warm = _call(cli_main, argv, output)
        reps = []
        last_probe = probe()
        deadline = time.perf_counter() + spec["seconds"]
        while len(reps) < (2 if tracer else 1) or time.perf_counter() < deadline:
            traced = tracer is not None and len(reps) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                rep = _call(cli_main, argv, output)
            finally:
                if traced:
                    tracer.uninstall()
            rep["traced"] = traced
            now_probe = probe()
            rep["probe_s"] = (last_probe + now_probe) / 2
            last_probe = now_probe
            if traced:
                rep["layers"] = tracer.layer_metrics()
            reps.append(rep)
        if tracer is not None:
            tracer.write_spans(spec["spans"])
            result["absent"] = sorted(tracer.absent)
        result.update(warmup=warm, reps=reps,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
