"""Whole-path benchmark of yoeo: points -> per-part pose, size and axis.

    python3 perfbench/run.py --workload net_4k --seed 1 --seconds 30 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) in this
process against the sources under ./src, checks every output, and
prints as its last line one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the program's public functions are wrapped in timing spans,
the per-layer metrics are printed instead, and the spans are written to
perfbench/out/. The OpenBLAS/OMP thread count is left as the shell set
it and reported, with the library versions and the load average, on
the `machine` line before the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, mean_or_zero, median_or_zero
from workloads import CYCLE_SCENES, WORKLOADS, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_program():
    """Import yoeo from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "yoeo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no yoeo sources under {src}")
    sys.path.insert(0, str(src))
    import yoeo

    if Path(yoeo.__file__).resolve().parent != src / "yoeo":
        sys.exit(f"perfbench: yoeo imported from {yoeo.__file__}, not {src}")


def openblas_info() -> dict:
    """Version and thread count of the OpenBLAS bundled with numpy."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"openblas": blas.get("version"), "openblas_threads": None}
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                getter = getattr(dll, symbol)
                getter.restype = ctypes.c_int
                info["openblas_threads"] = getter()
                return info
    return info


def machine_info() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **openblas_info(),
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS") if k in os.environ},
    }


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(tally, setup_times) -> dict:
    ms = [1e3 * s for s in tally.latencies]
    return {
        "scenes_per_s": (tally.scenes / tally.busy, "scenes/s"),
        "scene_ms_p50": (percentile(ms, 50), "ms"),
        "scene_ms_p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# -- tracing -----------------------------------------------------------------

def install_spans(tracer) -> None:
    """Wrap the public function at each layer boundary in a span."""
    from yoeo import cli, geometry, metrics, network, pipeline, synthetic

    def clusters(span, args, result):
        pred = args[1]
        foreground = int((pred.semantic_probs.argmax(axis=1) != 0).sum())
        span.attrs["clusters"] = len(result)
        span.attrs["unclustered"] = foreground - sum(len(i.point_indices) for i in result)

    def pose(span, args, result):
        span.attrs["inlier_fraction"] = result.inliers / len(args[1])

    def instances(span, args, result):
        span.attrs["instances"] = len(result)

    def file_size(span, args, result):
        span.attrs["kb"] = os.path.getsize(args[1]) / 1024.0

    for module in (network, cli):
        tracer.wrap(module, "oracle_predict", "network.oracle_predict")
    for module in (pipeline, cli):
        tracer.wrap(module, "run_scene_pipeline", "pipeline.run_scene_pipeline", instances)
    for module in (synthetic, cli):
        tracer.wrap(module, "render_scene", "synthetic.render_scene")
    tracer.wrap(network, "forward", "network.forward")
    tracer.wrap(network, "point_features", "network.point_features")
    tracer.wrap(pipeline, "cluster_instances", "instance.cluster_instances", clusters)
    tracer.wrap(pipeline, "recover_pose", "npcs.recover_pose", pose)
    tracer.wrap(geometry, "umeyama_align", "geometry.umeyama_align")
    tracer.wrap(cli, "save_scene", "synthetic.save_scene", file_size)
    tracer.wrap(cli, "load_scene", "synthetic.load_scene")
    tracer.wrap(cli, "evaluate_scenes", "metrics.evaluate_scenes")
    tracer.wrap(metrics, "match_instances", "metrics.match_instances")
    tracer.wrap(metrics, "pose_errors", "metrics.pose_errors")


_BEST_FRACTION = re.compile(r"best inlier fraction ([0-9.]+)")


def per_layer(tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    Times are medians in ms, per call for layers called once per scene
    (per matched pair for pose_errors), per scene for layers called per
    instance, and per scene for the CLI commands (cycle time / scenes).
    Counts are means per scene. A layer the workload never reaches is 0.
    """
    def ms_per_call(name):
        return 1e3 * median_or_zero(s.duration for s in tracer.named(name))

    def ms_self(name, scale=1.0):
        return 1e3 * median_or_zero(tracer.self_time(s) / scale for s in tracer.named(name))

    def ms_per_scene(name):
        groups = tracer.per_ancestor(name, "pipeline.run_scene_pipeline")
        return 1e3 * median_or_zero(sum(s.duration for s in g) for g in groups)

    def ms_per_cycle_scene(name):
        return 1e3 * median_or_zero(
            s.duration / CYCLE_SCENES for s in tracer.named(name)
        )

    def attr_mean(name, key):
        return mean_or_zero(s.attrs[key] for s in tracer.named(name) if key in s.attrs)

    poses = tracer.named("npcs.recover_pose")
    fractions = []
    for s in poses:
        if s.error is None:
            fractions.append(s.attrs["inlier_fraction"])
        elif (found := _BEST_FRACTION.search(s.error)) is not None:
            fractions.append(float(found.group(1)))
    ok = sum(1 for s in poses if s.error is None)

    return {
        "network.point_features.ms": (ms_per_call("network.point_features"), "ms"),
        "network.heads.ms": (ms_self("network.forward"), "ms"),
        "network.oracle_predict.ms": (ms_per_call("network.oracle_predict"), "ms"),
        "instance.cluster_instances.ms": (ms_per_call("instance.cluster_instances"), "ms"),
        "instance.clusters": (attr_mean("instance.cluster_instances", "clusters"), "count"),
        "instance.points_unclustered": (
            attr_mean("instance.cluster_instances", "unclustered"), "count"),
        "npcs.recover_pose.ms": (ms_per_scene("npcs.recover_pose"), "ms"),
        "npcs.recover_pose.calls": (mean_or_zero(
            len(g) for g in tracer.per_ancestor(
                "npcs.recover_pose", "pipeline.run_scene_pipeline")), "count"),
        "npcs.recover_pose.ok_ratio": (ok / len(poses) if poses else 0.0, "ratio"),
        "npcs.inlier_fraction": (median_or_zero(fractions), "ratio"),
        "geometry.umeyama_align.ms": (ms_per_scene("geometry.umeyama_align"), "ms"),
        "pipeline.run_scene_pipeline.ms": (ms_per_call("pipeline.run_scene_pipeline"), "ms"),
        "pipeline.self.ms": (ms_self("pipeline.run_scene_pipeline"), "ms"),
        "pipeline.instances": (attr_mean("pipeline.run_scene_pipeline", "instances"), "count"),
        "synthetic.render_scene.ms": (ms_per_call("synthetic.render_scene"), "ms"),
        "synthetic.save_scene.ms": (ms_per_call("synthetic.save_scene"), "ms"),
        "synthetic.load_scene.ms": (ms_per_call("synthetic.load_scene"), "ms"),
        "synthetic.scene_file_kb": (attr_mean("synthetic.save_scene", "kb"), "KB"),
        "cli.generate.ms": (ms_per_cycle_scene("cli.generate"), "ms"),
        "cli.infer.ms": (ms_per_cycle_scene("cli.infer"), "ms"),
        "cli.eval.ms": (ms_per_cycle_scene("cli.eval"), "ms"),
        "cli.infer.self.ms": (ms_self("cli.infer", CYCLE_SCENES), "ms"),
        "cli.pred_file_kb": (attr_mean("cycle", "pred_file_kb"), "KB"),
        "metrics.evaluate_scenes.ms": (ms_per_cycle_scene("metrics.evaluate_scenes"), "ms"),
        "metrics.match_instances.ms": (ms_per_call("metrics.match_instances"), "ms"),
        "metrics.pose_errors.ms": (ms_per_call("metrics.pose_errors"), "ms"),
    }


# -- main --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    machine = machine_info()
    print(json.dumps({"machine": machine}), flush=True)

    tracer = Tracer(enabled=bool(args.trace))
    install_spans(tracer)
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tracer, work)
        tally, warmup = Tally(), Tally()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(warmup)
            setup_times.append(time.perf_counter() - start)
        tally.errors.extend(warmup.errors)

        start = time.perf_counter()
        while True:
            workload.round(tally)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)
    workload.finish(tally)

    metrics = end_to_end(tally, setup_times)
    quarter = max(len(tally.latencies) // 4, 1)
    print(json.dumps({
        "scenes": tally.scenes, "samples": len(tally.latencies),
        # A disturbed run shows as one quarter far from the others.
        "p50_ms_by_quarter": [
            round(1e3 * statistics.median(tally.latencies[i:i + quarter]), 3)
            for i in range(0, quarter * 4, quarter) if tally.latencies[i:i + quarter]
        ],
        "loadavg_end": os.getloadavg(),
    }), flush=True)
    if args.trace:
        print(json.dumps({"traced_end_to_end": {k: v for k, (v, _) in metrics.items()}}))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tracer)
    for error in tally.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
