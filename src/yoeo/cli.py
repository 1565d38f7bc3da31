"""Command-line entry point: generate | train | infer | eval | bench.

Each command resolves its parameters from built-in defaults, then an
optional JSON config file, then explicitly passed flags (flags win), and
echoes the resolved configuration into the output directory. All errors
print a machine-parsable ``YOEO-E<code>:`` prefix on stderr and exit
non-zero.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, YoeoError
from .geometry import RansacParams, Sim3Transform
from .instance import ClusterParams
from .metrics import benchmark_throughput, evaluate_scenes
from .network import (
    OracleNoise,
    TrainConfig,
    TrainSample,
    forward,
    init_params,
    load_weights,
    oracle_predict,
    save_weights,
    train,
)
from .npcs import JointAxis, PoseResult, encode_bins
from .pipeline import InstancePrediction, run_scene_pipeline
from .synthetic import (
    GenConfig,
    Scene,
    export_ply,
    generate_object,
    gt_offsets,
    load_scene,
    render_scene,
    save_scene,
)

PRED_SCHEMA_VERSION = 1

GENERATE_DEFAULTS = {
    "seed": None,
    "count": 100,
    "out": None,
    "points": 4096,
    "partial_view": False,
    "objects_per_scene": 1,
    "export_ply": False,
    "jobs": 1,
}

TRAIN_DEFAULTS = {
    "seed": None,
    "data": None,
    "out": None,
    "epochs": 40,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "batch_scenes": 8,
    "hidden1": 64,
    "hidden2": 128,
    "k": 16,
    "w_sem": 1.0,
    "w_center": 1.0,
    "w_npcs": 1.0,
    "freeze": [],
}

INFER_DEFAULTS = {
    "seed": 0,
    "data": None,
    "out": None,
    "weights": None,
    "oracle": False,
    "offset_sigma": 0.0,
    "npcs_sigma": 0.0,
    "flip_prob": 0.0,
    "bandwidth": 0.05,
    "min_points": 30,
    "inlier_threshold": 0.01,
    "ransac_iterations": 128,
    "min_inlier_fraction": 0.25,
    "jobs": 1,
}

EVAL_DEFAULTS = {
    "data": None,
    "preds": None,
    "out": None,
    "weights": None,  # optional; fills the report's parameter count
    "iou_samples": 20000,
}

BENCH_DEFAULTS = {
    "seed": 0,
    "data": None,
    "out": None,
    "runs": 5,
    "bandwidth": 0.05,
    "min_points": 30,
    "inlier_threshold": 0.01,
    "ransac_iterations": 128,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicitly passed flags.

    Every flag defaults to None, so None alone means "not passed"; a
    `--no-...` flag can switch off a `true` from the config file.
    """
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - set(defaults) - set(GenConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _prepare_out_dir(resolved: dict, command: str) -> Path:
    out = resolved.get("out")
    if out is None:
        out = Path("runs") / f"{command}-{time.strftime('%Y%m%dT%H%M%S')}"
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    resolved["out"] = str(out)
    with open(out / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    return out


def _require(resolved: dict, key: str, command: str):
    if resolved.get(key) is None:
        raise ConfigError(f"{command} requires --{key.replace('_', '-')}")
    return resolved[key]


def _gen_config(resolved: dict, scene_seed: int) -> GenConfig:
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in resolved.items()
        if name in GenConfig.__dataclass_fields__
    }
    overrides["rng_seed"] = scene_seed
    overrides["points_per_scene"] = resolved["points"]
    overrides["partial_view"] = bool(resolved["partial_view"])
    overrides["objects_per_scene"] = resolved["objects_per_scene"]
    return GenConfig(**overrides)


def _generate_one(task) -> dict:
    resolved, index, out = task
    scene_seed = resolved["seed"] + index
    cfg = _gen_config(resolved, scene_seed)
    scene = render_scene(generate_object(scene_seed, cfg), cfg)
    name = f"scene_{index:05d}.json"
    save_scene(scene, Path(out) / name)
    if resolved["export_ply"]:
        export_ply(scene, (Path(out) / name).with_suffix(".ply"))
    return {"file": name, "seed": scene_seed}


def cmd_generate(args) -> int:
    resolved = _resolve(args, GENERATE_DEFAULTS)
    _require(resolved, "seed", "generate")
    if resolved["count"] < 1:
        raise ConfigError("count must be >= 1")
    out = _prepare_out_dir(resolved, "generate")

    tasks = [(resolved, i, str(out)) for i in range(resolved["count"])]
    if resolved["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(resolved["jobs"]) as pool:
            entries = list(pool.map(_generate_one, tasks))
    else:
        entries = [_generate_one(t) for t in tasks]

    manifest_cfg = {
        k: v for k, v in sorted(resolved.items()) if k not in ("out", "jobs")
    }
    manifest = {
        "version": 1,
        "seed": resolved["seed"],
        "count": resolved["count"],
        "config": manifest_cfg,
        "scenes": entries,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(entries)} scenes to {out}")
    return 0


def _scene_paths(data_dir: str) -> list[Path]:
    paths = sorted(Path(data_dir).glob("scene_*.json"))
    if not paths:
        raise ConfigError(f"no scene_*.json files under {data_dir}")
    return paths


def scene_to_sample(scene: Scene) -> TrainSample:
    mask = scene.gt_semantic != 0
    npcs = np.where(mask[:, None], np.nan_to_num(scene.gt_npcs, nan=0.5), 0.5)
    return TrainSample(
        points=scene.points,
        labels=scene.gt_semantic,
        offsets=gt_offsets(scene),
        bins=encode_bins(npcs),
        part_mask=mask,
    )


def cmd_train(args) -> int:
    resolved = _resolve(args, TRAIN_DEFAULTS)
    seed = _require(resolved, "seed", "train")
    data = _require(resolved, "data", "train")
    out = _prepare_out_dir(resolved, "train")

    dataset = [scene_to_sample(load_scene(p)) for p in _scene_paths(data)]
    params = init_params(
        hidden=(resolved["hidden1"], resolved["hidden2"]),
        k=resolved["k"],
        rng_seed=seed,
    )
    cfg = TrainConfig(
        learning_rate=resolved["learning_rate"],
        momentum=resolved["momentum"],
        epochs=resolved["epochs"],
        batch_scenes=resolved["batch_scenes"],
        w_sem=resolved["w_sem"],
        w_center=resolved["w_center"],
        w_npcs=resolved["w_npcs"],
        rng_seed=seed,
        freeze=tuple(resolved["freeze"]),
    )

    weights_path = out / "weights.bin"
    rows = []

    def checkpoint(epoch, model, row):
        save_weights(model, weights_path)
        rows.append([epoch, *row.tolist()])

    try:
        trained, curve = train(params, dataset, cfg, on_epoch=checkpoint)
    finally:
        # On NonFiniteLoss the last finished epoch's weights stay on disk.
        with open(out / "loss_curve.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "total", "sem", "center", "npcs"])
            writer.writerows(rows)

    save_weights(trained, weights_path)
    print(
        f"trained {cfg.epochs} epochs on {len(dataset)} scenes; "
        f"final total loss {curve[-1, 0]:.6f} (from {curve[0, 0]:.6f})"
    )
    return 0


def _cluster_params(resolved: dict) -> ClusterParams:
    return ClusterParams(
        bandwidth=resolved["bandwidth"], min_points=resolved["min_points"]
    )


def _ransac_params(resolved: dict) -> RansacParams:
    return RansacParams(
        max_iterations=resolved["ransac_iterations"],
        inlier_threshold=resolved["inlier_threshold"],
        rng_seed=resolved["seed"],
        min_inlier_fraction=resolved.get("min_inlier_fraction", 0.25),
    )


def prediction_to_dict(pred: InstancePrediction) -> dict:
    result = pred.result
    return {
        "class": pred.semantic_class,
        "pose": {
            "s": result.transform.scale,
            "R": result.transform.rotation.reshape(-1).tolist(),
            "t": result.transform.translation.tolist(),
        },
        "size": np.asarray(result.size).tolist(),
        "axis": {
            "origin": result.axis.origin.tolist(),
            "dir": result.axis.direction.tolist(),
            "kind": result.axis.kind,
        },
        "inliers": result.inliers,
        "point_indices": pred.point_indices.tolist(),
    }


def prediction_from_dict(data: dict) -> InstancePrediction:
    pose = Sim3Transform(
        data["pose"]["s"],
        np.array(data["pose"]["R"]).reshape(3, 3),
        np.array(data["pose"]["t"]),
    )
    axis = JointAxis(
        np.array(data["axis"]["origin"]),
        np.array(data["axis"]["dir"]),
        data["axis"]["kind"],
    )
    return InstancePrediction(
        semantic_class=int(data["class"]),
        point_indices=np.array(data["point_indices"], dtype=np.int64),
        result=PoseResult(pose, np.array(data["size"]), int(data["inliers"]), axis),
    )


_WEIGHTS_CACHE: dict[str, object] = {}


def _infer_one(task) -> str:
    resolved, scene_path, out = task
    scene = load_scene(scene_path)
    if resolved["oracle"]:
        noise = OracleNoise(
            offset_sigma=resolved["offset_sigma"],
            npcs_sigma=resolved["npcs_sigma"],
            semantic_flip_prob=resolved["flip_prob"],
            rng_seed=resolved["seed"],
        )
        pred = oracle_predict(scene, noise)
    else:
        key = resolved["weights"]
        if key not in _WEIGHTS_CACHE:
            _WEIGHTS_CACHE[key] = load_weights(key)
        pred = forward(_WEIGHTS_CACHE[key], scene.points)

    instances = run_scene_pipeline(
        scene.points, pred, _cluster_params(resolved), _ransac_params(resolved)
    )
    name = Path(scene_path).name.replace("scene_", "pred_")
    payload = {
        "version": PRED_SCHEMA_VERSION,
        "scene": Path(scene_path).name,
        "instances": [prediction_to_dict(p) for p in instances],
    }
    with open(Path(out) / name, "w") as fh:
        json.dump(payload, fh)
    return name


def cmd_infer(args) -> int:
    resolved = _resolve(args, INFER_DEFAULTS)
    data = _require(resolved, "data", "infer")
    if not resolved["oracle"] and resolved["weights"] is None:
        raise ConfigError("infer requires --weights or --oracle")
    out = _prepare_out_dir(resolved, "infer")

    tasks = [(resolved, str(p), str(out)) for p in _scene_paths(data)]
    if resolved["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(resolved["jobs"]) as pool:
            names = list(pool.map(_infer_one, tasks))
    else:
        names = [_infer_one(t) for t in tasks]
    print(f"wrote {len(names)} prediction files to {out}")
    return 0


def cmd_eval(args) -> int:
    resolved = _resolve(args, EVAL_DEFAULTS)
    data = _require(resolved, "data", "eval")
    preds_dir = _require(resolved, "preds", "eval")
    out = _prepare_out_dir(resolved, "eval")

    scenes, predictions = [], []
    for scene_path in _scene_paths(data):
        pred_path = Path(preds_dir) / scene_path.name.replace("scene_", "pred_")
        if not pred_path.exists():
            raise ConfigError(f"missing prediction file {pred_path}")
        with open(pred_path) as fh:
            payload = json.load(fh)
        if payload.get("version") != PRED_SCHEMA_VERSION:
            raise ConfigError(f"unsupported prediction version in {pred_path}")
        scenes.append(load_scene(scene_path))
        predictions.append(
            [prediction_from_dict(item) for item in payload["instances"]]
        )

    param_count = None
    if resolved["weights"]:
        param_count = load_weights(resolved["weights"]).num_parameters()
    report = evaluate_scenes(
        scenes, predictions,
        iou_samples=resolved["iou_samples"], param_count=param_count,
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    table = report.to_text_table()
    (out / "report.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_bench(args) -> int:
    resolved = _resolve(args, BENCH_DEFAULTS)
    data = _require(resolved, "data", "bench")
    out = _prepare_out_dir(resolved, "bench")

    scenes = [load_scene(p) for p in _scene_paths(data)]
    prepared = [
        (scene.points, oracle_predict(scene, OracleNoise(rng_seed=resolved["seed"])))
        for scene in scenes
    ]
    cluster_params = _cluster_params(resolved)
    ransac_params = _ransac_params(resolved)

    def backend(item):
        points, pred = item
        return run_scene_pipeline(points, pred, cluster_params, ransac_params)

    report = benchmark_throughput(backend, prepared, runs=resolved["runs"])
    with open(out / "bench.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"{report['hz']:.1f} scenes/s "
        f"({report['median_seconds_per_scene'] * 1e3:.2f} ms/scene median)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yoeo",
        description="Articulated-part pose estimation on synthetic scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")

    gen = sub.add_parser("generate", help="write synthetic scenes + manifest")
    common(gen)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--count", type=int)
    gen.add_argument("--points", type=int)
    gen.add_argument("--partial-view", action=argparse.BooleanOptionalAction,
                     default=None, dest="partial_view")
    gen.add_argument("--objects-per-scene", type=int, dest="objects_per_scene")
    gen.add_argument("--export-ply", action=argparse.BooleanOptionalAction,
                     default=None, dest="export_ply")
    gen.add_argument("--jobs", type=int)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train the point-wise predictor")
    common(tr)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--data", help="directory of scene_*.json files")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--learning-rate", type=float, dest="learning_rate")
    tr.add_argument("--momentum", type=float)
    tr.add_argument("--batch-scenes", type=int, dest="batch_scenes")
    tr.add_argument("--hidden1", type=int)
    tr.add_argument("--hidden2", type=int)
    tr.add_argument("--k", type=int)
    tr.add_argument("--w-sem", type=float, dest="w_sem")
    tr.add_argument("--w-center", type=float, dest="w_center")
    tr.add_argument("--w-npcs", type=float, dest="w_npcs")
    tr.add_argument("--freeze", action="append", choices=["sem", "center", "npcs"],
                    default=None, help="freeze a head (repeatable); also pins the encoder")
    tr.set_defaults(func=cmd_train)

    inf = sub.add_parser("infer", help="predict part poses for scenes")
    common(inf)
    inf.add_argument("--seed", type=int)
    inf.add_argument("--data")
    inf.add_argument("--weights")
    inf.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=None)
    inf.add_argument("--offset-sigma", type=float, dest="offset_sigma")
    inf.add_argument("--npcs-sigma", type=float, dest="npcs_sigma")
    inf.add_argument("--flip-prob", type=float, dest="flip_prob")
    inf.add_argument("--bandwidth", type=float)
    inf.add_argument("--min-points", type=int, dest="min_points")
    inf.add_argument("--inlier-threshold", type=float, dest="inlier_threshold")
    inf.add_argument("--ransac-iterations", type=int, dest="ransac_iterations")
    inf.add_argument("--min-inlier-fraction", type=float, dest="min_inlier_fraction")
    inf.add_argument("--jobs", type=int)
    inf.set_defaults(func=cmd_infer)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    common(ev)
    ev.add_argument("--data")
    ev.add_argument("--preds")
    ev.add_argument("--weights", help="report the model's parameter count")
    ev.add_argument("--iou-samples", type=int, dest="iou_samples")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="time the geometry back-end")
    common(be)
    be.add_argument("--seed", type=int)
    be.add_argument("--data")
    be.add_argument("--runs", type=int)
    be.add_argument("--bandwidth", type=float)
    be.add_argument("--min-points", type=int, dest="min_points")
    be.add_argument("--inlier-threshold", type=float, dest="inlier_threshold")
    be.add_argument("--ransac-iterations", type=int, dest="ransac_iterations")
    be.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except YoeoError as exc:
        print(f"YOEO-E{exc.code}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"YOEO-E1: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
