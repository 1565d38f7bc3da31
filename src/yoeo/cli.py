"""Command-line entry point: generate | train | infer | eval.

Each command declares its parameters once, in a table of config key ->
(type, default[, help]). A config dataclass's fields enter the table
from the dataclass, typed by their defaults, and `_build` makes the
dataclass from the resolved values. The flags (``--learning-rate`` for
``learning_rate``, plus ``--no-...`` for bool keys), the defaults and the
accepted config keys all come from the table. Parameters resolve from
the defaults, then an optional JSON config file, then explicitly passed
flags (flags win), and are echoed into the output directory. A config
key the command does not use, or a config value of the wrong type, is an
error. Every command reads all of its inputs before it writes anything.
All errors print a machine-parsable ``YOEO-E<code>:`` prefix on stderr
and exit non-zero.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, SceneFormatError, YoeoError
from .geometry import RansacParams
from .instance import ClusterParams
from .metrics import evaluate_scenes
from .network import (
    DEFAULT_HIDDEN,
    DEFAULT_K,
    OracleNoise,
    TrainConfig,
    forward,
    init_params,
    load_weights,
    oracle_predict,
    save_weights,
    scene_to_sample,
    train,
)
from .npcs import PoseResult
from .pipeline import InstancePrediction, run_scene_pipeline
from .synthetic import (
    GenConfig,
    InstanceRecord,
    Scene,
    _as_array,
    _get,
    export_ply,
    generate_object,
    load_scene,
    record_from_dict,
    record_to_dict,
    render_scene,
    save_scene,
)

PRED_SCHEMA_VERSION = 1

# Parameter tables: config key -> (type, default[, help]). A tuple type
# lists the choices of a repeatable flag; the type `tuple` is a GenConfig
# range, a list as long as its default.
OUT_PARAM = {"out": (str, None, "output directory")}

# Config dataclass fields that a key of another name sets; every other
# field is set by the key of its own name.
_FIELD_KEYS = {"rng_seed": "seed", "points_per_scene": "points",
               "semantic_flip_prob": "flip_prob", "max_iterations": "ransac_iterations"}


def _fields(cls, *skip: str) -> dict:
    """Table entries for the fields of config dataclass `cls` but `skip`:
    each under its key, typed by its default."""
    return {
        _FIELD_KEYS.get(field.name, field.name): (type(field.default), field.default)
        for field in dataclasses.fields(cls)
        if field.name not in skip
    }


GENERATE_PARAMS = {
    **OUT_PARAM,
    "seed": (int, None),
    "count": (int, 100),
    "points": (int, GenConfig.points_per_scene),
    "partial_view": (bool, GenConfig.partial_view),
    "objects_per_scene": (int, GenConfig.objects_per_scene),
    "export_ply": (bool, False),
    "jobs": (int, 1),
}

# GenConfig fields a generate config file may set (partial_view and
# objects_per_scene also have flags). rng_seed is always --seed + scene
# index, and points_per_scene always --points.
GEN_CONFIG_PARAMS = _fields(GenConfig, "rng_seed", "points_per_scene")

TRAIN_PARAMS = {
    **OUT_PARAM,
    "seed": (int, None),
    "data": (str, None, "directory of scene_*.json files"),
    **_fields(TrainConfig, "rng_seed", "freeze"),
    "hidden1": (int, DEFAULT_HIDDEN[0]),
    "hidden2": (int, DEFAULT_HIDDEN[1]),
    "k": (int, DEFAULT_K),
    "freeze": (
        ("sem", "center", "npcs"),
        TrainConfig.freeze,
        "freeze a head (repeatable); also pins the encoder",
    ),
}

INFER_PARAMS = {
    **OUT_PARAM,
    "seed": (int, RansacParams.rng_seed),
    "data": (str, None),
    "weights": (str, None),
    "oracle": (bool, False),
    **_fields(OracleNoise, "rng_seed"),
    **_fields(ClusterParams),
    **_fields(RansacParams, "rng_seed"),
    "jobs": (int, 1),
}

EVAL_PARAMS = {
    **OUT_PARAM,
    "data": (str, None),
    "preds": (str, None),
    "weights": (str, None, "report the model's parameter count"),
}

_FLAG_KEYS = {*GENERATE_PARAMS, *TRAIN_PARAMS, *INFER_PARAMS, *EVAL_PARAMS}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@contextlib.contextmanager
def _reading(what: str, path, error=ConfigError):
    """Raise a failure to read, decode or parse the file as `error` naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, SceneFormatError) as exc:
        raise error(f"{what} {path}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    with _reading("config file", path), open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: must hold a JSON object")
    return data


def _fits(value, kind, default) -> bool:
    """Whether a JSON config value fits a parameter table entry: null only
    where the default is None, a bool only for a bool key, an int (never a
    bool) for an int or float key, and lists for choices and ranges."""
    if value is None:
        return default is None
    if isinstance(kind, tuple):
        return type(value) is list and all(item in kind for item in value)
    if kind is tuple:
        return (
            type(value) is list
            and len(value) == len(default)
            and all(_fits(item, type(d), d) for item, d in zip(value, default))
        )
    return type(value) in ((int, float) if kind is float else (kind,))


def _expected(kind, default) -> str:
    if isinstance(kind, tuple):
        return f"a list of {', '.join(kind)}"
    if kind is tuple:
        return f"a list like {json.dumps(default)}"
    names = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
    return names[kind] + (" or null" if default is None else "")


def _resolve(args: argparse.Namespace, params: dict, config_only=None) -> dict:
    """Table defaults < config file < explicitly passed flags.

    Every flag defaults to None, so None alone means "not passed"; a
    `--no-...` flag can switch off a `true` from the config file.
    `config_only` is a table of extra keys the config file may set.
    """
    resolved = {key: spec[1] for key, spec in params.items()}
    if args.config:
        file_cfg = _load_config_file(args.config)
        accepted = {**(config_only or {}), **params}
        unknown = set(file_cfg) - set(accepted)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key, value in file_cfg.items():
            kind, default = accepted[key][:2]
            if not _fits(value, kind, default):
                raise ConfigError(
                    f"config field {key} must be {_expected(kind, default)}, "
                    f"not {json.dumps(value)}"
                )
        resolved.update(file_cfg)
    for key in params:
        value = getattr(args, key)
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
        raise ConfigError(f"{command} requires {_flag(key)}")
    return resolved[key]


def _require_at_least_one(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved[key] < 1:
            raise ConfigError(f"{_flag(key)} must be >= 1")


def _checked(build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a ValueError (a value out of range) or
    an OSError (an unreadable file) raised as ConfigError that names the
    flag behind each keyword. Commands build everything a run needs this
    way before they write any output."""
    try:
        return build(*args, **kwargs)
    except (OSError, ValueError) as exc:
        message = str(exc)
        for field in kwargs:
            key = _FIELD_KEYS.get(field, field)
            if key in _FLAG_KEYS:
                message = re.sub(rf"\b{field}\b", _flag(key), message)
        raise ConfigError(message) from exc


def _build(cls, resolved: dict):
    """Config dataclass `cls`, each field set from its key's resolved value
    (a list as a tuple); a field whose key is not resolved keeps its
    default."""
    values = {}
    for field in dataclasses.fields(cls):
        key = _FIELD_KEYS.get(field.name, field.name)
        if key in resolved:
            value = resolved[key]
            values[field.name] = tuple(value) if isinstance(value, list) else value
    return _checked(cls, **values)


def _run_jobs(func, tasks: list, jobs: int) -> list:
    """`func` over `tasks` in order, in `jobs` worker processes if > 1."""
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
            return list(pool.map(func, tasks))
    return [func(task) for task in tasks]


def _generate_one(task) -> dict:
    base_cfg, index, ply, out = task
    scene_seed = base_cfg.rng_seed + index
    cfg = dataclasses.replace(base_cfg, rng_seed=scene_seed)
    scene = render_scene(generate_object(scene_seed, cfg), cfg)
    name = f"scene_{index:05d}.json"
    save_scene(scene, Path(out) / name)
    if ply:
        export_ply(scene, (Path(out) / name).with_suffix(".ply"))
    return {"file": name, "seed": scene_seed}


def cmd_generate(args) -> int:
    resolved = _resolve(args, GENERATE_PARAMS, GEN_CONFIG_PARAMS)
    _require(resolved, "seed", "generate")
    _require_at_least_one(resolved, "count", "jobs")
    cfg = _build(GenConfig, resolved)
    out = _prepare_out_dir(resolved, "generate")

    ply = resolved["export_ply"]
    tasks = [(cfg, i, ply, str(out)) for i in range(resolved["count"])]
    entries = _run_jobs(_generate_one, tasks, resolved["jobs"])

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


def _scene_files(data_dir: str) -> list[Path]:
    """The scene_*.json files under `data_dir`, in name order."""
    paths = sorted(Path(data_dir).glob("scene_*.json"))
    if not paths:
        raise ConfigError(f"no scene_*.json files under {data_dir}")
    return paths


def _load_scene(path: Path) -> Scene:
    with _reading("scene file", path, SceneFormatError):
        return load_scene(path)


def _load_scenes(data_dir: str) -> dict[str, Scene]:
    """Every scene under `data_dir` by file name, loaded and checked; the
    commands that need them all call this before they write any output."""
    return {path.name: _load_scene(path) for path in _scene_files(data_dir)}


def cmd_train(args) -> int:
    resolved = _resolve(args, TRAIN_PARAMS)
    seed = _require(resolved, "seed", "train")
    data = _require(resolved, "data", "train")
    _require_at_least_one(resolved, "hidden1", "hidden2", "k")
    params = init_params(
        hidden=(resolved["hidden1"], resolved["hidden2"]), k=resolved["k"], rng_seed=seed
    )
    cfg = _build(TrainConfig, resolved)
    dataset = [scene_to_sample(scene) for scene in _load_scenes(data).values()]
    out = _prepare_out_dir(resolved, "train")

    weights_path = out / "weights.bin"
    rows = []

    def checkpoint(epoch, model, row):
        save_weights(model, weights_path)
        rows.append([epoch, *row.tolist()])

    # `checkpoint` runs after every epoch, so the last one writes the
    # trained weights.
    try:
        _, curve = train(params, dataset, cfg, on_epoch=checkpoint)
    finally:
        # On NonFiniteLoss the last finished epoch's weights stay on disk.
        with open(out / "loss_curve.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "total", "sem", "center", "npcs"])
            writer.writerows(rows)

    print(
        f"trained {cfg.epochs} epochs on {len(dataset)} scenes; "
        f"final total loss {curve[-1, 0]:.6f} (from {curve[0, 0]:.6f})"
    )
    return 0


def prediction_to_dict(pred: InstancePrediction) -> dict:
    result = pred.result
    record = InstanceRecord(
        pred.semantic_class, result.transform, result.size, result.axis
    )
    return {
        **record_to_dict(record),
        "inliers": result.inliers,
        "point_indices": pred.point_indices.tolist(),
    }


def prediction_from_dict(data, n_points: int) -> InstancePrediction:
    """Inverse of `prediction_to_dict`; raises SceneFormatError for a
    malformed record, `point_indices` that is not a list of integers in
    [0, n_points) or `inliers` that is not one integer."""
    record = record_from_dict(data)
    point_indices = _as_array(
        _get(data, "point_indices", "instance"), np.int64, "point_indices"
    )
    inliers = _as_array(_get(data, "inliers", "instance"), np.int64, "inliers")
    if point_indices.ndim != 1 or inliers.ndim != 0:
        raise SceneFormatError("point_indices must be a list and inliers a number")
    if ((point_indices < 0) | (point_indices >= n_points)).any():
        raise SceneFormatError(f"point_indices must lie in [0, {n_points})")
    return InstancePrediction(
        semantic_class=record.semantic_class,
        point_indices=point_indices,
        result=PoseResult(record.pose, record.size, int(inliers), record.axis),
    )


def _read_predictions(path: Path, n_points: int) -> list[InstancePrediction]:
    """The instances of one prediction file for a scene of `n_points`; an
    unreadable file, text that is not UTF-8 JSON, or a malformed payload or
    record raises ConfigError that names the file."""
    with _reading("prediction file", path):
        with open(path) as fh:
            payload = json.load(fh)
        version = _get(payload, "version", "prediction")
        if version != PRED_SCHEMA_VERSION:
            raise SceneFormatError(f"unsupported prediction version {version!r}")
        instances = _get(payload, "instances", "prediction")
        if not isinstance(instances, list):
            raise SceneFormatError("prediction instances must be a list")
        return [prediction_from_dict(item, n_points) for item in instances]


def _infer_one(task) -> tuple[str, str]:
    """The prediction file name and text for one scene file; writes nothing."""
    noise, weights, cluster, ransac, scene_path = task
    scene = _load_scene(scene_path)
    if weights is None:
        pred = oracle_predict(scene, noise)
    else:
        pred = forward(weights, scene.points)
    instances = run_scene_pipeline(scene.points, pred, cluster, ransac)
    payload = {
        "version": PRED_SCHEMA_VERSION,
        "scene": scene_path.name,
        "instances": [prediction_to_dict(p) for p in instances],
    }
    # dumps, not dump: the C encoder, same bytes (see synthetic.save_scene).
    return scene_path.name.replace("scene_", "pred_"), json.dumps(payload)


def cmd_infer(args) -> int:
    resolved = _resolve(args, INFER_PARAMS)
    data = _require(resolved, "data", "infer")
    if not resolved["oracle"] and resolved["weights"] is None:
        raise ConfigError("infer requires --weights or --oracle")
    if resolved["oracle"] and resolved["weights"] is not None:
        raise ConfigError("infer takes --weights or --oracle, not both")
    if not resolved["oracle"]:
        ignored = [key for key in _fields(OracleNoise, "rng_seed") if resolved[key] != 0]
        if ignored:
            raise ConfigError(f"oracle noise ({', '.join(ignored)}) needs --oracle")
    _require_at_least_one(resolved, "jobs")
    noise = _build(OracleNoise, resolved)
    weights = None if resolved["oracle"] else _checked(load_weights, resolved["weights"])
    cluster = _build(ClusterParams, resolved)
    ransac = _build(RansacParams, resolved)

    # Each worker reads its own scene; the files are written only once every
    # scene has been read and inferred, so a bad scene leaves no output.
    tasks = [(noise, weights, cluster, ransac, path) for path in _scene_files(data)]
    files = _run_jobs(_infer_one, tasks, resolved["jobs"])
    out = _prepare_out_dir(resolved, "infer")
    for name, text in files:
        (out / name).write_text(text)
    print(f"wrote {len(files)} prediction files to {out}")
    return 0


def cmd_eval(args) -> int:
    resolved = _resolve(args, EVAL_PARAMS)
    data = _require(resolved, "data", "eval")
    preds = Path(_require(resolved, "preds", "eval"))

    scenes = _load_scenes(data)
    predictions = [
        _read_predictions(preds / name.replace("scene_", "pred_"), len(scene.points))
        for name, scene in scenes.items()
    ]

    param_count = None
    if resolved["weights"]:
        param_count = _checked(load_weights, resolved["weights"]).num_parameters()
    out = _prepare_out_dir(resolved, "eval")
    report = evaluate_scenes(list(scenes.values()), predictions, param_count=param_count)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    table = report.to_text_table()
    (out / "report.txt").write_text(table + "\n")
    print(table)
    return 0


def _add_flags(parser: argparse.ArgumentParser, params: dict) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key, (kind, _default, *help_) in params.items():
        options = {"dest": key, "default": None, "help": help_[0] if help_ else None}
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        elif isinstance(kind, tuple):
            options.update(action="append", choices=kind)
        else:
            options["type"] = kind
        parser.add_argument(_flag(key), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yoeo",
        description="Articulated-part pose estimation on synthetic scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, params, help_ in (
        ("generate", cmd_generate, GENERATE_PARAMS, "write synthetic scenes + manifest"),
        ("train", cmd_train, TRAIN_PARAMS, "train the point-wise predictor"),
        ("infer", cmd_infer, INFER_PARAMS, "predict part poses for scenes"),
        ("eval", cmd_eval, EVAL_PARAMS, "score predictions against ground truth"),
    ):
        command = sub.add_parser(name, help=help_)
        _add_flags(command, params)
        command.set_defaults(func=func)
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
