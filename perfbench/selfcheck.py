"""Self-test of the benchmark's output checks, on two scenes (a few seconds).

    python3 perfbench/selfcheck.py

Each check must pass on the program's real output and fail on a
deliberately corrupted copy of it. Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run
from workloads import C8_FAMILY, ORACLE_SIGMAS, WEIGHT_SEED, scene_seeds

SEED = 2024


def turned_away(scene, inst, degrees=10.0):
    """`inst` with its pose turned `degrees` further from the ground truth
    (about the axis of its current error, so the error grows by exactly
    that much)."""
    from yoeo.geometry import Sim3Transform, rotation_about_axis

    t = inst.result.transform
    owners = scene.gt_instance[inst.point_indices]
    gt = scene.instances[np.bincount(owners[owners >= 0]).argmax()].pose.rotation
    err = t.rotation @ gt.T
    axis = np.array([err[2, 1] - err[1, 2], err[0, 2] - err[2, 0], err[1, 0] - err[0, 1]])
    if not np.linalg.norm(axis) > 0.0:
        axis = np.array([1.0, 0.0, 0.0])
    turned = rotation_about_axis(axis, np.radians(degrees)) @ t.rotation
    pose = Sim3Transform(t.scale, turned, t.translation)
    return dataclasses.replace(inst, result=dataclasses.replace(inst.result, transform=pose))


def rotate_deg(rotation: np.ndarray, degrees: float) -> np.ndarray:
    """`rotation` followed by a turn of `degrees` about the camera x axis."""
    a = np.radians(degrees)
    turn = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    return turn @ np.asarray(rotation)


def edit_json(path: Path, edit) -> None:
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def main() -> int:
    run.import_program()
    from yoeo import cli, network, pipeline, synthetic

    scenes = []
    for s in scene_seeds(SEED, 2):
        cfg = synthetic.GenConfig(rng_seed=s, **C8_FAMILY)
        scenes.append((s, synthetic.render_scene(synthetic.generate_object(s, cfg), cfg)))
    params = network.init_params(rng_seed=WEIGHT_SEED)
    cases = []  # (name, errors on real output, errors on corrupted output)

    for s, scene in scenes:
        features = network.point_features(scene.points, params.k)
        bad = features.copy()
        bad[17] += 1e-4
        cases.append((f"features, scene {s}: row perturbed",
                      checks.check_features(scene.points, params.k, features),
                      checks.check_features(scene.points, params.k, bad)))

        pred = network.forward(params, scene.points)
        offsets = pred.offsets.copy()
        offsets[17] += 1e-4
        bad_pred = dataclasses.replace(pred, offsets=offsets)
        cases.append((f"forward, scene {s}: offset row perturbed",
                      checks.check_forward(params, scene.points, pred),
                      checks.check_forward(params, scene.points, bad_pred)))

    oracle_real, oracle_turned = [], []
    gt_parts = 0
    for s, scene in scenes:
        pred = network.oracle_predict(scene, network.OracleNoise(*ORACLE_SIGMAS, rng_seed=s))
        found = pipeline.run_scene_pipeline(scene.points, pred)
        labels = pred.semantic_probs.argmax(axis=1)
        outside = dataclasses.replace(found[0], point_indices=np.append(
            found[0].point_indices, len(scene.points)))
        cases.append((f"instances, scene {s}: index out of range",
                      checks.check_instances(len(scene.points), labels, found),
                      checks.check_instances(len(scene.points), labels, [outside] + found[1:])))
        errors, poses = checks.check_oracle_scene(scene, found)
        cases.append((f"oracle matching, scene {s}: instance dropped",
                      errors, checks.check_oracle_scene(scene, found[1:])[0]))
        oracle_real += poses
        if not oracle_turned:  # one pose in the whole set
            found = [turned_away(scene, found[0])] + found[1:]
        oracle_turned += checks.check_oracle_scene(scene, found)[1]
        gt_parts += len(scene.instances)

    def a10_errors(poses):
        a10 = checks.accuracy(poses, gt_parts, 10.0, 0.10)
        return [] if a10 >= 90.0 else [f"A10 {a10:.1f}"]

    cases.append(("oracle A10: a pose rotated 10 deg",
                  a10_errors(oracle_real), a10_errors(oracle_turned)))

    work = run.OUT / f"selfcheck-{SEED}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data, preds, report = work / "data", work / "preds", work / "eval"
        for argv in (
            ["generate", "--seed", str(SEED), "--count", "2", "--out", str(data)],
            ["infer", "--oracle", "--data", str(data), "--out", str(preds)],
            ["eval", "--data", str(data), "--preds", str(preds), "--out", str(report)],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"FAIL: yoeo {argv[0]} exited non-zero")
                return 1
        real = checks.check_batch_cycle(data, preds, report, 2)

        def corrupted(name, edit_dir, edit):
            copy = work / name
            shutil.copytree(work / edit_dir, copy)
            edit(copy)
            dirs = {"preds": preds, "eval": report, edit_dir: copy}
            return checks.check_batch_cycle(data, dirs["preds"], dirs["eval"], 2)

        first = "pred_00000.json"

        def drop(d):
            edit_json(d / first, lambda p: p["instances"].pop(0))

        def turn(d):
            def edit(p):
                pose = p["instances"][0]["pose"]
                pose["R"] = rotate_deg(np.reshape(pose["R"], (3, 3)), 10.0).ravel().tolist()
            edit_json(d / first, edit)

        def recount(d):
            edit_json(d / "report.json", lambda r: r.update(matched=r["matched"] + 1))

        cases += [
            ("batch: instance dropped from a prediction file", real,
             corrupted("dropped", "preds", drop)),
            ("batch: a pose rotated 10 deg", real, corrupted("turned", "preds", turn)),
            ("batch: report.json count altered", real, corrupted("recount", "eval", recount)),
            ("batch: prediction file missing", real,
             corrupted("missing", "preds", lambda d: (d / first).unlink())),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = 0
    for name, real_errors, bad_errors in cases:
        ok = not real_errors and bool(bad_errors)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if real_errors:
            print(f"    real output rejected: {real_errors}")
        if not bad_errors:
            print("    corrupted output accepted")
    print(f"{len(cases) - failures}/{len(cases)} checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
