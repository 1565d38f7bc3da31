import argparse
import base64
import dataclasses
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from yoeo import cli, errors
from yoeo.cli import (
    _FIELD_KEYS,
    GEN_CONFIG_PARAMS,
    GENERATE_PARAMS,
    INFER_PARAMS,
    PRED_SCHEMA_VERSION,
    TRAIN_PARAMS,
    _build,
    build_parser,
    main,
    prediction_to_dict,
)
from yoeo.geometry import RansacParams
from yoeo.instance import ClusterParams
from yoeo.network import (
    OracleNoise,
    TrainConfig,
    init_params,
    load_weights,
    oracle_predict,
    save_weights,
    scene_to_sample,
    train,
)
from yoeo.pipeline import run_scene_pipeline
from yoeo.synthetic import GenConfig, generate_object, load_scene, render_scene


def run(*argv):
    return main([str(a) for a in argv])


def encode_rows(rows):
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def decode_rows(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, 3).copy()


def generate(tmp_path, name="data", seed=1, count=4, points=768, extra=()):
    out = tmp_path / name
    code = run("generate", "--seed", seed, "--count", count,
               "--points", points, "--out", out, *extra)
    assert code == 0
    return out


def scale_points(data, factor=1e200):
    """Multiply the points of a generated set's first scene by `factor`."""
    scene_file = data / "scene_00000.json"
    payload = json.loads(scene_file.read_text())
    payload["points"] = encode_rows(decode_rows(payload["points"]) * factor)
    scene_file.write_text(json.dumps(payload))
    return data


def assert_huge_coordinates_rejected(code, capsys):
    # Finite points far past any scene stop at load with one message,
    # not a k-NN or clustering overflow downstream.
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("YOEO-E19:") and "within ±1e+06 m" in err


class TestGenerate:
    def test_writes_scenes_and_manifest(self, tmp_path):
        out = generate(tmp_path, count=3)
        files = sorted(p.name for p in out.glob("scene_*.json"))
        assert files == ["scene_00000.json", "scene_00001.json", "scene_00002.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count"] == 3
        assert [s["file"] for s in manifest["scenes"]] == files
        assert (out / "resolved_config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = generate(tmp_path, name="a", seed=5, count=3)
        b = generate(tmp_path, name="b", seed=5, count=3)
        for name in ["manifest.json"] + [f"scene_{i:05d}.json" for i in range(3)]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_scene_file_fields(self, tmp_path):
        # Readers of the labels and instance records parse them as plain JSON.
        out = generate(tmp_path, count=2)
        for path in sorted(out.glob("scene_*.json")):
            data = json.loads(path.read_text())
            scene = load_scene(path)
            assert data["version"] == 2
            assert isinstance(data["points"], str) and isinstance(data["gt_npcs"], str)
            assert data["gt_semantic"] == scene.gt_semantic.tolist()
            assert data["gt_instance"] == scene.gt_instance.tolist()
            assert all(type(v) is int for v in data["gt_semantic"] + data["gt_instance"])
            assert isinstance(data["instances"], list) and data["instances"]
            for item, record in zip(data["instances"], scene.instances):
                assert item["class"] == record.semantic_class
                assert item["pose"]["R"] == record.pose.rotation.reshape(-1).tolist()
                assert item["pose"]["t"] == record.pose.translation.tolist()
                assert item["axis"]["kind"] == record.axis.kind
            assert len(data["camera_pose"]["R"]) == 9

    def test_count_zero_rejected(self, tmp_path, capsys):
        code = run("generate", "--seed", 1, "--count", 0, "--out", tmp_path / "x")
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E")
        assert "count must be >= 1" in err

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "x"
        code = run("generate", "--seed", 1, "--count", 1, "--jobs", jobs, "--out", out)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:") and "jobs must be >= 1" in err
        assert not out.exists()

    def test_missing_seed_rejected(self, tmp_path, capsys):
        code = run("generate", "--count", 1, "--out", tmp_path / "x")
        assert code != 0
        assert "YOEO-E" in capsys.readouterr().err

    def test_export_ply(self, tmp_path):
        out = generate(tmp_path, name="ply", count=1, extra=("--export-ply",))
        assert (out / "scene_00000.ply").exists()

    def test_parallel_jobs_match_sequential_output(self, tmp_path):
        seq = generate(tmp_path, name="seq", seed=21, count=4, points=512)
        par = generate(tmp_path, name="par", seed=21, count=4, points=512,
                       extra=("--jobs", "2"))
        for i in range(4):
            name = f"scene_{i:05d}.json"
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "count": 5, "points": 768}))
        out = tmp_path / "cfgrun"
        assert run("generate", "--config", cfg, "--count", 2, "--out", out) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 9  # from config file
        assert resolved["count"] == 2  # flag wins
        assert len(list(out.glob("scene_*.json"))) == 2

    @pytest.mark.parametrize("key, value", [("points_per_scene", 1024), ("rng_seed", 77)])
    def test_overwritten_gen_config_key_rejected(self, tmp_path, capsys, key, value):
        # --points and --seed always set these, so a config value would be ignored.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = run("generate", "--config", cfg, "--seed", 1, "--count", 1,
                   "--out", tmp_path / "x")
        assert code != 0
        assert "unknown config fields" in capsys.readouterr().err

    def test_gen_config_field_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"drawer_count": [2, 2]}))
        out = generate(tmp_path, count=3, points=512, extra=("--config", cfg))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["drawer_count"] == [2, 2]
        for scene in sorted(out.glob("scene_*.json")):
            classes = [i["class"] for i in json.loads(scene.read_text())["instances"]]
            assert classes.count(1) == 2

    def test_invalid_config_json_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        code = run("generate", "--config", cfg, "--seed", 1, "--out", tmp_path / "x")
        assert code != 0
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_non_utf8_config_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "x"
        code = run("generate", "--config", cfg, "--seed", 1, "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"YOEO-E2: config file {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("drawer_count", [3, 1]), ("handle_count", [-1, 1]),
         ("body_extents_range", [0.9, 0.1]), ("camera_distance_range", [2.0, 1.2])],
    )
    def test_inverted_range_rejected_before_output(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        code = run("generate", "--config", cfg, "--seed", 1, "--count", 1, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:") and key in err
        assert not out.exists()


class TestTrain:
    def test_loss_curve_and_weights(self, tmp_path):
        data = generate(tmp_path, count=6, points=512)
        out = tmp_path / "model"
        code = run("train", "--seed", 2, "--data", data, "--out", out,
                   "--epochs", 4, "--hidden1", 12, "--hidden2", 16, "--k", 8)
        assert code == 0
        rows = (out / "loss_curve.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,total,sem,center,npcs"
        first = float(rows[1].split(",")[1])
        last = float(rows[-1].split(",")[1])
        assert last < first
        assert (out / "weights.bin").exists()

    def test_freeze_only_semantic_head_changes(self, tmp_path):
        data = generate(tmp_path, name="fdata", count=4, points=512)
        out = tmp_path / "frozen"
        code = run("train", "--seed", 3, "--data", data, "--out", out,
                   "--epochs", 2, "--hidden1", 12, "--hidden2", 16, "--k", 8,
                   "--freeze", "center", "--freeze", "npcs")
        assert code == 0
        trained = load_weights(out / "weights.bin")
        initial = init_params(hidden=(12, 16), k=8, rng_seed=3)
        changed = {
            name
            for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                         "w_off", "b_off", "w_npcs", "b_npcs")
            if not np.array_equal(getattr(trained, name), getattr(initial, name))
        }
        assert changed == {"w_sem", "b_sem"}

    def test_missing_dataset_clean_error(self, tmp_path, capsys):
        code = run("train", "--seed", 1, "--data", tmp_path / "nope",
                   "--out", tmp_path / "m")
        assert code != 0
        assert capsys.readouterr().err.startswith("YOEO-E")

    def test_gen_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"drawer_count": [2, 2]}))
        code = run("train", "--config", cfg, "--seed", 1, "--data", tmp_path,
                   "--out", tmp_path / "m")
        assert code != 0
        assert "unknown config fields" in capsys.readouterr().err

    def test_non_finite_data_aborts_with_error_code(self, tmp_path, capsys):
        data = generate(tmp_path, name="nandata", count=2, points=512)
        scene_file = data / "scene_00000.json"
        payload = json.loads(scene_file.read_text())
        points = decode_rows(payload["points"])
        points[0, 0] = float("nan")
        payload["points"] = encode_rows(points)
        scene_file.write_text(json.dumps(payload))
        code = run("train", "--seed", 1, "--data", data, "--out", tmp_path / "m2",
                   "--epochs", 2, "--hidden1", 8, "--hidden2", 8, "--k", 4)
        assert code != 0
        # Rejected at load, before any epoch runs.
        err = capsys.readouterr().err
        assert "YOEO-E19" in err and "points must be finite" in err

    def test_huge_coordinates_rejected_at_load(self, tmp_path, capsys):
        data = scale_points(generate(tmp_path, name="hugedata", count=1, points=512))
        code = run("train", "--seed", 1, "--data", data, "--out", tmp_path / "m",
                   "--epochs", 2, "--hidden1", 8, "--hidden2", 8, "--k", 4)
        assert_huge_coordinates_rejected(code, capsys)

    def test_rerun_is_byte_identical(self, tmp_path):
        data = generate(tmp_path, name="ddata", count=4, points=512)
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run("train", "--seed", 4, "--data", data, "--out", out,
                       "--epochs", 3, "--hidden1", 12, "--hidden2", 16,
                       "--k", 8) == 0
            outs.append(out)
        assert (outs[0] / "weights.bin").read_bytes() == (outs[1] / "weights.bin").read_bytes()
        assert (outs[0] / "loss_curve.csv").read_bytes() == (outs[1] / "loss_curve.csv").read_bytes()

    def test_weights_match_training_on_rendered_scenes(self, tmp_path):
        data = generate(tmp_path, name="tdata", seed=6, count=3, points=512)
        out = tmp_path / "m"
        assert run("train", "--seed", 4, "--data", data, "--out", out,
                   "--epochs", 2, "--hidden1", 12, "--hidden2", 16, "--k", 8) == 0
        dataset = []
        for seed in (6, 7, 8):
            cfg = GenConfig(rng_seed=seed, points_per_scene=512)
            dataset.append(scene_to_sample(render_scene(generate_object(seed, cfg), cfg)))
        trained, _ = train(init_params(hidden=(12, 16), k=8, rng_seed=4), dataset,
                           TrainConfig(epochs=2, rng_seed=4))
        save_weights(trained, tmp_path / "memory.bin")
        assert (out / "weights.bin").read_bytes() == (tmp_path / "memory.bin").read_bytes()


class TestInfer:
    def test_oracle_roundtrip_and_schema(self, tmp_path):
        data = generate(tmp_path, count=3)
        out = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", out) == 0
        files = sorted(out.glob("pred_*.json"))
        assert len(files) == 3
        payload = json.loads(files[0].read_text())
        assert payload["version"] == 1
        assert payload["scene"] == "scene_00000.json"
        for inst in payload["instances"]:
            assert set(inst) == {"class", "pose", "size", "axis", "inliers",
                                 "point_indices"}
            assert len(inst["pose"]["R"]) == 9
            assert inst["axis"]["kind"] in ("revolute", "prismatic")

    def test_rerun_is_byte_identical(self, tmp_path):
        data = generate(tmp_path, count=3)
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert run("infer", "--data", data, "--oracle", "--out", out) == 0
            outs.append(out)
        for f in sorted(outs[0].glob("pred_*.json")):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes()

    def test_prediction_file_matches_streamed_json(self, tmp_path):
        data = generate(tmp_path, count=3)
        out = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", out) == 0
        for scene_path in sorted(data.glob("scene_*.json")):
            scene = load_scene(scene_path)
            pred = oracle_predict(scene, OracleNoise())
            instances = run_scene_pipeline(scene.points, pred)
            assert instances
            payload = {
                "version": PRED_SCHEMA_VERSION,
                "scene": scene_path.name,
                "instances": [prediction_to_dict(p) for p in instances],
            }
            streamed = io.StringIO()
            json.dump(payload, streamed)
            written = (out / scene_path.name.replace("scene_", "pred_")).read_text()
            assert written == json.dumps(payload) == streamed.getvalue()

    @pytest.mark.parametrize(
        "key, reshape",
        [
            ("points", lambda text: encode_rows(decode_rows(text))[:-4]),  # 3 bytes short
            ("gt_npcs", lambda text: encode_rows(decode_rows(text)[:-1])),
            ("gt_semantic", lambda rows: rows + [0]),
        ],
    )
    def test_malformed_scene_file_error(self, tmp_path, capsys, key, reshape):
        data = generate(tmp_path, count=1)
        path = data / "scene_00000.json"
        scene = json.loads(path.read_text())
        scene[key] = reshape(scene[key])
        path.write_text(json.dumps(scene))
        code = run("infer", "--data", data, "--oracle", "--out", tmp_path / "p")
        assert code == 1
        assert "YOEO-E19" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: [d], id="top-level-list"),
            pytest.param(lambda d: {k: v for k, v in d.items() if k != "points"},
                         id="missing-points"),
            pytest.param(lambda d: {k: v for k, v in d.items() if k != "camera_pose"},
                         id="missing-camera-pose"),
            pytest.param(lambda d: {**d, "points": decode_rows(d["points"]).tolist()},
                         id="points-as-rows"),
            pytest.param(lambda d: {**d, "points": "*" + d["points"][1:]},
                         id="points-bad-base64"),
            pytest.param(lambda d: {**d, "gt_npcs": encode_rows(decode_rows(d["gt_npcs"]))[:-4]},
                         id="npcs-bytes-not-rows"),
            pytest.param(lambda d: {**d, "gt_npcs": encode_rows(
                np.where(np.arange(3) == 0, np.nan, decode_rows(d["gt_npcs"])))},
                         id="npcs-partly-nan-rows"),
            pytest.param(lambda d: {**d, "instances": [{**d["instances"][0], "size": [0.1]}]},
                         id="instance-size-1"),
            pytest.param(lambda d: {**d, "instances": [
                {**d["instances"][0], "pose": {**d["instances"][0]["pose"], "R": [1.0] * 8}}]},
                         id="instance-R-8"),
            pytest.param(lambda d: {**d, "instances": [
                {**d["instances"][0], "axis": {**d["instances"][0]["axis"], "kind": "screw"}}]},
                         id="instance-kind"),
            pytest.param(lambda d: {**d, "camera_pose": {**d["camera_pose"], "t": [0.0]}},
                         id="camera-t-1"),
            # An extra record that no point belongs to, so only its class is wrong.
            *(
                pytest.param(lambda d, c=cls: {**d, "instances": [
                    *d["instances"], {**d["instances"][0], "class": c}]},
                             id=f"instance-class-{cls}")
                for cls in (99, 0, 1.5)
            ),
        ],
    )
    def test_malformed_scene_file_cases(self, tmp_path, capsys, edit):
        data = generate(tmp_path, count=1)
        path = data / "scene_00000.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code = run("infer", "--data", data, "--oracle", "--out", tmp_path / "p")
        assert code == 1
        assert "YOEO-E19" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_scene_stops_the_run_before_output(self, tmp_path, capsys, jobs):
        # infer writes only once every scene has been read and inferred, so
        # a bad middle scene leaves no predictions of the scenes around it.
        data = generate(tmp_path, count=3)
        path = data / "scene_00001.json"
        scene = json.loads(path.read_text())
        scene["gt_semantic"][0] = 7
        path.write_text(json.dumps(scene))
        out = tmp_path / "p"
        code = run("infer", "--data", data, "--oracle", "--jobs", jobs, "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith("YOEO-E19:")
        assert not out.exists()

    def test_failure_during_inference_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        data = generate(tmp_path, count=3)
        calls = []
        pipeline = cli.run_scene_pipeline

        def fail_on_second_scene(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("pipeline failed")
            return pipeline(*args)

        monkeypatch.setattr(cli, "run_scene_pipeline", fail_on_second_scene)
        out = tmp_path / "p"
        code = run("infer", "--data", data, "--oracle", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == "YOEO-E1: pipeline failed\n"
        assert not out.exists()

    def test_version_1_scene_file_asks_to_regenerate(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        path = data / "scene_00000.json"
        scene = json.loads(path.read_text())
        npcs = decode_rows(scene["gt_npcs"])
        scene.update(
            version=1,
            points=decode_rows(scene["points"]).tolist(),
            gt_npcs=[None if np.isnan(row).any() else row for row in npcs.tolist()],
        )
        path.write_text(json.dumps(scene))
        for command in (["infer", "--oracle"], ["train", "--seed", 1]):
            code = run(*command, "--data", data, "--out", tmp_path / "p")
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("YOEO-E19:")
            assert "regenerate it with `yoeo generate`" in err

    @pytest.mark.parametrize("label", [7, 4, -1])
    def test_semantic_label_outside_classes_rejected(self, tmp_path, capsys, label):
        data = generate(tmp_path, count=1)
        path = data / "scene_00000.json"
        scene = json.loads(path.read_text())
        scene["gt_semantic"][0] = label
        path.write_text(json.dumps(scene))
        for command in (["infer", "--oracle"], ["train", "--seed", 1]):
            code = run(*command, "--data", data, "--out", tmp_path / "p")
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("YOEO-E19:")
            assert f"gt_semantic class {label} is outside [0, 4)" in err

    def test_label_disagreeing_with_instance_rejected(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        path = data / "scene_00000.json"
        scene = json.loads(path.read_text())
        point = scene["gt_instance"].index(-1)
        scene["gt_semantic"][point] = 1
        path.write_text(json.dumps(scene))
        code = run("infer", "--data", data, "--oracle", "--out", tmp_path / "p")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E19:")
        assert f"point {point} has gt_semantic 1 but its gt_instance -1 is class 0" in err

    @pytest.mark.parametrize("weights", [False, True], ids=["oracle", "weights"])
    def test_huge_coordinates_rejected_at_load(self, tmp_path, capsys, weights):
        data = scale_points(generate(tmp_path, count=1, points=512))
        source = ["--oracle"]
        if weights:
            source = ["--weights", tmp_path / "w.bin"]
            save_weights(init_params(hidden=(12, 16), k=8, rng_seed=10), source[1])
        code = run("infer", "--data", data, *source, "--out", tmp_path / "p")
        assert_huge_coordinates_rejected(code, capsys)

    def test_corrupt_weights_magic_error(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        code = run("infer", "--data", data, "--weights", bad,
                   "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E18" in capsys.readouterr().err

    def test_truncated_weights_header_error(self, tmp_path, capsys):
        data = generate(tmp_path, count=1, points=512)
        bad = tmp_path / "bad.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=10), bad)
        bad.write_bytes(bad.read_bytes()[:8])
        code = run("infer", "--data", data, "--weights", bad,
                   "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E18" in capsys.readouterr().err

    def test_inconsistent_weights_layout_error(self, tmp_path, capsys):
        data = generate(tmp_path, count=1, points=512)
        params = init_params(hidden=(12, 16), k=8, rng_seed=9)
        params.w2 = params.w2[:-1]
        bad = tmp_path / "bad.bin"
        save_weights(params, bad)
        code = run("infer", "--data", data, "--weights", bad,
                   "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E18" in capsys.readouterr().err

    def test_rewritten_weights_file_is_reloaded(self, tmp_path, capsys):
        data = generate(tmp_path, count=1, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=7), weights)
        assert run("infer", "--data", data, "--weights", weights,
                   "--out", tmp_path / "p1") == 0
        weights.write_bytes(b"XXXX" + b"\x00" * 64)
        code = run("infer", "--data", data, "--weights", weights,
                   "--out", tmp_path / "p2")
        assert code != 0
        assert "YOEO-E18" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["oracle", "weights"])
    def test_parallel_jobs_match_sequential_output(self, tmp_path, mode):
        data = generate(tmp_path, count=4, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=8), weights)
        source = {"oracle": ("--oracle", "--offset-sigma", 0.003),
                  "weights": ("--weights", weights)}[mode]
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run("infer", "--data", data, *source, "--out", seq) == 0
        assert run("infer", "--data", data, *source, "--jobs", 2, "--out", par) == 0
        files = sorted(p.name for p in seq.glob("pred_*.json"))
        assert len(files) == 4
        for name in files:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    def test_requires_weights_or_oracle(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        code = run("infer", "--data", data, "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flags", "config"])
    def test_oracle_with_weights_rejected(self, tmp_path, capsys, via):
        data = generate(tmp_path, count=1, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=6), weights)
        out = tmp_path / "p"
        if via == "flags":
            code = run("infer", "--data", data, "--oracle", "--weights", weights,
                       "--out", out)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"oracle": True, "weights": str(weights)}))
            code = run("infer", "--config", cfg, "--data", data, "--out", out)
        assert code != 0
        assert "YOEO-E2:" in capsys.readouterr().err
        assert not list(out.glob("pred_*.json"))

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize(
        "key, value", [("offset_sigma", 0.5), ("npcs_sigma", 0.01), ("flip_prob", 0.9)]
    )
    def test_oracle_noise_without_oracle_rejected(
        self, tmp_path, capsys, via, key, value
    ):
        # The network path has no noise to add; the value would be ignored.
        data = generate(tmp_path, count=1, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=6), weights)
        out = tmp_path / "p"
        if via == "flags":
            code = run("infer", "--data", data, "--weights", weights,
                       "--" + key.replace("_", "-"), value, "--out", out)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"weights": str(weights), key: value}))
            code = run("infer", "--config", cfg, "--data", data, "--out", out)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:") and key in err and "--oracle" in err
        assert not out.exists()

    def test_weights_run_config_with_zero_noise_round_trips(self, tmp_path):
        data = generate(tmp_path, count=2, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=6), weights)
        out = tmp_path / "p"
        assert run("infer", "--data", data, "--weights", weights, "--offset-sigma", 0,
                   "--flip-prob", 0.0, "--out", out) == 0
        echoed = (out / "resolved_config.json").read_bytes()
        resolved = json.loads(echoed)
        assert [resolved[k] for k in ("offset_sigma", "npcs_sigma", "flip_prob")] == [
            0, 0, 0
        ]
        preds = {f.name: f.read_bytes() for f in out.glob("pred_*.json")}
        assert len(preds) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(echoed)
        assert run("infer", "--config", cfg) == 0
        assert (out / "resolved_config.json").read_bytes() == echoed
        assert {f.name: f.read_bytes() for f in out.glob("pred_*.json")} == preds

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        data = generate(tmp_path, count=1, points=512)
        out = tmp_path / "p"
        code = run("infer", "--data", data, "--oracle", "--jobs", jobs, "--out", out)
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:") and "jobs must be >= 1" in err
        assert not out.exists()

    def test_trained_weights_produce_valid_json(self, tmp_path):
        data = generate(tmp_path, count=3, points=512)
        model = tmp_path / "model"
        assert run("train", "--seed", 5, "--data", data, "--out", model,
                   "--epochs", 2, "--hidden1", 12, "--hidden2", 16, "--k", 8) == 0
        out = tmp_path / "netpreds"
        assert run("infer", "--data", data, "--weights", model / "weights.bin",
                   "--out", out) == 0
        for f in out.glob("pred_*.json"):
            payload = json.loads(f.read_text())
            assert payload["version"] == 1


    def test_no_oracle_flag_overrides_config_true(self, tmp_path):
        data = generate(tmp_path, count=2, points=512)
        weights = tmp_path / "w.bin"
        save_weights(init_params(hidden=(12, 16), k=8, rng_seed=6), weights)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": True}))
        out = tmp_path / "overridden"
        assert run("infer", "--config", cfg, "--no-oracle", "--data", data,
                   "--weights", weights, "--out", out) == 0
        assert json.loads((out / "resolved_config.json").read_text())["oracle"] is False
        # Same files as a plain network run, so the oracle was not used.
        plain = tmp_path / "plain"
        assert run("infer", "--data", data, "--weights", weights, "--out", plain) == 0
        for f in sorted(plain.glob("pred_*.json")):
            assert f.read_bytes() == (out / f.name).read_bytes()


NOISY_ORACLE = ("--oracle", "--offset-sigma", 0.005, "--npcs-sigma", 0.01)


def read_preds(out):
    return {f.name: f.read_bytes() for f in sorted(out.glob("pred_*.json"))}


def instance_counts(preds):
    return [len(json.loads(text)["instances"]) for text in preds.values()]


@pytest.fixture(scope="module")
def noisy_oracle_preds(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy")
    data = generate(root, count=4, points=768)
    preds = root / "preds"
    assert run("infer", "--data", data, *NOISY_ORACLE, "--out", preds) == 0
    return data, read_preds(preds)


@pytest.mark.parametrize(
    "flag, value, effect",
    [
        ("--min-points", 100000, "none"),  # above every part's point count
        ("--bandwidth", 1e-6, "none"),  # no two noisy votes join
        ("--inlier-threshold", 1e-9, "none"),  # no noisy residual is that small
        ("--min-inlier-fraction", 1.0, "fewer"),  # some noisy part has outliers
        ("--ransac-iterations", 1, "changed"),
    ],
)
def test_infer_back_end_flag_reaches_the_back_end(
    tmp_path, noisy_oracle_preds, flag, value, effect
):
    data, base = noisy_oracle_preds
    out = tmp_path / "p"
    assert run("infer", "--data", data, *NOISY_ORACLE, flag, value, "--out", out) == 0
    preds = read_preds(out)
    assert preds.keys() == base.keys() and preds != base
    counts, base_counts = instance_counts(preds), instance_counts(base)
    if effect == "none":
        assert counts == [0] * len(base) and sum(base_counts) > 0
    elif effect == "fewer":
        assert sum(counts) < sum(base_counts)


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("generate", {"count": "3"}, "count"),
        ("generate", {"drawer_count": 5}, "drawer_count"),
        ("generate", {"drawer_count": [1, 2.0]}, "drawer_count"),
        ("generate", {"body_extents_range": [0.3]}, "body_extents_range"),
        ("generate", {"partial_view": "no"}, "partial_view"),
        ("generate", {"min_part_points": True}, "min_part_points"),
        ("generate", {"jobs": None}, "jobs"),
        ("train", {"freeze": ["sem", "heads"]}, "freeze"),
        ("train", {"freeze": "sem"}, "freeze"),
        ("train", {"learning_rate": "0.1"}, "learning_rate"),
        ("infer", {"ransac_iterations": 2.5}, "ransac_iterations"),
        ("infer", {"oracle": 1}, "oracle"),
        ("infer", {"data": 7}, "data"),
        ("eval", {"weights": False}, "weights"),
    ],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run(command, "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("YOEO-E2:") and f"config field {key} " in err
    assert not out.exists()


def test_config_value_of_right_type_accepted(tmp_path):
    # An int fits a float key and a range of floats; null fits a None default.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"body_extents_range": [0, 1], "export_ply": False}))
    out = generate(tmp_path, count=1, points=512, extra=("--config", cfg))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["body_extents_range"] == [0, 1]
    cfg.write_text(json.dumps({"weights": None, "offset_sigma": 0, "bandwidth": 1}))
    assert run("infer", "--config", cfg, "--data", out, "--oracle",
               "--out", tmp_path / "p") == 0


class TestEval:
    def test_perfect_oracle_scores_full_accuracy(self, tmp_path, capsys):
        data = generate(tmp_path, count=3)
        preds = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
        out = tmp_path / "eval"
        assert run("eval", "--data", data, "--preds", preds, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["a5"] == 100.0
        assert report["a10"] == 100.0
        assert report["missed"] == 0
        assert "A10" in capsys.readouterr().out

    def test_empty_predictions_zero_accuracy(self, tmp_path):
        data = generate(tmp_path, count=2)
        preds = tmp_path / "empty"
        preds.mkdir()
        for scene in sorted(data.glob("scene_*.json")):
            payload = {"version": 1, "scene": scene.name, "instances": []}
            (preds / scene.name.replace("scene_", "pred_")).write_text(
                json.dumps(payload)
            )
        out = tmp_path / "eval"
        assert run("eval", "--data", data, "--preds", preds, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["a5"] == 0.0
        assert report["a10"] == 0.0

    def test_rerun_identical_report(self, tmp_path):
        data = generate(tmp_path, count=2)
        preds = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert run("eval", "--data", data, "--preds", preds, "--out", out) == 0
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_huge_coordinates_rejected_at_load(self, tmp_path, capsys):
        data = generate(tmp_path, count=1, points=512)
        preds = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
        scale_points(data)
        code = run("eval", "--data", data, "--preds", preds, "--out", tmp_path / "e")
        assert_huge_coordinates_rejected(code, capsys)

    def test_missing_prediction_file_rejected(self, tmp_path, capsys):
        data = generate(tmp_path, count=2)
        preds = tmp_path / "partial"
        preds.mkdir()
        (preds / "pred_00000.json").write_text(
            json.dumps({"version": 1, "scene": "scene_00000.json", "instances": []})
        )
        code = run("eval", "--data", data, "--preds", preds, "--out", tmp_path / "e")
        assert code != 0
        assert "YOEO-E" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param([], id="list"),
            pytest.param("pred", id="string"),
            pytest.param({"version": 1, "scene": "scene_00000.json"}, id="no-instances"),
            pytest.param({"version": 1, "instances": {}}, id="instances-object"),
        ],
    )
    def test_malformed_prediction_file_rejected(self, tmp_path, capsys, payload):
        data = generate(tmp_path, count=1)
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "pred_00000.json").write_text(json.dumps(payload))
        code = run("eval", "--data", data, "--preds", preds, "--out", tmp_path / "e")
        assert code == 1
        assert capsys.readouterr().err.startswith("YOEO-E2:")

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("point_indices", None, id="missing-point-indices"),
            pytest.param("inliers", None, id="missing-inliers"),
            pytest.param("point_indices", 7, id="point-indices-not-list"),
            pytest.param(
                "pose", {"s": 1.0, "R": [1.0] * 9, "t": [0.0] * 3}, id="bad-pose"
            ),
            pytest.param("class", 0, id="class-0"),
        ],
    )
    def test_malformed_prediction_record_rejected(self, tmp_path, capsys, field, value):
        data = generate(tmp_path, count=1)
        preds = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
        path = preds / "pred_00000.json"
        payload = json.loads(path.read_text())
        record = payload["instances"][0]
        if value is None:
            del record[field]
        else:
            record[field] = value
        path.write_text(json.dumps(payload))
        code = run("eval", "--data", data, "--preds", preds, "--out", tmp_path / "e")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:")
        assert str(path) in err

    @pytest.mark.parametrize("index", [768, 10**6, -1, -5])
    def test_point_index_outside_scene_rejected(self, tmp_path, capsys, index):
        data = generate(tmp_path, count=1)
        preds = tmp_path / "preds"
        assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
        path = preds / "pred_00000.json"
        payload = json.loads(path.read_text())
        payload["instances"][-1]["point_indices"].append(index)
        path.write_text(json.dumps(payload))
        out = tmp_path / "e"
        code = run("eval", "--data", data, "--preds", preds, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:")
        assert str(path) in err
        assert "point_indices must lie in [0, 768)" in err
        assert not out.exists()

    def test_invalid_json_prediction_file_rejected(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        preds = tmp_path / "preds"
        preds.mkdir()
        path = preds / "pred_00000.json"
        path.write_text('{"version": 1, "instances": [')
        code = run("eval", "--data", data, "--preds", preds, "--out", tmp_path / "e")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:")
        assert str(path) in err

    def test_non_utf8_prediction_file_rejected(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        preds = tmp_path / "preds"
        preds.mkdir()
        path = preds / "pred_00000.json"
        path.write_bytes(b'\xff{"version": 1}')
        out = tmp_path / "e"
        code = run("eval", "--data", data, "--preds", preds, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E2:")
        assert str(path) in err
        assert not out.exists()

    def test_removed_config_key_rejected(self, tmp_path, capsys):
        # eval has no sampling or parallelism knobs; old keys are unknown.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        code = run("eval", "--config", cfg, "--data", tmp_path, "--preds", tmp_path,
                   "--out", tmp_path / "e")
        assert code != 0
        assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["infer", "--data", "{data}", "--oracle",
                      "--ransac-iterations", 0], id="infer-ransac-iterations-0"),
        pytest.param(["infer", "--data", "{empty}", "--oracle"], id="infer-no-scenes"),
        pytest.param(["infer", "--data", "{data}", "--weights", "{missing}"],
                     id="infer-missing-weights"),
        pytest.param(["eval", "--data", "{data}", "--preds", "{missing}"],
                     id="eval-missing-preds"),
        pytest.param(["train", "--epochs", 0], id="train-epochs-0"),
        pytest.param(["train", "--hidden1", 0], id="train-hidden1-0"),
        pytest.param(["train", "--hidden1", -2], id="train-hidden1-negative"),
        pytest.param(["train", "--k", 0], id="train-k-0"),
    ],
)
def test_bad_run_rejected_before_output(tmp_path, capsys, roundtrip_inputs, argv):
    data, _ = roundtrip_inputs
    (tmp_path / "empty").mkdir()
    paths = {"data": data, "empty": tmp_path / "empty", "missing": tmp_path / "nope"}
    argv = [str(a).format(**paths) for a in argv]
    if argv[0] == "train":
        argv += ["--seed", 1, "--data", data, "--hidden2", 8]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    assert capsys.readouterr().err.startswith("YOEO-E2:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["infer", "--oracle", "--ransac-iterations", 0], "--ransac-iterations must be >= 1"),
        (["infer", "--oracle", "--flip-prob", 2], "--flip-prob must be in [0, 1]"),
        (["infer", "--oracle", "--npcs-sigma", -1], "--npcs-sigma must be >= 0"),
        (["infer", "--oracle", "--min-points", 2], "--min-points must be >= 4"),
        (["train", "--seed", 1, "--k", 0], "--k must be >= 1"),
        (["train", "--seed", 1, "--hidden2", -2], "--hidden2 must be >= 1"),
        (["train", "--seed", 1, "--w-npcs", -1], "--w-npcs must be >= 0"),
        (["generate", "--seed", 1, "--points", 100], "--points must be >= 512"),
        (["generate", "--seed", 1, "--objects-per-scene", 0],
         "--objects-per-scene must be >= 1"),
    ],
)
def test_range_error_names_the_flag(tmp_path, capsys, roundtrip_inputs, argv, message):
    data, _ = roundtrip_inputs
    if argv[0] != "generate":
        argv = [*argv, "--data", data]
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def three_scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("three")
    data = generate(root, count=3, points=512)
    preds = root / "preds"
    assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
    return data, preds


def label_seven(raw: bytes) -> bytes:
    scene = json.loads(raw)
    scene["gt_semantic"][0] = 7
    return json.dumps(scene).encode()


SCENE_BREAKS = {
    "label-7": label_seven,
    "invalid-json": lambda raw: b"{not json",
    "not-utf8": lambda raw: b"\xff\xfe",
}
SCENE_COMMANDS = {
    "train": ["train", "--seed", 1],
    "infer-jobs-1": ["infer", "--oracle", "--jobs", 1],
    "infer-jobs-2": ["infer", "--oracle", "--jobs", 2],
    "eval": ["eval", "--preds", "{preds}"],
}


@pytest.mark.parametrize("breakage", list(SCENE_BREAKS))
@pytest.mark.parametrize("command", list(SCENE_COMMANDS))
def test_broken_scene_file_named_before_output(
    tmp_path, capsys, three_scenes, command, breakage
):
    # Whatever breaks the middle scene file, every command that reads scenes
    # stops with one typed error that names the file, and writes nothing.
    clean, preds = three_scenes
    data = shutil.copytree(clean, tmp_path / "data")
    bad = data / "scene_00001.json"
    bad.write_bytes(SCENE_BREAKS[breakage](bad.read_bytes()))
    argv = [str(a).format(preds=preds) for a in SCENE_COMMANDS[command]]
    out = tmp_path / "out"
    assert run(*argv, "--data", data, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"YOEO-E19: scene file {bad}: ")
    assert not out.exists()


CONFIG_TABLES = [
    (GenConfig, {**GENERATE_PARAMS, **GEN_CONFIG_PARAMS}),
    (TrainConfig, TRAIN_PARAMS),
    (OracleNoise, INFER_PARAMS),
    (ClusterParams, INFER_PARAMS),
    (RansacParams, INFER_PARAMS),
]


def other_value(kind, default, step: int):
    """A valid value for a table entry other than its default; numbers,
    strings and ranges also differ from those of every other step > 0."""
    if kind is bool:
        return not default
    if isinstance(kind, tuple):  # choices of a repeatable flag
        return list(kind[:2])
    if kind is tuple:  # a GenConfig range, as a config file gives it
        return [item + step for item in default]
    if kind is str:
        return f"value-{step}"
    return (default or 0) + (step if kind is int else step / 128)


@pytest.mark.parametrize("cls, table", CONFIG_TABLES,
                         ids=[cls.__name__ for cls, _ in CONFIG_TABLES])
def test_each_key_reaches_its_field(cls, table):
    resolved = {
        key: other_value(kind, default, step)
        for step, (key, (kind, default, *_)) in enumerate(table.items(), 1)
    }
    built = _build(cls, resolved)
    for field in dataclasses.fields(cls):
        key = _FIELD_KEYS.get(field.name, field.name)
        assert key in table, field.name
        value = resolved[key]
        expected = tuple(value) if isinstance(value, list) else value
        assert getattr(built, field.name) == expected != field.default, field.name


def test_field_keys_name_real_fields():
    fields = {field.name for cls, _ in CONFIG_TABLES for field in dataclasses.fields(cls)}
    assert set(_FIELD_KEYS) <= fields


def test_readme_lists_the_generate_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("`generate` also takes the `GenConfig` fields")
    sentence = readme[start:readme.index(";", start)]
    listed = re.findall(r"`(\w+)`", sentence)[2:]  # after `generate`, `GenConfig`
    assert len(listed) == len(set(listed))
    assert set(listed) == set(GEN_CONFIG_PARAMS)


def test_readme_names_only_real_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    named = {word for words in re.findall(r"\byoeo (\w+(?: / \w+)*)", readme)
             for word in words.split(" / ")}
    assert named and named <= set(subparsers.choices)


@pytest.fixture(scope="module")
def roundtrip_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("roundtrip")
    data = generate(root, count=10, points=512)
    preds = root / "preds"
    assert run("infer", "--data", data, "--oracle", "--out", preds) == 0
    return data, preds


@pytest.mark.parametrize("command", ["generate", "train", "infer", "eval"])
def test_resolved_config_round_trips(tmp_path, roundtrip_inputs, command):
    data, preds = roundtrip_inputs
    argv = {
        "generate": ["--seed", 3, "--count", 2, "--points", 512, "--no-partial-view"],
        "train": ["--seed", 2, "--data", data, "--epochs", 1, "--hidden1", 8,
                  "--hidden2", 8, "--k", 4, "--freeze", "sem"],
        "infer": ["--data", data, "--oracle", "--offset-sigma", 0.002,
                  "--min-inlier-fraction", 0.3, "--bandwidth", 0.04],
        "eval": ["--data", data, "--preds", preds],
    }[command]
    out = tmp_path / "run"
    assert run(command, *argv, "--out", out) == 0
    first = (out / "resolved_config.json").read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(first)
    assert run(command, "--config", cfg) == 0
    assert (out / "resolved_config.json").read_bytes() == first


def test_error_codes_are_distinct():
    # Each YOEO-E<code> prefix names exactly one error type.
    types = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.YoeoError)
    ]
    assert len(types) >= 10
    codes = [t.code for t in types]
    assert len(set(codes)) == len(codes), sorted(codes)
