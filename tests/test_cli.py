import json
import numpy as np

from yoeo.cli import main
from yoeo.network import init_params, load_weights, save_weights


def run(*argv):
    return main([str(a) for a in argv])


def generate(tmp_path, name="data", seed=1, count=4, points=768, extra=()):
    out = tmp_path / name
    code = run("generate", "--seed", seed, "--count", count,
               "--points", points, "--out", out, *extra)
    assert code == 0
    return out


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

    def test_count_zero_rejected(self, tmp_path, capsys):
        code = run("generate", "--seed", 1, "--count", 0, "--out", tmp_path / "x")
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("YOEO-E")
        assert "count must be >= 1" in err

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

    def test_invalid_config_json_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{broken")
        code = run("generate", "--config", cfg, "--seed", 1, "--out", tmp_path / "x")
        assert code != 0
        err = capsys.readouterr().err
        assert "line" in err and "column" in err


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

    def test_non_finite_data_aborts_with_error_code(self, tmp_path, capsys):
        data = generate(tmp_path, name="nandata", count=2, points=512)
        scene_file = data / "scene_00000.json"
        payload = json.loads(scene_file.read_text())
        payload["points"][0][0] = float("nan")
        scene_file.write_text(json.dumps(payload))
        code = run("train", "--seed", 1, "--data", data, "--out", tmp_path / "m2",
                   "--epochs", 2, "--hidden1", 8, "--hidden2", 8, "--k", 4)
        assert code != 0
        assert "YOEO-E16" in capsys.readouterr().err

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

    def test_corrupt_weights_magic_error(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        code = run("infer", "--data", data, "--weights", bad,
                   "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E18" in capsys.readouterr().err

    def test_requires_weights_or_oracle(self, tmp_path, capsys):
        data = generate(tmp_path, count=1)
        code = run("infer", "--data", data, "--out", tmp_path / "p")
        assert code != 0
        assert "YOEO-E" in capsys.readouterr().err

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

    def test_removed_config_key_rejected(self, tmp_path, capsys):
        # eval has no sampling or parallelism knobs; old keys are unknown.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        code = run("eval", "--config", cfg, "--data", tmp_path, "--preds", tmp_path,
                   "--out", tmp_path / "e")
        assert code != 0
        assert "unknown config fields" in capsys.readouterr().err


class TestBench:
    def test_bench_reports_positive_throughput(self, tmp_path):
        data = generate(tmp_path, count=10, points=512)
        out = tmp_path / "bench"
        assert run("bench", "--data", data, "--out", out, "--runs", 2) == 0
        report = json.loads((out / "bench.json").read_text())
        assert report["hz"] > 0
        assert report["scenes"] == 10

    def test_bench_requires_ten_scenes(self, tmp_path, capsys):
        data = generate(tmp_path, count=3)
        code = run("bench", "--data", data, "--out", tmp_path / "b", "--runs", 1)
        assert code != 0
        assert "YOEO-E" in capsys.readouterr().err
