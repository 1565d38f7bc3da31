import dataclasses
import math
import struct
import types

import numpy as np
import pytest

from families import C8_FAMILY
from yoeo.errors import NonFiniteLoss, TooFewPoints, WeightFormatError
from yoeo.network import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    OracleNoise,
    TrainConfig,
    TrainSample,
    _center_grad,
    _npcs_grad,
    _part_targets,
    _semantic_grad,
    forward,
    init_params,
    load_weights,
    oracle_predict,
    point_features,
    save_weights,
    scene_gradients,
    scene_to_sample,
    train,
    trainable_arrays,
)
from yoeo.instance import PerPointPrediction
from yoeo.npcs import encode_bins
from yoeo.parts import NUM_CLASSES
from yoeo.pipeline import run_scene_pipeline
from yoeo.synthetic import GenConfig, generate_object, render_scene

LAYER_NAMES = ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
               "w_off", "b_off", "w_npcs", "b_npcs")


def micro_sample(rng, n=8, num_classes=4):
    points = rng.uniform(-0.3, 0.3, size=(n, 3))
    labels = rng.integers(0, num_classes, size=n)
    offsets = rng.normal(0, 0.05, size=(n, 3))
    bins = rng.integers(0, 100, size=(n, 3))
    mask = labels != 0
    if not mask.any():
        labels[0] = 1
        mask = labels != 0
    return TrainSample(points, labels, offsets, bins, mask)


class TestForward:
    def test_probs_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = init_params(rng_seed=1)
        pred = forward(params, rng.uniform(-1, 1, size=(40, 3)))
        assert np.abs(pred.semantic_probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        params = init_params(rng_seed=2)
        points = rng.uniform(-1, 1, size=(50, 3))
        perm = rng.permutation(50)
        base = forward(params, points)
        shuffled = forward(params, points[perm])
        # BLAS may pick alignment-dependent kernels for the skinny head
        # matmuls, so equality holds to the last ulp, not bit-for-bit.
        assert np.abs(base.semantic_probs[perm] - shuffled.semantic_probs).max() < 1e-12
        assert np.abs(base.offsets[perm] - shuffled.offsets).max() < 1e-12
        assert np.abs(base.npcs_logits[perm] - shuffled.npcs_logits).max() < 1e-12

    def test_zero_weight_model(self):
        params = init_params(rng_seed=3)
        for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                     "w_off", "b_off", "w_npcs", "b_npcs"):
            getattr(params, name)[...] = 0.0
        rng = np.random.default_rng(4)
        pred = forward(params, rng.uniform(-1, 1, size=(30, 3)))
        assert np.allclose(pred.semantic_probs, 0.25)
        assert (pred.offsets == 0).all()
        assert (pred.npcs_logits == 0).all()
        assert (pred.npcs_bins == 0).all()  # ties go to the lower bin

    def test_bins_are_argmax_of_logits(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            pred = forward(init_params(rng_seed=seed), rng.uniform(-1, 1, size=(200, 3)))
            assert pred.npcs_logits.shape == (200, 3, 100)
            assert np.array_equal(pred.npcs_bins, pred.npcs_logits.argmax(axis=2))

    def test_too_few_points(self):
        params = init_params(k=16)
        with pytest.raises(TooFewPoints):
            forward(params, np.zeros((10, 3)))


def brute_force_focal(probs, labels, alpha, gamma):
    total = 0.0
    for p_row, y in zip(probs, labels):
        q = max(float(p_row[y]), 1e-12)
        total += -alpha * (1.0 - float(p_row[y])) ** gamma * math.log(q)
    return total / len(labels)


def brute_force_center(pred, gt, mask):
    total, count = 0.0, 0
    for p_row, g_row, m in zip(pred, gt, mask):
        if not m:
            continue
        total += math.sqrt(sum((a - b) ** 2 for a, b in zip(p_row, g_row)))
        count += 1
    return total / count


def brute_force_npcs(logits, bins, mask):
    total, count = 0.0, 0
    for row, brow, m in zip(logits, bins, mask):
        if not m:
            continue
        for axis in range(3):
            z = row[axis]
            e = [math.exp(v - max(z)) for v in z]
            total += -math.log(e[brow[axis]] / sum(e))
            count += 1
    return total / count


def brute_force_features(points, k):
    """O(n^2) reference: centered xyz and the mean offset to the k nearest
    other points, summed in ascending distance order."""
    centered = points - np.sort(points, axis=0).mean(axis=0)
    d2 = ((centered[:, None, :] - centered[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.concatenate([centered, centered[idx].mean(axis=1) - centered], axis=1)


class TestPointFeatures:
    def test_matches_brute_force(self):
        points = np.random.default_rng(20).uniform(-0.5, 0.5, size=(300, 3))
        got = point_features(points, 16)
        assert np.abs(got - brute_force_features(points, 16)).max() < 1e-12

    def test_more_than_k_duplicates_match_brute_force(self):
        rng = np.random.default_rng(21)
        cloud = rng.uniform(-0.5, 0.5, size=(60, 3))
        points = np.vstack([cloud, np.repeat(cloud[:1], 12, axis=0)])
        got = point_features(points, 8)
        assert np.abs(got - brute_force_features(points, 8)).max() < 1e-12
        # A copy whose k nearest others are all copies has a zero offset.
        assert (got[60:, 3:] == 0.0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_gives_all_nan_rows(self, bad):
        points = np.random.default_rng(22).uniform(-0.5, 0.5, size=(40, 3))
        points[5, 1] = bad
        got = point_features(points, 8)
        assert got.shape == (40, 6)
        assert np.isnan(got).all()

    @pytest.mark.parametrize("scale,finite", [(1e154, True), (1e155, False)])
    def test_overflowing_distances_give_all_nan_rows(self, scale, finite):
        # Past about 1e155 squared distances overflow and the tree reports
        # missing neighbours; such finite input reads like non-finite input.
        points = np.random.default_rng(0).uniform(size=(64, 3)) * scale
        got = point_features(points, 8)
        assert got.shape == (64, 6)
        assert np.isfinite(got).all() if finite else np.isnan(got).all()


class TestLossSemantic:
    def test_perfect_one_hot_is_zero(self):
        probs = np.zeros((6, 4))
        labels = np.array([0, 1, 2, 3, 1, 2])
        probs[np.arange(6), labels] = 1.0
        assert _semantic_grad(probs, labels)[0] <= 1e-9

    def test_hand_evaluated_half_confidence(self):
        probs = np.array([[0.5, 0.5, 0.0, 0.0]])
        loss = _semantic_grad(probs, np.array([0]))[0]
        assert loss == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(25, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, size=25)
        expected = brute_force_focal(probs, labels, FOCAL_ALPHA, FOCAL_GAMMA)
        assert _semantic_grad(probs, labels)[0] == pytest.approx(expected, abs=1e-9)


class TestLossCenter:
    def test_exact_predictions_zero(self):
        rng = np.random.default_rng(7)
        gt = rng.normal(size=(10, 3))
        mask = np.ones(10, dtype=bool)
        assert _center_grad(gt, gt, mask)[0] == 0.0

    def test_three_four_five(self):
        pred = np.array([[0.003, 0.004, 0.0]])
        gt = np.zeros((1, 3))
        assert _center_grad(pred, gt, np.array([True]))[0] == pytest.approx(0.005)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(40, 3))
        gt = rng.normal(size=(40, 3))
        mask = rng.uniform(size=40) < 0.6
        mask[0] = True
        expected = brute_force_center(pred, gt, mask)
        assert _center_grad(pred, gt, mask)[0] == pytest.approx(expected, abs=1e-12)


class TestLossNpcs:
    def test_concentrated_logits_near_zero(self):
        rng = np.random.default_rng(9)
        bins = rng.integers(0, 100, size=(12, 3))
        logits = np.zeros((12, 3, 100))
        for axis in range(3):
            logits[np.arange(12), axis, bins[:, axis]] = 60.0
        mask = np.ones(12, dtype=bool)
        assert _npcs_grad(logits, bins, mask)[0] <= 1e-9

    def test_uniform_logits_log_bins(self):
        logits = np.zeros((5, 3, 100))
        bins = np.zeros((5, 3), dtype=int)
        mask = np.ones(5, dtype=bool)
        assert _npcs_grad(logits, bins, mask)[0] == pytest.approx(math.log(100), abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(15, 3, 100))
        bins = rng.integers(0, 100, size=(15, 3))
        mask = rng.uniform(size=15) < 0.7
        mask[0] = True
        expected = brute_force_npcs(logits, bins, mask)
        assert _npcs_grad(logits, bins, mask)[0] == pytest.approx(expected, abs=1e-9)


class TestGradients:
    @staticmethod
    def numeric_grad(params, sample, cfg, name, coords, h=1e-6):
        arr = getattr(params, name)
        out = {}
        for coord in coords:
            original = arr[coord]
            arr[coord] = original + h
            up, _ = scene_gradients(params, sample, cfg)
            arr[coord] = original - h
            down, _ = scene_gradients(params, sample, cfg)
            arr[coord] = original
            out[coord] = (up["total"] - down["total"]) / (2 * h)
        return out

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(w_sem=0.7, w_center=1.3, w_npcs=0.9)
        worst = 0.0
        for trial in range(10):
            params = init_params(hidden=(6, 8), k=3, rng_seed=trial)
            sample = micro_sample(rng)
            _, grads = scene_gradients(params, sample, cfg)
            for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                         "w_off", "b_off", "w_npcs", "b_npcs"):
                arr = getattr(params, name)
                flat_idx = rng.choice(arr.size, size=min(6, arr.size), replace=False)
                coords = [np.unravel_index(i, arr.shape) for i in flat_idx]
                numeric = self.numeric_grad(params, sample, cfg, name, coords)
                scale = max(np.abs(grads[name]).max(), 1e-8)
                for coord, num in numeric.items():
                    rel = abs(grads[name][coord] - num) / scale
                    worst = max(worst, rel)
        assert worst < 1e-4


def reference_softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_heads(params, f):
    """The MLP written as plain expressions, one fresh array per step."""
    h1 = np.tanh(f @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    return (
        h1, h2,
        h2 @ params.w_sem + params.b_sem,
        h2 @ params.w_off + params.b_off,
        (h2 @ params.w_npcs + params.b_npcs).reshape(-1, 3, 100),
    )


def reference_npcs_grad(logits, bins, mask):
    probs = reference_softmax(logits)
    rows, axes = np.arange(len(logits))[:, None], np.arange(3)[None, :]
    m = int(mask.sum())
    loss = float(-np.log(np.maximum(probs[rows, axes, bins][mask], 1e-12)).mean())
    onehot = np.zeros_like(probs)
    onehot[rows, axes, bins] = 1.0
    return loss, (probs - onehot) * mask[:, None, None] / (m * 3)


def reference_gradients(params, sample, cfg, f):
    h1, h2, sem_logits, offsets, npcs_logits = reference_heads(params, f)
    mask = sample.part_mask
    sem_loss, d_sem = _semantic_grad(reference_softmax(sem_logits), sample.labels)
    if mask.any():
        center_loss, d_off = _center_grad(offsets, sample.offsets, mask)
        npcs_loss, d_npcs = reference_npcs_grad(npcs_logits, sample.bins, mask)
    else:
        center_loss, npcs_loss = 0.0, 0.0
        d_off, d_npcs = np.zeros_like(offsets), np.zeros_like(npcs_logits)
    d_sem = cfg.w_sem * d_sem
    d_off = cfg.w_center * d_off
    d_npcs_flat = (cfg.w_npcs * d_npcs).reshape(len(d_npcs), -1)
    g_h2 = d_sem @ params.w_sem.T + d_off @ params.w_off.T + d_npcs_flat @ params.w_npcs.T
    g_z2 = g_h2 * (1.0 - h2 * h2)
    g_z1 = (g_z2 @ params.w2.T) * (1.0 - h1 * h1)
    grads = {
        "w1": f.T @ g_z1, "b1": g_z1.sum(axis=0),
        "w2": h1.T @ g_z2, "b2": g_z2.sum(axis=0),
        "w_sem": h2.T @ d_sem, "b_sem": d_sem.sum(axis=0),
        "w_off": h2.T @ d_off, "b_off": d_off.sum(axis=0),
        "w_npcs": h2.T @ d_npcs_flat, "b_npcs": d_npcs_flat.sum(axis=0),
    }
    losses = {
        "total": cfg.w_sem * sem_loss + cfg.w_center * center_loss + cfg.w_npcs * npcs_loss,
        "sem": sem_loss, "center": center_loss, "npcs": npcs_loss,
    }
    return losses, grads


class TestInPlaceEpilogues:
    """The in-place bias, tanh and softmax steps give the plain
    expressions' bits and write into nothing the caller owns."""

    CFG = TrainConfig(w_sem=0.7, w_center=1.3, w_npcs=0.9)

    @pytest.fixture(scope="class")
    def scenes(self):
        out = []
        for seed in (3, 4, 5):
            cfg = GenConfig(rng_seed=seed, **C8_FAMILY)
            out.append(render_scene(generate_object(seed, cfg), cfg))
        return out

    @staticmethod
    def params():
        params = init_params(rng_seed=6)
        rng = np.random.default_rng(7)
        for name in ("b1", "b2", "b_sem", "b_off", "b_npcs"):
            getattr(params, name)[...] = rng.normal(0.0, 0.3, getattr(params, name).shape)
        return params

    @staticmethod
    def background(sample):
        return dataclasses.replace(sample, labels=np.zeros_like(sample.labels),
                                   part_mask=np.zeros_like(sample.part_mask))

    def test_forward_matches_plain_expressions(self, scenes):
        params = self.params()
        for scene in scenes:
            pred = forward(params, scene.points)
            _, _, sem_logits, offsets, npcs_logits = reference_heads(
                params, point_features(scene.points, params.k))
            assert np.array_equal(pred.semantic_probs, reference_softmax(sem_logits))
            assert np.array_equal(pred.offsets, offsets)
            assert np.array_equal(pred.npcs_logits, npcs_logits)

    def test_gradients_match_plain_expressions(self, scenes):
        params = self.params()
        masked = scene_to_sample(scenes[0])
        assert masked.part_mask.any()
        features = point_features(masked.points, params.k)
        for sample in (masked, self.background(masked)):
            losses, grads = scene_gradients(params, sample, self.CFG, features)
            ref_losses, ref_grads = reference_gradients(params, sample, self.CFG, features)
            assert losses == ref_losses
            assert grads.keys() == ref_grads.keys()
            for name, grad in grads.items():
                assert np.array_equal(grad, ref_grads[name]), name

    def test_inputs_and_params_left_unchanged(self, scenes):
        params = self.params()
        before = params.copy()
        sample = scene_to_sample(scenes[1])
        features = point_features(sample.points, params.k)
        inputs = [features, sample.points, sample.labels, sample.offsets,
                  sample.bins, sample.part_mask]
        snapshot = [a.copy() for a in inputs]

        pred = forward(params, sample.points)
        pred_arrays = [pred.semantic_probs, pred.offsets, pred.npcs_logits]
        pred_snapshot = [a.copy() for a in pred_arrays]
        for s in (sample, self.background(sample)):
            scene_gradients(params, s, self.CFG, features)
        scene_gradients(params, sample, self.CFG)
        _semantic_grad(pred.semantic_probs, sample.labels)
        _center_grad(pred.offsets, sample.offsets, sample.part_mask)
        _npcs_grad(pred.npcs_logits, sample.bins, sample.part_mask)

        for name in LAYER_NAMES:
            assert np.array_equal(getattr(params, name), getattr(before, name)), name
        for a, b in zip(inputs + pred_arrays, snapshot + pred_snapshot):
            assert np.array_equal(a, b)

    def test_forward_returns_fresh_arrays(self, scenes):
        params = self.params()
        first = forward(params, scenes[2].points)
        second = forward(params, scenes[2].points)
        for a, b in ((first.semantic_probs, second.semantic_probs),
                     (first.offsets, second.offsets),
                     (first.npcs_logits, second.npcs_logits)):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, b)


class TestTrain:
    def toy_dataset(self, rng, n_scenes=12, n_points=40):
        return [micro_sample(rng, n=n_points) for _ in range(n_scenes)]

    def test_loss_decreases(self):
        rng = np.random.default_rng(12)
        dataset = self.toy_dataset(rng)
        params = init_params(hidden=(16, 24), k=4, rng_seed=0)
        cfg = TrainConfig(learning_rate=0.05, epochs=25, batch_scenes=4, rng_seed=1)
        _, curve = train(params, dataset, cfg)
        assert curve[-1, 0] < curve[0, 0]

    def test_zero_gradients_leave_params_bit_exact(self):
        rng = np.random.default_rng(13)
        dataset = self.toy_dataset(rng, n_scenes=4)
        params = init_params(hidden=(8, 12), k=4, rng_seed=2)
        cfg = TrainConfig(epochs=3, w_sem=0.0, w_center=0.0, w_npcs=0.0, rng_seed=3)
        trained, _ = train(params, dataset, cfg)
        for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                     "w_off", "b_off", "w_npcs", "b_npcs"):
            assert (getattr(trained, name) == getattr(params, name)).all()

    def test_freeze_trains_only_remaining_head(self):
        rng = np.random.default_rng(14)
        dataset = self.toy_dataset(rng, n_scenes=4)
        params = init_params(hidden=(8, 12), k=4, rng_seed=4)
        cfg = TrainConfig(epochs=3, freeze=("center", "npcs"), rng_seed=5)
        assert trainable_arrays(cfg) == ("w_sem", "b_sem")
        trained, _ = train(params, dataset, cfg)
        changed = {
            name
            for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                         "w_off", "b_off", "w_npcs", "b_npcs")
            if not (getattr(trained, name) == getattr(params, name)).all()
        }
        assert changed == {"w_sem", "b_sem"}

    def test_non_finite_loss_aborts(self):
        rng = np.random.default_rng(15)
        sample = micro_sample(rng, n=20)
        bad_offsets = sample.offsets.copy()
        bad_offsets[0, 0] = np.nan
        bad = TrainSample(sample.points, sample.labels, bad_offsets,
                          sample.bins, sample.part_mask)
        params = init_params(hidden=(8, 12), k=4, rng_seed=6)
        with pytest.raises(NonFiniteLoss):
            train(params, [bad], TrainConfig(epochs=1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        dataset = self.toy_dataset(rng, n_scenes=6)
        params = init_params(hidden=(8, 12), k=4, rng_seed=7)
        cfg = TrainConfig(epochs=4, rng_seed=8)
        a, curve_a = train(params, dataset, cfg)
        b, curve_b = train(params, dataset, cfg)
        assert (curve_a == curve_b).all()
        assert (a.w1 == b.w1).all() and (a.w_npcs == b.w_npcs).all()


class TestWeightsIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(hidden=(8, 12), k=5, rng_seed=17)
        path = tmp_path / "weights.bin"
        save_weights(params, path)
        loaded = load_weights(path)
        assert loaded.k == 5
        for name in ("w1", "b1", "w2", "b2", "w_sem", "b_sem",
                     "w_off", "b_off", "w_npcs", "b_npcs"):
            assert (getattr(loaded, name) == getattr(params, name)).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(init_params(rng_seed=18), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(init_params(rng_seed=19), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "weights.bin"
        save_weights(init_params(rng_seed=20), path)
        blob = path.read_bytes()[:-16]
        path.write_bytes(blob)
        with pytest.raises(WeightFormatError):
            load_weights(path)

    @pytest.mark.parametrize("size", [4, 5, 8, 11])
    def test_header_shorter_than_twelve_bytes_rejected(self, tmp_path, size):
        path = tmp_path / "weights.bin"
        save_weights(init_params(rng_seed=24), path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path)

    @pytest.mark.parametrize("extra", [b"\x00", b"junk" * 7 + b"!"])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "weights.bin"
        save_weights(init_params(rng_seed=25), path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(WeightFormatError, match="trailing"):
            load_weights(path)

    @pytest.mark.parametrize("layer", ["w1", "b2", "w_off", "b_npcs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, tmp_path, layer, value):
        params = init_params(hidden=(8, 12), rng_seed=26)
        getattr(params, layer).flat[-1] = value
        path = tmp_path / "weights.bin"
        save_weights(params, path)
        with pytest.raises(WeightFormatError, match=layer):
            load_weights(path)

    @staticmethod
    def write_matrices(path, matrices):
        with open(path, "wb") as fh:
            fh.write(WEIGHTS_MAGIC + struct.pack("<II", WEIGHTS_VERSION, len(matrices)))
            for m in matrices:
                fh.write(struct.pack("<II", *m.shape) + m.astype("<f8").tobytes())

    @staticmethod
    def stored_matrices(params):
        return [np.atleast_2d(getattr(params, name)) for name in LAYER_NAMES] + [
            np.array([[float(params.k)]])
        ]

    @pytest.mark.parametrize("layer, shape", [
        ("w1", (5, 64)), ("b1", (1, 63)), ("b1", (2, 32)),
        ("w2", (63, 128)), ("b2", (1, 127)),
        ("w_sem", (127, 4)), ("b_sem", (1, 3)),
        ("w_off", (128, 2)), ("b_off", (1, 4)),
        ("w_npcs", (128, 299)), ("b_npcs", (1, 301)),
        ("k", (1, 2)), ("k", (0, 0)),
    ])
    def test_inconsistent_layer_shape_rejected(self, tmp_path, layer, shape):
        matrices = self.stored_matrices(init_params(rng_seed=21))
        matrices[(LAYER_NAMES + ("k",)).index(layer)] = np.ones(shape)
        path = tmp_path / "weights.bin"
        self.write_matrices(path, matrices)
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_zero_width_layer_rejected(self, tmp_path):
        params = init_params(hidden=(8, 12), rng_seed=22)
        params.w1, params.b1 = np.zeros((6, 0)), np.zeros(0)
        params.w2 = np.zeros((0, 12))
        path = tmp_path / "weights.bin"
        save_weights(params, path)
        with pytest.raises(WeightFormatError, match="widths"):
            load_weights(path)

    @pytest.mark.parametrize("classes", [0, 3, 5, 6])
    def test_semantic_head_must_have_num_classes_columns(self, tmp_path, classes):
        # A consistent file for another class count would load and then
        # fail at the joint-axis prior of a class id >= NUM_CLASSES.
        params = init_params(hidden=(8, 12), rng_seed=27)
        params.w_sem = np.ones((12, classes))
        params.b_sem = np.zeros(classes)
        path = tmp_path / "weights.bin"
        save_weights(params, path)
        with pytest.raises(WeightFormatError, match="w_sem"):
            load_weights(path)

    @pytest.mark.parametrize("k", [0.0, -3.0, 2.5, float("nan"), float("inf")])
    def test_bad_k_rejected(self, tmp_path, k):
        matrices = self.stored_matrices(init_params(rng_seed=23))
        matrices[-1] = np.array([[k]])
        path = tmp_path / "weights.bin"
        self.write_matrices(path, matrices)
        with pytest.raises(WeightFormatError):
            load_weights(path)


class TestOracle:
    def fake_scene(self, rng, n=60, num_classes=4):
        points = rng.uniform(-0.5, 0.5, size=(n, 3))
        labels = rng.integers(0, num_classes, size=n)
        inst = np.where(labels != 0, labels - 1, -1)
        npcs = np.where(
            (labels != 0)[:, None], rng.uniform(0, 1, size=(n, 3)), np.nan
        )
        return types.SimpleNamespace(
            points=points,
            gt_semantic=labels,
            gt_instance=inst,
            gt_npcs=npcs,
            instances=tuple(range(num_classes - 1)),
        )

    def test_zero_noise_reproduces_ground_truth(self):
        rng = np.random.default_rng(21)
        scene = self.fake_scene(rng)
        pred = oracle_predict(scene, OracleNoise())
        assert (pred.semantic_probs.argmax(axis=1) == scene.gt_semantic).all()
        part = scene.gt_semantic != 0
        from yoeo.npcs import encode_bins

        assert (pred.npcs_bins[part] == encode_bins(scene.gt_npcs[part])).all()
        assert (pred.npcs_bins[~part] == 0).all()
        assert pred.npcs_logits is None

    def test_nan_part_row_reads_cube_center_as_in_training(self):
        rng = np.random.default_rng(28)
        scene = self.fake_scene(rng)
        part_rows = np.flatnonzero(scene.gt_semantic != 0)[:3]
        scene.gt_npcs[part_rows] = np.nan
        pred = oracle_predict(scene, OracleNoise())
        sample = scene_to_sample(scene)
        decoded = pred.npcs_bins
        assert (decoded[part_rows] == 50).all()
        part = scene.gt_semantic != 0
        assert (decoded[part] == sample.bins[part]).all()

    def test_flip_prob_one_changes_every_label(self):
        rng = np.random.default_rng(22)
        scene = self.fake_scene(rng, n=400)
        pred = oracle_predict(scene, OracleNoise(semantic_flip_prob=1.0, rng_seed=1))
        assert pred.semantic_probs.shape == (len(scene.points), NUM_CLASSES)
        flipped = pred.semantic_probs.argmax(axis=1)
        assert (flipped != scene.gt_semantic).all()
        assert ((flipped >= 0) & (flipped < NUM_CLASSES)).all()
        # Every other class is reached from every true class.
        for label in range(NUM_CLASSES):
            reached = set(flipped[scene.gt_semantic == label].tolist())
            assert reached == set(range(NUM_CLASSES)) - {label}

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        scene = self.fake_scene(rng)
        noise = OracleNoise(offset_sigma=0.005, npcs_sigma=0.01,
                            semantic_flip_prob=0.1, rng_seed=7)
        a = oracle_predict(scene, noise)
        b = oracle_predict(scene, noise)
        assert (a.semantic_probs == b.semantic_probs).all()
        assert (a.offsets == b.offsets).all()
        assert (a.npcs_bins == b.npcs_bins).all()

    def test_five_mm_offset_noise_keeps_clustering_perfect(self):
        from yoeo.instance import ClusterParams, cluster_instances
        from yoeo.synthetic import GenConfig, generate_object, render_scene

        for seed in range(20):
            cfg = GenConfig(rng_seed=seed, points_per_scene=1024)
            scene = render_scene(generate_object(seed, cfg), cfg)
            pred = oracle_predict(
                scene, OracleNoise(offset_sigma=0.005, rng_seed=seed)
            )
            instances = cluster_instances(
                scene.points, pred, ClusterParams(bandwidth=0.05)
            )
            got = {
                (i.semantic_class, frozenset(i.point_indices.tolist()))
                for i in instances
            }
            want = {
                (record.semantic_class,
                 frozenset(np.flatnonzero(scene.gt_instance == idx).tolist()))
                for idx, record in enumerate(scene.instances)
            }
            assert got == want


def one_hot_oracle(scene, noise):
    """The oracle as it was when predictions carried (N, 3, 100) one-hot
    logits: the same draws, then a 1 at each part row's bin."""
    rng = np.random.default_rng(noise.rng_seed)
    n = scene.points.shape[0]
    part, offsets, npcs = _part_targets(scene)
    labels = scene.gt_semantic.astype(np.int64).copy()
    if noise.semantic_flip_prob > 0.0:
        flips = rng.uniform(size=n) < noise.semantic_flip_prob
        shift = rng.integers(1, NUM_CLASSES, size=n)
        labels[flips] = (labels[flips] + shift[flips]) % NUM_CLASSES
    probs = np.zeros((n, NUM_CLASSES))
    probs[np.arange(n), labels] = 1.0
    if noise.offset_sigma > 0.0:
        offsets = offsets + rng.normal(0.0, noise.offset_sigma, size=(n, 3))
    if noise.npcs_sigma > 0.0:
        npcs = npcs + rng.normal(0.0, noise.npcs_sigma, size=(n, 3))
    bins = encode_bins(npcs)
    logits = np.zeros((n, 3, 100))
    idx = np.flatnonzero(part)
    logits[idx[:, None], np.arange(3), bins[idx]] = 1.0
    return PerPointPrediction(probs, offsets, logits.argmax(axis=2), logits)


def pipeline_arrays(points, pred):
    """Every array run_scene_pipeline returns, in order."""
    out = []
    for inst in run_scene_pipeline(points, pred):
        r = inst.result
        out += [np.array(inst.semantic_class), inst.point_indices,
                np.array(r.transform.scale), r.transform.rotation,
                r.transform.translation, r.size, np.array(r.inliers),
                r.axis.origin, r.axis.direction, np.array(r.axis.kind)]
    return out


class TestOracleBinsIdentity:
    @pytest.mark.parametrize(
        "noise",
        [
            OracleNoise(),
            OracleNoise(offset_sigma=0.005, npcs_sigma=0.01),
            OracleNoise(offset_sigma=0.005, npcs_sigma=0.01, semantic_flip_prob=0.02),
        ],
        ids=["clean", "noisy", "noisy-flips"],
    )
    def test_pipeline_matches_one_hot_logits(self, noise):
        instances = 0
        for seed in range(20):
            cfg = GenConfig(rng_seed=seed, points_per_scene=1024)
            scene = render_scene(generate_object(seed, cfg), cfg)
            seeded = dataclasses.replace(noise, rng_seed=seed)
            got = oracle_predict(scene, seeded)
            want = one_hot_oracle(scene, seeded)
            assert np.array_equal(got.semantic_probs, want.semantic_probs)
            assert np.array_equal(got.offsets, want.offsets)
            assert np.array_equal(got.npcs_bins, want.npcs_bins)
            a = pipeline_arrays(scene.points, got)
            b = pipeline_arrays(scene.points, want)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            instances += len(a) // 10
        assert instances >= 40


class TestParamValidation:
    def test_train_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(freeze=("bogus",))
        with pytest.raises(ValueError):
            TrainConfig(w_sem=-1.0)

    def test_oracle_noise(self):
        with pytest.raises(ValueError):
            OracleNoise(offset_sigma=-1.0)
        with pytest.raises(ValueError):
            OracleNoise(semantic_flip_prob=2.0)
