import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.transform import Rotation

from yoeo.errors import DegenerateExtents
from yoeo.geometry import (
    RansacParams,
    Sim3Transform,
    rotation_about_axis,
)
from yoeo.npcs import (
    JointAxis,
    canonicalize_part,
    decode_bins,
    encode_bins,
    recover_pose,
    transform_axis,
)

IDENTITY = Sim3Transform(1.0, np.eye(3), np.zeros(3))


class TestBins:
    def test_zero_corner(self):
        assert (encode_bins(np.zeros(3)) == 0).all()

    def test_one_clamps_to_last_bin(self):
        assert (encode_bins(np.ones(3)) == 99).all()

    def test_direct_floor_evaluation(self):
        out = encode_bins(np.array([0.505, 0.0049, 0.999]))
        assert out.tolist() == [50, 0, 99]

    def test_decode_bin_centers(self):
        assert np.allclose(decode_bins(np.zeros(3, dtype=int)), 0.005)
        assert np.allclose(decode_bins(np.full(3, 99)), 0.995)

    def test_roundtrip_exhaustive_per_axis(self):
        bins = np.arange(100)
        coords = decode_bins(bins)
        assert (encode_bins(coords) == bins).all()

    def test_out_of_range_bins_rejected(self):
        with pytest.raises(ValueError):
            decode_bins(np.array([100, 0, 0]))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quantization_error_at_most_half_bin(self, c):
        err = abs(float(decode_bins(encode_bins(np.array([c, c, c])))[0]) - c)
        assert err <= 0.005 + 1e-12

    def test_values_outside_unit_interval_are_clamped(self):
        out = encode_bins(np.array([-0.2, 1.7, 0.5]))
        assert out.tolist() == [0, 99, 50]


def box_corners(extents):
    half = np.asarray(extents) / 2.0
    signs = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    return signs * half


class TestCanonicalize:
    def test_box_corners_symmetric_with_unit_diagonal(self):
        extents = np.array([0.2, 0.1, 0.05])
        corners = box_corners(extents)
        coords = canonicalize_part(corners, IDENTITY, extents)
        assert np.allclose(coords.mean(axis=0), 0.5)
        assert np.allclose(coords + coords[::-1], 1.0)  # symmetric about center
        diag = np.linalg.norm(coords.max(axis=0) - coords.min(axis=0))
        assert diag == pytest.approx(1.0, abs=1e-12)

    def test_center_maps_to_center(self):
        extents = np.array([0.3, 0.2, 0.1])
        rng = np.random.default_rng(0)
        rotation = Rotation.random(random_state=rng).as_matrix()
        pose = Sim3Transform(1.0, rotation, rng.uniform(-1, 1, 3))
        coords = canonicalize_part(pose.translation, pose, extents)
        assert np.allclose(coords, 0.5, atol=1e-12)

    def test_pose_invariance(self):
        rng = np.random.default_rng(1)
        extents = np.array([0.25, 0.15, 0.1])
        local = rng.uniform(-0.5, 0.5, size=(40, 3)) * extents
        base = canonicalize_part(local, IDENTITY, extents)
        for _ in range(5):
            rotation = Rotation.random(random_state=rng).as_matrix()
            pose = Sim3Transform(1.0, rotation, rng.uniform(-2, 2, 3))
            posed = pose.apply(local)
            coords = canonicalize_part(posed, pose, extents)
            assert np.abs(coords - base).max() < 1e-12

    def test_outputs_stay_in_unit_cube(self):
        rng = np.random.default_rng(2)
        extents = np.array([0.4, 0.3, 0.2])
        local = rng.uniform(-0.5, 0.5, size=(200, 3)) * extents
        coords = canonicalize_part(local, IDENTITY, extents)
        assert coords.min() >= 0.0 and coords.max() <= 1.0

    def test_degenerate_extents(self):
        with pytest.raises(DegenerateExtents):
            canonicalize_part(np.zeros((4, 3)), IDENTITY, [0.1, 0, 0.1])


class TestRecoverPose:
    def make_part(self, seed, n=200):
        rng = np.random.default_rng(seed)
        extents = rng.uniform(0.05, 0.4, size=3)
        local = rng.uniform(-0.5, 0.5, size=(n, 3)) * extents
        rotation = Rotation.random(random_state=rng).as_matrix()
        pose = Sim3Transform(1.0, rotation, rng.uniform(-1, 1, 3))
        metric = pose.apply(local)
        npcs = canonicalize_part(metric, pose, extents)
        # Ground-truth canonical->camera transform implied by the convention.
        diagonal = np.linalg.norm(extents)
        gt = Sim3Transform(
            diagonal,
            pose.rotation,
            pose.translation - diagonal * pose.rotation @ np.full(3, 0.5),
        )
        return npcs, metric, gt, rng

    def test_noiseless_roundtrip(self):
        npcs, metric, gt, _ = self.make_part(seed=10)
        result = recover_pose(npcs, metric, params=RansacParams(rng_seed=1))
        assert abs(result.transform.scale - gt.scale) < 1e-9
        assert np.abs(result.transform.rotation - gt.rotation).max() < 1e-9
        assert np.abs(result.transform.translation - gt.translation).max() < 1e-9
        assert result.inliers == len(metric)

    def test_quantized_translation_bound(self):
        for seed in range(10, 16):
            npcs, metric, gt, _ = self.make_part(seed=seed)
            quantized = decode_bins(encode_bins(npcs))
            result = recover_pose(
                quantized, metric, params=RansacParams(rng_seed=2)
            )
            te = np.linalg.norm(result.transform.translation - gt.translation)
            assert te < result.transform.scale * 0.01

    def test_planted_outliers(self):
        npcs, metric, gt, rng = self.make_part(seed=11, n=300)
        corrupted = metric.copy()
        bad = rng.choice(300, size=90, replace=False)  # 30%
        corrupted[bad] = rng.uniform(-1, 1, size=(90, 3))
        result = recover_pose(
            npcs, corrupted, params=RansacParams(inlier_threshold=0.01, rng_seed=3)
        )
        from yoeo.geometry import rotation_geodesic_deg

        re = rotation_geodesic_deg(result.transform.rotation, gt.rotation)
        te = np.linalg.norm(result.transform.translation - gt.translation)
        assert re < 1.0
        assert te < 0.005

    def test_size_is_scale_times_inlier_bbox(self):
        npcs, metric, gt, rng = self.make_part(seed=12)
        part_bbox = npcs.max(axis=0) - npcs.min(axis=0)
        # Two junk correspondences at the cube corners would stretch an
        # all-point bounding box; as outliers they must not reach size.
        npcs = np.vstack([npcs, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
        metric = np.vstack([metric, rng.uniform(-1, 1, size=(2, 3))])
        result = recover_pose(npcs, metric, params=RansacParams(rng_seed=4))
        diff = metric - result.transform.apply(npcs)
        inliers = (diff * diff).sum(axis=1) < RansacParams.inlier_threshold**2
        assert inliers[:-2].all() and not inliers[-2:].any()
        kept = npcs[inliers]
        assert np.array_equal(
            result.size, result.transform.scale * (kept.max(axis=0) - kept.min(axis=0))
        )
        assert np.allclose(result.size, gt.scale * part_bbox, atol=1e-9)

    def test_error_grows_statistically_with_noise(self):
        rng = np.random.default_rng(99)
        levels = (0.0, 0.01, 0.04)
        mean_te = []
        for sigma in levels:
            errors = []
            for seed in range(20, 35):
                npcs, metric, gt, _ = self.make_part(seed=seed)
                noisy = np.clip(npcs + rng.normal(0, sigma, npcs.shape), 0, 1)
                params = RansacParams(
                    inlier_threshold=max(0.01, 6 * sigma), rng_seed=seed
                )
                result = recover_pose(noisy, metric, params=params)
                errors.append(
                    np.linalg.norm(result.transform.translation - gt.translation)
                )
            mean_te.append(np.mean(errors))
        assert mean_te[0] < mean_te[1] < mean_te[2]


class TestTransformAxis:
    def test_identity_leaves_axis_unchanged(self):
        axis = JointAxis(np.array([0.5, 0.5, 0.5]), np.array([1.0, 0, 0]), "prismatic")
        out = transform_axis(axis, IDENTITY)
        assert np.allclose(out.origin, axis.origin)
        assert np.allclose(out.direction, axis.direction)
        assert out.kind == "prismatic"

    def test_scale_moves_origin_not_direction(self):
        axis = JointAxis(np.full(3, 0.5), np.array([1.0, 0, 0]), "revolute")
        t = Sim3Transform(2.0, np.eye(3), np.zeros(3))
        out = transform_axis(axis, t)
        assert np.allclose(out.origin, [1.0, 1.0, 1.0])
        assert np.allclose(out.direction, [1.0, 0.0, 0.0])

    def test_rotation_rotates_direction(self):
        axis = JointAxis(np.zeros(3), np.array([1.0, 0, 0]), "revolute")
        t = Sim3Transform(1.0, rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
        out = transform_axis(axis, t)
        assert np.allclose(out.direction, [0.0, 1.0, 0.0], atol=1e-12)

    def test_preserves_unit_norm_and_angles(self):
        rng = np.random.default_rng(5)
        a = JointAxis(np.zeros(3), rng.normal(size=3), "revolute")
        b = JointAxis(np.zeros(3), rng.normal(size=3), "revolute")
        rotation = Rotation.random(random_state=rng).as_matrix()
        t = Sim3Transform(3.0, rotation, rng.uniform(-1, 1, 3))
        ta, tb = transform_axis(a, t), transform_axis(b, t)
        assert np.linalg.norm(ta.direction) == pytest.approx(1.0, abs=1e-12)
        before = np.dot(a.direction, b.direction)
        after = np.dot(ta.direction, tb.direction)
        assert before == pytest.approx(after, abs=1e-12)

    def test_direction_is_normalized_on_construction(self):
        axis = JointAxis(np.zeros(3), np.array([0.0, 3.0, 0.0]), "revolute")
        assert np.allclose(axis.direction, [0, 1, 0])
        with pytest.raises(ValueError):
            JointAxis(np.zeros(3), np.zeros(3), "revolute")
        with pytest.raises(ValueError):
            JointAxis(np.zeros(3), np.ones(3), "sliding")
