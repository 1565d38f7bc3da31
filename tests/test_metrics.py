import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.transform import Rotation

from yoeo.geometry import Sim3Transform, rotation_about_axis
from yoeo.metrics import (
    PoseErrors,
    UNMATCHED,
    accuracy_at,
    box_iou3d,
    evaluate_scenes,
    match_instances,
    pose_errors,
)
from yoeo.network import OracleNoise, oracle_predict
from yoeo.npcs import JointAxis, PoseResult
from yoeo.pipeline import InstancePrediction, run_scene_pipeline
from yoeo.synthetic import GenConfig, generate_object, render_scene


def oracle_scene_predictions(seed, noise=OracleNoise(), cfg=None):
    cfg = cfg or GenConfig(rng_seed=seed, points_per_scene=1024)
    scene = render_scene(generate_object(seed, cfg), cfg)
    pred = oracle_predict(scene, noise)
    return scene, run_scene_pipeline(scene.points, pred)


class TestMatchInstances:
    def test_perfect_segmentation_full_iou(self):
        scene, preds = oracle_scene_predictions(seed=60)
        assert scene.instances
        matching = match_instances(preds, scene)
        assert len(matching.pairs) == len(scene.instances)
        assert matching.missed_gt == []
        assert matching.spurious_pred == []
        for _, _, iou in matching.pairs:
            assert iou == pytest.approx(1.0)

    def test_missing_prediction_counts_missed(self):
        scene, preds = oracle_scene_predictions(seed=61)
        if len(preds) < 2:
            scene, preds = oracle_scene_predictions(seed=62)
        dropped = preds[1:]
        matching = match_instances(dropped, scene)
        assert len(matching.missed_gt) == 1
        assert len(matching.pairs) == len(scene.instances) - 1

    def test_overlapping_predictions_one_spurious(self):
        scene, preds = oracle_scene_predictions(seed=63)
        target = preds[0]
        # A worse copy overlapping the same gt: half the member points.
        half = InstancePrediction(
            target.semantic_class,
            target.point_indices[: len(target.point_indices) // 2],
            target.result,
        )
        matching = match_instances(list(preds) + [half], scene)
        assert len(matching.pairs) == len(scene.instances)
        assert matching.spurious_pred == [len(preds)]


def axis_z():
    return JointAxis(np.zeros(3), np.array([0.0, 0.0, 1.0]), "revolute")


class TestPoseErrors:
    def gt_pose(self):
        return Sim3Transform(
            0.3, rotation_about_axis([0, 0, 1], 0.3), np.array([0.1, -0.2, 0.5])
        )

    def test_zero_diagonal(self):
        gt = self.gt_pose()
        size = np.array([0.2, 0.15, 0.1])
        pred = PoseResult(gt, size, 100, axis_z())
        errors = pose_errors(pred, gt, size, axis_z())
        assert errors.re_deg < 1e-6
        assert errors.te == 0.0
        assert errors.se == 0.0
        assert errors.de == 0.0
        assert errors.iou3d >= 0.99

    def test_translated_by_one_centimeter(self):
        gt = self.gt_pose()
        size = np.array([0.2, 0.15, 0.1])
        moved = Sim3Transform(
            gt.scale, gt.rotation, gt.translation + np.array([0.01, 0, 0])
        )
        errors = pose_errors(PoseResult(moved, size, 100, axis_z()), gt, size, axis_z())
        assert errors.te == pytest.approx(0.01, abs=1e-12)
        assert errors.re_deg < 1e-6

    def test_axis_line_distance(self):
        gt = self.gt_pose()
        size = np.array([0.2, 0.15, 0.1])
        shifted_axis = JointAxis(
            np.array([0.02, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), "revolute"
        )
        errors = pose_errors(
            PoseResult(gt, size, 100, shifted_axis), gt, size, axis_z()
        )
        assert errors.de == pytest.approx(0.02, abs=1e-12)


class TestBoxIou:
    def test_half_offset_unit_boxes(self):
        size = np.ones(3)
        iou = box_iou3d(
            np.zeros(3), np.eye(3), size, np.array([0.5, 0, 0]), np.eye(3), size
        )
        assert iou == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_identical_boxes_exactly_one(self):
        size = np.array([0.2, 0.3, 0.1])
        rot = rotation_about_axis([0, 0, 1], 0.7)
        iou = box_iou3d(
            np.ones(3), rot, size, np.ones(3), rot, size
        )
        assert iou == 1.0

    def test_disjoint_boxes_zero(self):
        size = np.array([0.1, 0.1, 0.1])
        iou = box_iou3d(
            np.zeros(3), np.eye(3), size, np.array([1.0, 0, 0]), np.eye(3), size
        )
        assert iou == 0.0

    def test_rotation_invariance_of_analytic_fixture(self):
        # Rotating both boxes by the same R leaves the true IoU unchanged.
        rng = np.random.default_rng(70)
        size = np.ones(3)
        for _ in range(3):
            r = Rotation.random(random_state=rng).as_matrix()
            iou = box_iou3d(
                r @ np.zeros(3), r, size, r @ np.array([0.5, 0, 0]), r, size
            )
            assert iou == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_doubling_samples_stable(self):
        # The exact value agrees with a seeded 40k-sample Monte-Carlo
        # estimate over the union's bounding box.
        size = np.array([1.0, 0.5, 0.25])
        args = (np.zeros(3), rotation_about_axis([0, 0, 1], 0.4), size,
                np.array([0.2, 0.1, 0.0]), rotation_about_axis([0, 0, 1], 0.9), size)
        boxes = (args[:2], args[3:5])
        half = size / 2.0
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)])
        corners = np.vstack([c + (signs * half) @ r.T for c, r in boxes])
        pts = np.random.default_rng(20240).uniform(
            corners.min(axis=0), corners.max(axis=0), size=(40_000, 3)
        )
        in_a, in_b = ((np.abs((pts - c) @ r) <= half).all(axis=1) for c, r in boxes)
        reference = (in_a & in_b).sum() / (in_a | in_b).sum()
        assert abs(box_iou3d(*args) - reference) < 0.01

    def test_concentric_cube_turned_45_degrees(self):
        # The overlap is a regular octagonal prism of area 2(sqrt 2 - 1).
        size = np.ones(3)
        turned = rotation_about_axis([0, 0, 1], np.pi / 4)
        iou = box_iou3d(np.zeros(3), np.eye(3), size, np.zeros(3), turned, size)
        assert iou == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_nested_rotated_half_size_cube(self):
        # Its circumradius, sqrt(3)/4, is below 0.5, so it lies inside.
        r = Rotation.random(random_state=np.random.default_rng(71)).as_matrix()
        iou = box_iou3d(
            np.zeros(3), np.eye(3), np.ones(3), np.array([0.02, -0.03, 0.01]), r,
            np.full(3, 0.5),
        )
        assert iou == pytest.approx(0.125, abs=1e-9)

    def test_face_touching_cubes_zero(self):
        r = Rotation.random(random_state=np.random.default_rng(72)).as_matrix()
        size = np.ones(3)
        iou = box_iou3d(np.zeros(3), r, size, r @ np.array([1.0, 0, 0]), r, size)
        assert iou == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            a = (rng.uniform(-0.2, 0.2, 3), Rotation.random(random_state=rng).as_matrix(),
                 rng.uniform(0.2, 1, 3))
            b = (rng.uniform(-0.2, 0.2, 3), Rotation.random(random_state=rng).as_matrix(),
                 rng.uniform(0.2, 1, 3))
            assert box_iou3d(*a, *b) == pytest.approx(box_iou3d(*b, *a), abs=1e-9)

    @pytest.mark.parametrize(
        "bad_size", [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0]],
        ids=["zero", "flat", "negative"],
    )
    def test_non_positive_extent_gives_zero(self, bad_size):
        bad, unit = np.array(bad_size), np.ones(3)
        assert box_iou3d(np.zeros(3), np.eye(3), unit, np.zeros(3), np.eye(3), bad) == 0.0
        assert box_iou3d(np.zeros(3), np.eye(3), bad, np.zeros(3), np.eye(3), unit) == 0.0


class TestAccuracy:
    def test_all_exact_is_hundred(self):
        rows = [PoseErrors(0, 0, 0, 0, 1.0) for _ in range(5)]
        assert accuracy_at(rows, 5, 0.05) == 100.0

    def test_all_unmatched_is_zero(self):
        rows = [UNMATCHED] * 4
        assert accuracy_at(rows, 5, 0.05) == 0.0

    def test_known_pass_count(self):
        rows = [PoseErrors(1.0, 0.01, 0, 0, 1.0)] * 7 + [
            PoseErrors(20.0, 0.2, 0, 0, 0.0)
        ] * 3
        assert accuracy_at(rows, 5, 0.05) == pytest.approx(70.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 180, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_nested_thresholds_monotone(self, pairs):
        rows = [PoseErrors(re, te, 0, 0, 1.0) for re, te in pairs]
        a5 = accuracy_at(rows, 5, 0.05)
        a10 = accuracy_at(rows, 10, 0.10)
        assert a5 <= a10


class TestEvaluateScenes:
    def test_oracle_predictions_score_perfectly(self):
        scenes, preds = [], []
        for seed in range(80, 86):
            scene, pred = oracle_scene_predictions(seed=seed)
            scenes.append(scene)
            preds.append(pred)
        report = evaluate_scenes(scenes, preds)
        assert report.missed == 0
        assert report.a5 == 100.0
        assert report.a10 == 100.0
        assert report.overall["re_deg"] < 0.5
        assert report.a5 <= report.a10

    def test_empty_predictions_zero_accuracy(self):
        cfg = GenConfig(rng_seed=90, points_per_scene=1024)
        scene = render_scene(generate_object(90, cfg), cfg)
        report = evaluate_scenes([scene], [[]])
        assert report.a5 == 0.0
        assert report.a10 == 0.0
        assert report.missed == len(scene.instances)

    def test_report_serializes_and_prints(self):
        scene, pred = oracle_scene_predictions(seed=91)
        report = evaluate_scenes([scene], [pred])
        data = report.to_dict()
        assert set(data) >= {"per_class", "overall", "a5", "a10"}
        table = report.to_text_table()
        assert "Re" in table and "A10" in table and "all" in table

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scenes([], [[]])

