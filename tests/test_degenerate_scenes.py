"""Degenerate and uniformly scaled scenes through the whole path:
`forward` or `oracle_predict`, then `run_scene_pipeline`, then
`evaluate_scenes`."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yoeo.errors import TooFewPoints
from yoeo.geometry import RansacParams
from yoeo.instance import ClusterParams
from yoeo.metrics import evaluate_scenes
from yoeo.network import forward, init_params, oracle_predict
from yoeo.parts import BACKGROUND_CLASS
from yoeo.pipeline import run_scene_pipeline
from yoeo.synthetic import GenConfig, generate_object, render_scene

PARAMS = init_params(rng_seed=0)  # untrained weights
# Derandomized, so every run draws the same examples.
EXAMPLES = settings(max_examples=10, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**16)


def default_scene(seed, partial_view=False):
    cfg = GenConfig(rng_seed=seed, points_per_scene=1024, partial_view=partial_view)
    return render_scene(generate_object(seed, cfg), cfg)


def assert_all_missed(scene, instances):
    assert instances == []
    report = evaluate_scenes([scene], [instances])
    assert report.matched == 0 and report.missed == len(scene.instances) > 0


@EXAMPLES
@given(seed=SEEDS, repeats=st.integers(2, 3), net=st.booleans())
def test_repeated_points(seed, repeats, net):
    scene = default_scene(seed)
    scene = dataclasses.replace(scene, **{
        field: np.repeat(getattr(scene, field), repeats, axis=0)
        for field in ("points", "gt_semantic", "gt_instance", "gt_npcs")
    })
    pred = forward(PARAMS, scene.points) if net else oracle_predict(scene)
    instances = run_scene_pipeline(scene.points, pred)

    labels = pred.semantic_probs.argmax(axis=1)
    taken = np.zeros(len(scene.points), dtype=bool)
    for inst in instances:
        idx = inst.point_indices
        assert ((idx >= 0) & (idx < len(taken))).all()
        assert len(np.unique(idx)) == len(idx) and not taken[idx].any()
        taken[idx] = True
        assert (labels[idx] == inst.semantic_class).all()
    report = evaluate_scenes([scene], [instances])
    assert report.matched + report.missed == len(scene.instances)


@EXAMPLES
@given(seed=SEEDS, n=st.integers(0, PARAMS.k))
def test_fewer_than_k_plus_one_points(seed, n):
    with pytest.raises(TooFewPoints):
        forward(PARAMS, default_scene(seed).points[:n])


@EXAMPLES
@given(seed=SEEDS)
def test_all_background(seed):
    scene = default_scene(seed)
    scene = dataclasses.replace(
        scene,
        gt_semantic=np.full_like(scene.gt_semantic, BACKGROUND_CLASS),
        gt_instance=np.full_like(scene.gt_instance, -1),
        gt_npcs=np.full_like(scene.gt_npcs, np.nan),
    )
    assert_all_missed(scene, run_scene_pipeline(scene.points, oracle_predict(scene)))


@EXAMPLES
@given(seed=SEEDS, partial_view=st.booleans(), margin=st.integers(1, 500))
def test_every_part_below_min_points(seed, partial_view, margin):
    scene = default_scene(seed, partial_view)
    largest = np.bincount(scene.gt_instance[scene.gt_instance >= 0]).max()
    cluster = ClusterParams(min_points=int(largest) + margin)
    instances = run_scene_pipeline(scene.points, oracle_predict(scene), cluster)
    assert_all_missed(scene, instances)


def scaled_scene(scene, s):
    """The scene with every length multiplied by s: the points, the
    camera and part translations, the part scales, sizes and axis origins."""
    def scaled_pose(pose):
        return dataclasses.replace(
            pose, scale=pose.scale * s, translation=pose.translation * s
        )
    return dataclasses.replace(
        scene,
        points=scene.points * s,
        camera_pose=dataclasses.replace(
            scene.camera_pose, translation=scene.camera_pose.translation * s
        ),
        instances=tuple(
            dataclasses.replace(
                rec, pose=scaled_pose(rec.pose), size=rec.size * s,
                axis=dataclasses.replace(rec.axis, origin=rec.axis.origin * s),
            )
            for rec in scene.instances
        ),
    )


@EXAMPLES
@given(seed=SEEDS, s=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_uniformly_scaled_scene(seed, s):
    # Powers of two scale every length exactly, and with the bandwidth and
    # the inlier threshold scaled alike each comparison sees the same
    # numbers. So the back-end's output scales bit for bit: memberships and
    # rotations are unchanged, lengths are s times the unscaled ones.
    # The reference is scaled by 1: `JointAxis` renormalizes its direction
    # on construction, so both sides' ground-truth axes pass it alike.
    scene = scaled_scene(default_scene(seed), 1.0)
    base = run_scene_pipeline(scene.points, oracle_predict(scene))
    big = scaled_scene(default_scene(seed), s)
    got = run_scene_pipeline(
        big.points, oracle_predict(big),
        ClusterParams(bandwidth=0.05 * s), RansacParams(inlier_threshold=0.01 * s),
    )
    assert base and len(got) == len(base)
    for a, b in zip(base, got):
        assert b.semantic_class == a.semantic_class
        assert np.array_equal(b.point_indices, a.point_indices)
        assert b.result.inliers == a.result.inliers
        assert np.array_equal(b.result.transform.rotation, a.result.transform.rotation)
        assert np.array_equal(b.axis.direction, a.axis.direction)
        assert b.result.transform.scale == a.result.transform.scale * s
        assert np.array_equal(b.result.transform.translation, a.result.transform.translation * s)
        assert np.array_equal(b.result.size, a.result.size * s)
        assert np.array_equal(b.axis.origin, a.axis.origin * s)
    # Scored against the scaled ground truth, angles, ratios and IoU are
    # unchanged and the length errors are s times the unscaled ones.
    report, scaled = evaluate_scenes([scene], [base]), evaluate_scenes([big], [got])
    assert (scaled.matched, scaled.missed, scaled.spurious, scaled.a5, scaled.a10) == (
        report.matched, report.missed, report.spurious, report.a5, report.a10)
    for want, have in [(report.overall, scaled.overall)] + [
        (errs, scaled.per_class[c]) for c, errs in report.per_class.items()
    ]:
        assert have.keys() == want.keys()
        for name, value in want.items():
            expected = value * s if name in ("te", "se_raw", "de") else value
            np.testing.assert_array_equal(have[name], expected)
