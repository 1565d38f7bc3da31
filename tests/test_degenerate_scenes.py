"""Degenerate scenes through the whole path: `forward` or `oracle_predict`,
then `run_scene_pipeline`, then `evaluate_scenes`."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from yoeo.errors import TooFewPoints
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
