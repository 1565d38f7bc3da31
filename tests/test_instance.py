import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from yoeo.errors import EmptyScene
from yoeo.instance import (
    ClusterParams,
    PartInstance,
    PerPointPrediction,
    _connectivity_labels,
    cluster_instances,
    extract_npcs,
    vote_centroids,
)


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def make_prediction(points, labels, offsets=None, num_classes=4, npcs_logits=None):
    n = len(points)
    if offsets is None:
        offsets = np.zeros((n, 3))
    if npcs_logits is None:
        npcs_logits = np.zeros((n, 3, 100))
    return PerPointPrediction(one_hot(labels, num_classes), offsets, npcs_logits)


def blob(rng, center, n, spread=0.02):
    return center + rng.uniform(-spread, spread, size=(n, 3))


def perfect_offsets(points, instance_ids):
    offsets = np.zeros_like(points)
    for k in np.unique(instance_ids):
        if k < 0:
            continue
        mask = instance_ids == k
        offsets[mask] = points[mask].mean(axis=0) - points[mask]
    return offsets


def build_scene(rng, spec):
    """spec: list of (class, center, n). Returns points, labels, instance ids."""
    points, labels, inst = [], [], []
    for k, (cls, center, n) in enumerate(spec):
        points.append(blob(rng, np.asarray(center, float), n))
        labels.extend([cls] * n)
        inst.extend([k if cls != 0 else -1] * n)
    return np.vstack(points), np.array(labels), np.array(inst)


class TestVotes:
    def test_zero_offsets_return_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(30, 3))
        pred = make_prediction(pts, np.ones(30, dtype=int))
        assert (vote_centroids(pts, pred) == pts).all()

    def test_perfect_offsets_collapse_to_centroids(self):
        rng = np.random.default_rng(1)
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 50), (1, [0.3, 0, 0], 50)]
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        votes = vote_centroids(pts, pred)
        for k in (0, 1):
            member_votes = votes[inst == k]
            centroid = pts[inst == k].mean(axis=0)
            assert np.abs(member_votes - centroid).max() < 1e-9

    def test_two_instances_two_distinct_vote_locations(self):
        rng = np.random.default_rng(2)
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 40), (1, [0.3, 0, 0], 40)]
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        votes = vote_centroids(pts, pred)
        unique = np.unique(np.round(votes, 9), axis=0)
        assert unique.shape[0] == 2


class TestClustering:
    def test_two_drawers_one_handle(self):
        rng = np.random.default_rng(3)
        pts, labels, inst = build_scene(
            rng,
            [
                (0, [0, 0, 0], 100),
                (1, [0.3, 0, 0], 60),  # drawer
                (1, [0.3, 0.4, 0], 60),  # drawer
                (3, [0, 0, 0.4], 50),  # handle
            ],
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        out = cluster_instances(pts, pred, ClusterParams(bandwidth=0.05))
        assert len(out) == 3
        assert [inst_.semantic_class for inst_ in out] == [1, 1, 3]
        for instance in out:
            gt_ids = np.unique(inst[instance.point_indices])
            assert gt_ids.size == 1
            assert instance.point_indices.size == (inst == gt_ids[0]).sum()

    def test_noisy_offsets_keep_single_instance(self):
        rng = np.random.default_rng(4)
        bandwidth = 0.05
        pts, labels, inst = build_scene(rng, [(2, [0, 0, 0], 400)])
        offsets = perfect_offsets(pts, inst)
        offsets += rng.normal(0, bandwidth / 10, size=offsets.shape)
        pred = make_prediction(pts, labels, offsets)
        out = cluster_instances(pts, pred, ClusterParams(bandwidth=bandwidth))
        assert len(out) == 1
        assert out[0].point_indices.size >= 0.99 * 400

    def test_close_centroids_merge(self):
        # Known failure mode: same-class centroids closer than bandwidth/2.
        rng = np.random.default_rng(5)
        bandwidth = 0.05
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 50), (1, [bandwidth / 2 * 0.9, 0, 0], 50)]
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        out = cluster_instances(pts, pred, ClusterParams(bandwidth=bandwidth))
        assert len(out) == 1

    def test_overlapping_votes_of_different_classes_stay_apart(self):
        rng = np.random.default_rng(7)
        bandwidth = 0.05
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 80), (2, [0, 0, 0], 80), (3, [0.01, 0, 0], 80)]
        )
        offsets = perfect_offsets(pts, inst)
        offsets += rng.normal(0, bandwidth / 10, size=offsets.shape)
        pred = make_prediction(pts, labels, offsets)
        out = cluster_instances(pts, pred, ClusterParams(bandwidth=bandwidth))
        assert [instance.semantic_class for instance in out] == [1, 2, 3]
        for instance in out:
            expected = np.flatnonzero(labels == instance.semantic_class)
            np.testing.assert_array_equal(instance.point_indices, expected)

    def test_background_excluded_and_empty_scene_raises(self):
        rng = np.random.default_rng(6)
        pts, labels, _ = build_scene(rng, [(0, [0, 0, 0], 80)])
        pred = make_prediction(pts, labels)
        with pytest.raises(EmptyScene):
            cluster_instances(pts, pred)

    def test_min_points_discards_small_clusters(self):
        rng = np.random.default_rng(7)
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 100), (1, [0.5, 0, 0], 10)]
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        out = cluster_instances(pts, pred, ClusterParams(min_points=30))
        assert len(out) == 1
        assert out[0].point_indices.size == 100

    def test_min_points_monotonicity(self):
        rng = np.random.default_rng(8)
        pts, labels, inst = build_scene(
            rng,
            [(1, [0, 0, 0], 35), (1, [0.4, 0, 0], 80), (2, [0, 0.4, 0], 150)],
        )
        pred = make_prediction(pts, labels, perfect_offsets(pts, inst))
        strict = cluster_instances(pts, pred, ClusterParams(min_points=40))
        loose = cluster_instances(pts, pred, ClusterParams(min_points=10))
        strict_keys = {
            (i.semantic_class, tuple(i.point_indices)) for i in strict
        }
        loose_keys = {(i.semantic_class, tuple(i.point_indices)) for i in loose}
        assert strict_keys <= loose_keys

    def test_partition_no_point_in_two_instances(self):
        rng = np.random.default_rng(9)
        pts, labels, inst = build_scene(
            rng,
            [(0, [0, 0, 0], 60), (1, [0.3, 0, 0], 50), (2, [0, 0.3, 0], 50)],
        )
        offsets = perfect_offsets(pts, inst)
        offsets += rng.normal(0, 0.01, size=offsets.shape)
        pred = make_prediction(pts, labels, offsets)
        out = cluster_instances(pts, pred, ClusterParams(min_points=4))
        seen = np.concatenate([i.point_indices for i in out])
        assert len(seen) == len(set(seen.tolist()))
        assert (labels[seen] != 0).all()

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(10)
        pts, labels, inst = build_scene(
            rng, [(1, [0, 0, 0], 60), (1, [0.4, 0, 0], 60), (3, [0, 0.4, 0], 40)]
        )
        offsets = perfect_offsets(pts, inst) + rng.normal(0, 0.004, (160, 3))
        pred = make_prediction(pts, labels, offsets)
        base = cluster_instances(pts, pred, ClusterParams(min_points=10))

        perm = rng.permutation(len(pts))
        pred_p = make_prediction(pts[perm], labels[perm], offsets[perm])
        permuted = cluster_instances(pts[perm], pred_p, ClusterParams(min_points=10))

        def as_sets(instances, index_map=None):
            out = set()
            for i in instances:
                idx = i.point_indices if index_map is None else index_map[i.point_indices]
                out.add((i.semantic_class, frozenset(idx.tolist())))
            return out

        assert as_sets(base) == as_sets(permuted, index_map=perm)


def partition(labels):
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


def brute_force_single_linkage(votes, bandwidth):
    dist = np.linalg.norm(votes[:, None, :] - votes[None, :, :], axis=2)
    _, labels = connected_components(csr_matrix(dist <= bandwidth), directed=False)
    return labels


class TestConnectivity:
    def test_random_votes_match_brute_force(self):
        rng = np.random.default_rng(30)
        votes = rng.uniform(0.0, 0.6, size=(400, 3))
        votes = np.vstack([votes, votes[:50]])  # coincident votes collapse first
        got = _connectivity_labels(votes, 0.05)
        assert partition(got) == partition(brute_force_single_linkage(votes, 0.05))

    def test_chain_just_under_bandwidth_is_one_component(self):
        bandwidth = 0.05
        step = bandwidth * (1.0 - 1e-9)
        chain = np.zeros((25, 3))
        chain[:, 0] = np.arange(25) * step
        # A second chain whose links are just over the bandwidth: all singletons.
        apart = np.zeros((5, 3))
        apart[:, 0] = np.arange(5) * bandwidth * (1.0 + 1e-9)
        apart[:, 1] = 1.0
        rotation = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))[0]
        votes = np.vstack([chain, apart]) @ rotation.T
        got = _connectivity_labels(votes, bandwidth)
        assert partition(got) == partition(brute_force_single_linkage(votes, bandwidth))
        assert len(np.unique(got[:25])) == 1
        assert len(np.unique(got[25:])) == 5


class TestExtractNpcs:
    def test_one_hot_bin_fifty(self):
        logits = np.zeros((10, 3, 100))
        logits[:, :, 50] = 1.0
        pred = make_prediction(np.zeros((10, 3)), np.ones(10, dtype=int),
                               npcs_logits=logits)
        inst = PartInstance(1, np.arange(10), None, np.zeros(3))
        coords = extract_npcs(inst, pred)
        assert np.allclose(coords, 0.505)

    def test_uniform_logits_tie_break_to_bin_zero(self):
        pred = make_prediction(np.zeros((5, 3)), np.ones(5, dtype=int))
        inst = PartInstance(1, np.arange(5), None, np.zeros(3))
        coords = extract_npcs(inst, pred)
        assert np.allclose(coords, 0.005)

    def test_oracle_logits_within_half_bin(self):
        rng = np.random.default_rng(11)
        gt = rng.uniform(0, 1, size=(50, 3))
        from yoeo.npcs import encode_bins

        bins = encode_bins(gt)
        logits = np.zeros((50, 3, 100))
        for axis in range(3):
            logits[np.arange(50), axis, bins[:, axis]] = 1.0
        pred = make_prediction(np.zeros((50, 3)), np.ones(50, dtype=int),
                               npcs_logits=logits)
        inst = PartInstance(1, np.arange(50), None, np.zeros(3))
        coords = extract_npcs(inst, pred)
        assert np.abs(coords - gt).max() <= 0.005 + 1e-12


class TestValidation:
    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            PerPointPrediction(
                np.full((4, 3), 0.5), np.zeros((4, 3)), np.zeros((4, 3, 100))
            )

    def test_rejects_nonfinite(self):
        probs = one_hot([1, 1], 3)
        offsets = np.zeros((2, 3))
        offsets[0, 0] = np.nan
        with pytest.raises(ValueError):
            PerPointPrediction(probs, offsets, np.zeros((2, 3, 100)))

    def test_cluster_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(bandwidth=0.0)
        with pytest.raises(ValueError):
            ClusterParams(min_points=3)
