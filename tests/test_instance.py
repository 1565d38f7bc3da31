import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from families import C8_FAMILY
import yoeo.instance
from yoeo.instance import (
    ClusterParams,
    PerPointPrediction,
    _connectivity_labels,
    cluster_instances,
    vote_centroids,
)
from yoeo.network import OracleNoise, forward, init_params, oracle_predict
from yoeo.synthetic import GenConfig, generate_object, render_scene


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def make_prediction(points, labels, offsets=None, num_classes=4, npcs_bins=None):
    n = len(points)
    if offsets is None:
        offsets = np.zeros((n, 3))
    if npcs_bins is None:
        npcs_bins = np.zeros((n, 3), dtype=np.int64)
    return PerPointPrediction(one_hot(labels, num_classes), offsets, npcs_bins)


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

    def test_background_excluded_and_empty_scene_gives_no_instances(self):
        rng = np.random.default_rng(6)
        pts, labels, _ = build_scene(rng, [(0, [0, 0, 0], 80)])
        pred = make_prediction(pts, labels)
        assert cluster_instances(pts, pred) == []

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


def sparse_graph_labels(votes, bandwidth):
    """Component labels the way clustering found them before the union-find:
    the same vote collapse and pair search, then a COO matrix and scipy's
    connected_components."""
    order = np.lexsort(votes.T[::-1])
    ordered = votes[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    unique = ordered[first]
    m = unique.shape[0]
    pairs = cKDTree(unique).query_pairs(bandwidth, output_type="ndarray")
    if pairs.size == 0:
        return inverse
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m)
    )
    _, labels = connected_components(graph, directed=False)
    return labels[inverse]


SCENE_CONFIGS = {
    "c8": C8_FAMILY,
    "default": {},
    "partial_view": {"partial_view": True},
}


def config_scene(family, seed):
    cfg = GenConfig(rng_seed=seed, **SCENE_CONFIGS[family])
    return render_scene(generate_object(seed, cfg), cfg)


def c8_scene(seed):
    return config_scene("c8", seed)


PREDICTORS = {
    "noisy": lambda scene, seed: oracle_predict(
        scene, OracleNoise(0.005, 0.01, rng_seed=seed)
    ),
    "flip": lambda scene, seed: oracle_predict(
        scene, OracleNoise(0.005, 0.01, semantic_flip_prob=0.1, rng_seed=seed)
    ),
    "net": lambda scene, seed: forward(init_params(rng_seed=0), scene.points),
}


# Vote sets for the dense-vote check: some it settles, some it hands to
# the pair search, and some on the edge between.

def dense_blobs(rng, bandwidth):
    centres = rng.uniform(-0.3, 0.3, size=(rng.integers(1, 4), 3))
    return np.vstack([
        blob(rng, centre, rng.integers(1, 300), spread=0.3 * bandwidth)
        for centre in centres
    ])


def coincident_votes(rng, bandwidth):
    distinct = rng.uniform(0.0, 3.0 * bandwidth, size=(rng.integers(1, 6), 3))
    return distinct[rng.integers(0, len(distinct), size=200)]


def gap_blobs(rng, bandwidth, gap):
    """Two dense blobs whose closest coordinates on one axis are 0.0 and
    `gap` exactly, at two votes that agree on the other axes."""
    axis = rng.integers(3)
    left = blob(rng, np.zeros(3), 150, spread=0.3 * bandwidth)
    right = blob(rng, np.zeros(3), 150, spread=0.3 * bandwidth)
    left[:, axis] = -rng.uniform(0.0, 0.3 * bandwidth, size=150)
    right[:, axis] = gap + rng.uniform(0.0, 0.3 * bandwidth, size=150)
    left[0, axis] = 0.0
    right[0] = left[0]
    right[0, axis] = gap
    return np.vstack([left, right])


def chain(rng, step):
    direction = np.eye(3)[rng.integers(3)] if rng.integers(2) else rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(-1.0, 1.0, size=3) + np.outer(np.arange(40) * step, direction)


def blob_and_sparse(rng, bandwidth):
    return np.vstack([
        blob(rng, np.zeros(3), 300, spread=0.3 * bandwidth),
        rng.uniform(-0.5, 0.5, size=(rng.integers(1, 80), 3)),
    ])


VOTE_SETS = {
    "dense-blobs": dense_blobs,
    "coincident": coincident_votes,
    "gap-exactly-b": lambda rng, b: gap_blobs(rng, b, b),
    "gap-under-b": lambda rng, b: gap_blobs(rng, b, b * (1.0 - 1e-9)),
    "gap-over-b": lambda rng, b: gap_blobs(rng, b, b * (1.0 + 1e-9)),
    "chain-under-b": lambda rng, b: chain(rng, b * (1.0 - 1e-9)),
    "chain-over-b": lambda rng, b: chain(rng, b * (1.0 + 1e-9)),
    "blob-and-sparse": blob_and_sparse,
}


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

    # Graph shapes that stress the union-find's hooking and pointer
    # jumping, each checked against the brute-force reference.

    bandwidth = 0.05

    def check(self, votes):
        got = _connectivity_labels(votes, self.bandwidth)
        assert partition(got) == partition(
            brute_force_single_linkage(votes, self.bandwidth)
        )
        return got

    def test_shuffled_long_chain(self):
        n = 2000
        step = self.bandwidth * (1.0 - 1e-9)
        chain = np.zeros((n, 3))
        chain[:, 0] = np.arange(n) * step
        rotation = np.linalg.qr(np.random.default_rng(32).normal(size=(3, 3)))[0]
        votes = (chain @ rotation.T)[np.random.default_rng(33).permutation(n)]
        assert len(np.unique(self.check(votes))) == 1

    def test_planar_votes_near_percolation(self):
        # Sparse, branching components: one round's hooks leave trees
        # deeper than a single pointer jump can flatten.
        rng = np.random.default_rng(36)
        for _ in range(100):
            votes = np.zeros((400, 3))
            votes[:, :2] = rng.uniform(0.0, 1.0, size=(400, 2))
            self.check(votes)

    def test_star_with_centre_as_largest_node(self):
        # Leaves sit along orthogonal axes, so each links to the centre and
        # to no other leaf; each leaf is smaller than the centre in one
        # coordinate, so the centre sorts last among the distinct votes.
        dims = 64
        centre = np.full(dims, 1.0)
        leaves = centre - 0.9 * self.bandwidth * np.eye(dims)
        votes = np.vstack([centre, leaves])
        assert np.lexsort(votes.T[::-1])[-1] == 0
        assert len(np.unique(self.check(votes))) == 1

    def test_many_singletons(self):
        spacing = self.bandwidth * (1.0 + 1e-9)
        grid = np.stack(
            np.meshgrid(*[np.arange(10) * spacing] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        votes = grid[np.random.default_rng(34).permutation(len(grid))]
        assert len(np.unique(self.check(votes))) == len(votes)

    def test_all_coincident_votes(self):
        votes = np.tile([[0.3, -0.2, 0.7]], (500, 1))
        assert len(np.unique(self.check(votes))) == 1

    def test_pair_at_exactly_the_bandwidth_links(self):
        votes = np.array([[0.0, 0.0, 0.0], [self.bandwidth, 0.0, 0.0]])
        assert len(np.unique(self.check(votes))) == 1

    def test_keyed_classes_with_coincident_votes_stay_apart(self):
        rng = np.random.default_rng(35)
        points = np.vstack([blob(rng, np.zeros(3), 40)] * 2)
        labels = np.repeat([1, 2], 40)
        keyed = np.column_stack([points, labels * (2.0 * self.bandwidth)])
        assert len(np.unique(self.check(keyed))) == 2
        instances = cluster_instances(
            points, make_prediction(points, labels), ClusterParams(min_points=10)
        )
        assert [i.semantic_class for i in instances] == [1, 2]
        assert [i.point_indices.tolist() for i in instances] == [
            list(range(40)), list(range(40, 80))
        ]

    # cluster_instances gives the same memberships, in the same order, as
    # with the sparse connected-components labelling it replaced.

    @staticmethod
    def assert_same_instances(monkeypatch, points, pred, params=ClusterParams()):
        got = cluster_instances(points, pred, params)
        with monkeypatch.context() as patch:
            patch.setattr(yoeo.instance, "_connectivity_labels", sparse_graph_labels)
            want = cluster_instances(points, pred, params)
        assert [(i.semantic_class, i.point_indices.tolist()) for i in got] == [
            (i.semantic_class, i.point_indices.tolist()) for i in want
        ]
        return len(got)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_noisy_oracle_c8(self, monkeypatch, seed):
        scene = c8_scene(seed)
        pred = oracle_predict(scene, OracleNoise(0.005, 0.01, rng_seed=seed))
        assert self.assert_same_instances(monkeypatch, scene.points, pred) > 0

    @pytest.mark.parametrize("seed", [6, 7])
    def test_untrained_net_c8(self, monkeypatch, seed):
        scene = c8_scene(seed)
        pred = forward(init_params(rng_seed=0), scene.points)
        self.assert_same_instances(monkeypatch, scene.points, pred)

    @pytest.mark.parametrize("bandwidth", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("predictor", list(PREDICTORS))
    @pytest.mark.parametrize("family", list(SCENE_CONFIGS))
    def test_scene_families_and_bandwidths(self, monkeypatch, family, predictor, bandwidth):
        seed = 8 + list(SCENE_CONFIGS).index(family)
        scene = config_scene(family, seed)
        pred = PREDICTORS[predictor](scene, seed)
        self.assert_same_instances(
            monkeypatch, scene.points, pred, ClusterParams(bandwidth=bandwidth)
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(list(VOTE_SETS)),
        bandwidth=st.sampled_from([0.02, 0.05, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_matches_pair_search(self, kind, bandwidth, seed):
        votes = VOTE_SETS[kind](np.random.default_rng(seed), bandwidth)
        votes = votes[np.random.default_rng(seed + 1).permutation(len(votes))]
        got = _connectivity_labels(votes, bandwidth)
        assert ((got >= 0) & (got < len(votes))).all()
        assert partition(got) == partition(sparse_graph_labels(votes, bandwidth))

    # Which path a class takes: dense votes are settled by the check, an
    # untrained net's scattered votes go to the pair search.

    class PairSearchReached(Exception):
        pass

    def refuse_pair_search(self, monkeypatch):
        def refuse(votes, bandwidth):
            raise self.PairSearchReached

        monkeypatch.setattr(yoeo.instance, "_pair_search_labels", refuse)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize(
        "noise", [OracleNoise(), OracleNoise(0.005, 0.01)], ids=["clean", "noisy"]
    )
    def test_oracle_votes_skip_pair_search(self, monkeypatch, seed, noise):
        scene = c8_scene(seed)
        pred = oracle_predict(scene, dataclasses.replace(noise, rng_seed=seed))
        self.refuse_pair_search(monkeypatch)
        assert len(cluster_instances(scene.points, pred)) > 0

    @pytest.mark.parametrize("seed", [6, 7])
    def test_untrained_net_votes_reach_pair_search(self, monkeypatch, seed):
        scene = c8_scene(seed)
        pred = forward(init_params(rng_seed=0), scene.points)
        self.refuse_pair_search(monkeypatch)
        with pytest.raises(self.PairSearchReached):
            cluster_instances(scene.points, pred)

    def test_mixed_classes_match_brute_force_per_class(self):
        # Votes of three classes share one region: some coincide across
        # classes and many lie within the bandwidth of another class's.
        rng = np.random.default_rng(37)
        points = rng.uniform(0.0, 0.4, size=(900, 3))
        points[600:700] = points[:100]
        labels = rng.integers(0, 4, size=len(points))
        labels[600:700] = labels[:100] % 3 + 1
        min_points = 4
        assert (labels[600:700] != labels[:100]).all()
        pairs = cKDTree(points).query_pairs(self.bandwidth, output_type="ndarray")
        cross = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        assert (cross & (labels[pairs] != 0).all(axis=1)).sum() > 100

        want = []
        for cls in (1, 2, 3):
            members = np.flatnonzero(labels == cls)
            comp = brute_force_single_linkage(points[members], self.bandwidth)
            want.extend(
                (cls, members[comp == k].tolist())
                for k in np.flatnonzero(np.bincount(comp) >= min_points)
            )
        want.sort(key=lambda group: (group[0], group[1][0]))
        got = cluster_instances(
            points, make_prediction(points, labels),
            ClusterParams(bandwidth=self.bandwidth, min_points=min_points),
        )
        assert len(want) > 10
        assert [(i.semantic_class, i.point_indices.tolist()) for i in got] == want

    # Clustering one class at a time keeps each pair array, and with it the
    # union-find's temporaries, near a quarter of one pass over all classes,
    # which traces about 3 to 3.6 MB on these scenes.

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_noisy_oracle_c8_traced_peak(self, seed):
        scene = c8_scene(seed)
        pred = oracle_predict(scene, OracleNoise(0.005, 0.01, rng_seed=seed))
        cluster_instances(scene.points, pred)
        tracemalloc.start()
        try:
            cluster_instances(scene.points, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6

    # Noisy oracle votes pass the dense-vote check, so no pair array is
    # built at all: the pass over a class holds a few arrays of its votes,
    # about 0.2 MB on these scenes, where the pair search traced 0.65 to
    # 0.83 MB.

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_noisy_oracle_c8_traced_peak_without_pairs(self, seed):
        scene = c8_scene(seed)
        pred = oracle_predict(scene, OracleNoise(0.005, 0.01, rng_seed=seed))
        cluster_instances(scene.points, pred)
        tracemalloc.start()
        try:
            cluster_instances(scene.points, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.4e6


class TestExtractNpcs:
    @staticmethod
    def decoded(pred):
        """Coordinates cluster_instances decodes for the single instance
        that n coincident class-1 points form."""
        points = np.zeros((pred.num_points, 3))
        [inst] = cluster_instances(points, pred, ClusterParams(min_points=4))
        return inst.npcs_coords

    def test_one_hot_bin_fifty(self):
        pred = make_prediction(np.zeros((10, 3)), np.ones(10, dtype=int),
                               npcs_bins=np.full((10, 3), 50))
        assert np.allclose(self.decoded(pred), 0.505)

    def test_uniform_logits_tie_break_to_bin_zero(self):
        # Uniform logits argmax to bin 0, the bin forward reports for them.
        logits = np.zeros((5, 3, 100))
        pred = make_prediction(np.zeros((5, 3)), np.ones(5, dtype=int),
                               npcs_bins=logits.argmax(axis=2))
        assert np.allclose(self.decoded(pred), 0.005)

    def test_oracle_logits_within_half_bin(self):
        rng = np.random.default_rng(11)
        gt = rng.uniform(0, 1, size=(50, 3))
        from yoeo.npcs import encode_bins

        pred = make_prediction(np.zeros((50, 3)), np.ones(50, dtype=int),
                               npcs_bins=encode_bins(gt))
        assert np.abs(self.decoded(pred) - gt).max() <= 0.005 + 1e-12

    def test_logits_are_not_read(self):
        bins = np.full((6, 3), 7)
        logits = np.zeros((6, 3, 100))
        logits[:, :, 90] = 1.0  # disagrees with the bins on purpose
        pred = PerPointPrediction(one_hot(np.ones(6, dtype=int), 4),
                                  np.zeros((6, 3)), bins, logits)
        assert np.allclose(self.decoded(pred), 0.075)


class TestValidation:
    @staticmethod
    def arrays(n=2):
        return one_hot(np.ones(n, dtype=int), 3), np.zeros((n, 3)), np.zeros((n, 3), dtype=int)

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            PerPointPrediction(
                np.full((4, 3), 0.5), np.zeros((4, 3)), np.zeros((4, 3), dtype=int)
            )

    def test_rejects_nonfinite(self):
        probs, offsets, bins = self.arrays()
        offsets[0, 0] = np.nan
        with pytest.raises(ValueError):
            PerPointPrediction(probs, offsets, bins)

    def test_accepts_bins_with_and_without_logits(self):
        probs, offsets, bins = self.arrays()
        bins[1] = [0, 50, 99]
        for dtype in (np.int32, np.int64, np.uint8):
            pred = PerPointPrediction(probs, offsets, bins.astype(dtype))
            assert pred.npcs_logits is None
            assert pred.npcs_bins.tolist() == [[0, 0, 0], [0, 50, 99]]
        logits = np.zeros((2, 3, 100), dtype=np.float32)
        pred = PerPointPrediction(probs, offsets, bins, logits)
        assert pred.npcs_logits.dtype == np.float64

    @pytest.mark.parametrize(
        "bins, message",
        [
            (np.zeros((2, 2), dtype=int), "disagree on point count"),
            (np.zeros((3, 3), dtype=int), "disagree on point count"),
            (np.zeros(6, dtype=int), "disagree on point count"),
            (np.zeros((2, 3)), "must be integers"),
            (np.zeros((2, 3), dtype=bool), "must be integers"),
            (np.array([[0, 0, 0], [0, -1, 0]]), r"must lie in \[0, 100\)"),
            (np.array([[0, 0, 0], [0, 0, 100]]), r"must lie in \[0, 100\)"),
        ],
    )
    def test_rejects_bad_bins(self, bins, message):
        probs, offsets, _ = self.arrays()
        with pytest.raises(ValueError, match=message):
            PerPointPrediction(probs, offsets, bins)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 99), (3, 3, 100), (2, 2, 100)])
    def test_rejects_logits_of_wrong_shape(self, shape):
        probs, offsets, bins = self.arrays()
        with pytest.raises(ValueError, match="npcs_logits has shape"):
            PerPointPrediction(probs, offsets, bins, np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_logits(self, value):
        probs, offsets, bins = self.arrays()
        logits = np.zeros((2, 3, 100))
        logits[1, 2, 40] = value
        with pytest.raises(ValueError, match="must be finite"):
            PerPointPrediction(probs, offsets, bins, logits)

    def test_cluster_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(bandwidth=0.0)
        with pytest.raises(ValueError):
            ClusterParams(min_points=3)
