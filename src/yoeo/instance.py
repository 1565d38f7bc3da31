"""Instance extraction from per-point predictions.

Points vote for their instance centroid (point + predicted offset);
votes of one semantic class are grouped by single-linkage connectivity
at a fixed bandwidth, one pass per class. A pass first tries an exact
check for dense votes: cut each axis at gaps wider than the bandwidth,
then chain the votes of each piece in x order with links well inside
it. When every link holds, the pieces are the components. Otherwise
coincident votes are collapsed, neighbor pairs within the bandwidth
come from a cKDTree, and components are resolved by a vectorized
union-find over the pair array whose first round hooks straight from
the pairs. A scene whose points are all background yields no instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .npcs import NUM_BINS, decode_bins
from .parts import BACKGROUND_CLASS


@dataclass(frozen=True)
class PerPointPrediction:
    """Per-point network outputs for one scene.

    semantic_probs: (N, C) rows on the simplex; offsets: (N, 3) meters;
    npcs_bins: (N, 3) integer coordinate bin per axis, in [0, NUM_BINS),
    the only NPCS output the back-end reads; npcs_logits: optional
    (N, 3, NUM_BINS) per-axis bin scores, kept by `forward` for callers
    that inspect the head (the network's bins are their argmax).
    """

    semantic_probs: np.ndarray
    offsets: np.ndarray
    npcs_bins: np.ndarray
    npcs_logits: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.semantic_probs, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.float64)
        bins = np.asarray(self.npcs_bins)
        n = probs.shape[0]
        if offsets.shape != (n, 3) or bins.shape != (n, 3):
            raise ValueError("prediction arrays disagree on point count")
        if bins.dtype.kind not in "iu":
            raise ValueError(f"npcs_bins must be integers, got dtype {bins.dtype}")
        if bins.size and not (bins.min() >= 0 and bins.max() < NUM_BINS):
            raise ValueError(f"npcs_bins must lie in [0, {NUM_BINS})")
        if not (np.isfinite(probs).all() and np.isfinite(offsets).all()):
            raise ValueError("predictions must be finite")
        if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError("semantic_probs rows must sum to 1")
        if self.npcs_logits is not None:
            logits = np.asarray(self.npcs_logits, dtype=np.float64)
            if logits.shape != (n, 3, NUM_BINS):
                raise ValueError(
                    f"npcs_logits has shape {logits.shape}, expected {(n, 3, NUM_BINS)}"
                )
            if not np.isfinite(logits).all():
                raise ValueError("npcs_logits must be finite")
            object.__setattr__(self, "npcs_logits", logits)
        object.__setattr__(self, "semantic_probs", probs)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "npcs_bins", bins)

    @property
    def num_points(self) -> int:
        return self.semantic_probs.shape[0]


@dataclass(frozen=True)
class ClusterParams:
    bandwidth: float = 0.05
    min_points: int = 30

    def __post_init__(self):
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be > 0")
        if self.min_points < 4:
            raise ValueError("min_points must be >= 4")


@dataclass(frozen=True)
class PartInstance:
    """One clustered part: class, member points, decoded coordinates."""

    semantic_class: int
    point_indices: np.ndarray
    npcs_coords: np.ndarray


def vote_centroids(points: np.ndarray, pred: PerPointPrediction) -> np.ndarray:
    """Centroid vote per point: p_i + predicted offset."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if p.shape[0] != pred.num_points:
        raise ValueError("points and prediction disagree on point count")
    return p + pred.offsets


def _connectivity_labels(votes: np.ndarray, bandwidth: float) -> np.ndarray:
    """Single-linkage component label per vote (chains of pairs <= bandwidth).

    Each label is a vote index in [0, len(votes)), one per component. An
    exact check settles a class of dense votes without a pair search:

    1. Cut: sort the votes along each axis and cut wherever the gap g
       between neighbours has g*g > b*b, for bandwidth b. query_pairs
       compares the same subtraction, squared, with b*b, and rounding is
       monotone: a pair on two sides of a cut differs on that axis by at
       least g, so its squared distance rounds above b*b and query_pairs
       never reports it. A vote's piece is its (x, y, z) slab.
    2. Chain: order the votes by (piece, x). Each two neighbours within a
       piece must lie within squared distance 0.99*b*b, a margin far wider
       than any rounding, so each such link is a pair query_pairs reports.

    When every link passes, each piece is exactly one component: its
    links join it and no pair crosses a cut. Its label is its first
    position in that order. When a link fails, the whole class goes to
    the pair search of `_pair_search_labels`. Dense votes (the oracle's,
    clean or noisy) pass; scattered ones, such as an untrained net's,
    fail and pay only for the sorts.
    """
    reach = bandwidth * bandwidth
    order = np.argsort(votes[:, 0])
    ordered = votes[order]
    slabs, yz_slabs = [], []
    for axis in range(3):
        coord = ordered[:, axis]
        value = coord if axis == 0 else np.sort(coord)
        gap = value[1:] - value[:-1]
        cut = gap * gap > reach
        if cut.any():
            slabs.append(np.searchsorted(value[1:][cut], coord, side="right"))
            if axis:
                yz_slabs.append(slabs[-1])
    if yz_slabs:
        # x slabs rise with x, so a stable sort by (y slab, z slab) makes
        # each piece one run, in x order.
        regroup = np.lexsort(yz_slabs[::-1])
        order, ordered = order[regroup], ordered[regroup]
        slabs = [slab[regroup] for slab in slabs]
    step = ordered[1:] - ordered[:-1]
    linked = np.einsum("ij,ij->i", step, step) <= 0.99 * reach
    new_piece = np.zeros(len(step), dtype=bool)
    for slab in slabs:
        new_piece |= slab[1:] != slab[:-1]
    if not (linked | new_piece).all():
        return _pair_search_labels(votes, bandwidth)
    start = np.flatnonzero(np.concatenate(([True], new_piece)))
    labels = np.empty(len(votes), dtype=np.intp)
    labels[order] = np.repeat(start, np.diff(start, append=len(votes)))
    return labels


def _pair_search_labels(votes: np.ndarray, bandwidth: float) -> np.ndarray:
    """Single-linkage component labels from a cKDTree pair search.

    Duplicate votes are collapsed before pairing so that perfectly
    coincident votes cost O(n log n) instead of O(n^2). The collapse is a
    lexicographic sort, which yields the same rows and inverse as
    np.unique(axis=0) at a small fraction of its cost.

    Components come from a union-find over the cKDTree pair array. This
    departs on purpose from using scipy where it does the job: for
    connected_components the sparse matrix it needs (COO to CSR,
    duplicate sum, index sort) cost more than the pair search.

    query_pairs returns each pair once as (a, b) with a < b, and every
    node starts as its own root, so the first round needs no root lookup:
    it hooks each node under its smallest neighbour straight from the pair
    array (np.minimum.at(root, b, a)), the opening step of Shiloach-Vishkin
    connectivity. Each later round keeps the pairs whose roots differ and
    hooks the larger root of each under the smaller (np.minimum.at, so
    roots only decrease). After every round, pointer jumping runs until
    every node points at a root. It stops when no pair joins two roots. A
    label is the smallest distinct-vote index in its component, so labels
    are not 0..K-1.
    """
    order = np.lexsort(votes.T[::-1])
    ordered = votes[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    unique = ordered[first]
    pairs = cKDTree(unique).query_pairs(bandwidth, output_type="ndarray")
    root = np.arange(unique.shape[0])
    a, b = pairs[:, 0], pairs[:, 1]
    np.minimum.at(root, b, a)
    while True:
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        ra, rb = root[a], root[b]
        differ = ra != rb
        if not differ.any():
            return root[inverse]
        a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))


def cluster_instances(
    points: np.ndarray, pred: PerPointPrediction, params: ClusterParams = ClusterParams()
) -> list[PartInstance]:
    """Partition non-background points into part instances.

    Points are split by argmax semantic class first, then grouped by
    single-linkage connectivity of their centroid votes, one pass per
    class on that class's votes alone, so votes of different classes
    never link however close they lie. Components smaller than
    min_points are dropped. Output order (class id, then smallest member
    index) and memberships are independent of input permutation up to
    relabeling. A scene with no foreground point gives an empty list.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    votes = vote_centroids(p, pred)
    labels = pred.semantic_probs.argmax(axis=1)

    foreground = np.flatnonzero(labels != BACKGROUND_CLASS)

    # One pass per class: each class gets its own small pair array, so
    # the union-find's temporaries are as long as the largest class's
    # pairs rather than the whole scene's. Members ascend, so each
    # group's first member is its smallest index.
    foreground_labels = labels[foreground]
    groups = []
    for cls in np.unique(foreground_labels):
        members = foreground[foreground_labels == cls]
        comp = _connectivity_labels(votes[members], params.bandwidth)
        groups.extend(
            members[comp == comp_id]
            for comp_id in np.flatnonzero(np.bincount(comp) >= params.min_points)
        )
    groups.sort(key=lambda members: (labels[members[0]], members[0]))
    return [
        PartInstance(
            semantic_class=int(labels[members[0]]),
            point_indices=members,
            npcs_coords=decode_bins(pred.npcs_bins[members]),
        )
        for members in groups
    ]
