"""Instance extraction from per-point predictions.

Points vote for their instance centroid (point + predicted offset);
votes of one semantic class are grouped by single-linkage connectivity
at a fixed bandwidth. Coincident votes are collapsed first, neighbor
pairs within the bandwidth come from a cKDTree, and components are
resolved with a sparse connected-components pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyScene
from .npcs import decode_bins


@dataclass(frozen=True)
class PerPointPrediction:
    """Per-point network outputs for one scene.

    semantic_probs: (N, C) rows on the simplex; offsets: (N, 3) meters;
    npcs_logits: (N, 3, 100) per-axis bin scores.
    """

    semantic_probs: np.ndarray
    offsets: np.ndarray
    npcs_logits: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.semantic_probs, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.float64)
        logits = np.asarray(self.npcs_logits, dtype=np.float64)
        n = probs.shape[0]
        if offsets.shape != (n, 3) or logits.shape[:2] != (n, 3):
            raise ValueError("prediction arrays disagree on point count")
        if not (
            np.isfinite(probs).all()
            and np.isfinite(offsets).all()
            and np.isfinite(logits).all()
        ):
            raise ValueError("predictions must be finite")
        if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError("semantic_probs rows must sum to 1")
        object.__setattr__(self, "semantic_probs", probs)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "npcs_logits", logits)

    @property
    def num_points(self) -> int:
        return self.semantic_probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.semantic_probs.shape[1]


@dataclass(frozen=True)
class ClusterParams:
    bandwidth: float = 0.05
    min_points: int = 30
    background_class: int = 0

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
    voted_centroid: np.ndarray


def vote_centroids(points: np.ndarray, pred: PerPointPrediction) -> np.ndarray:
    """Centroid vote per point: p_i + predicted offset."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if p.shape[0] != pred.num_points:
        raise ValueError("points and prediction disagree on point count")
    return p + pred.offsets


def _connectivity_labels(votes: np.ndarray, bandwidth: float) -> np.ndarray:
    """Single-linkage component label per vote (chains of pairs <= bandwidth).

    Duplicate votes are collapsed before pairing so that perfectly
    coincident votes (the oracle case) cost O(n) instead of O(n^2).
    """
    unique, inverse = np.unique(votes, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # shape differs across numpy versions
    m = unique.shape[0]
    pairs = cKDTree(unique).query_pairs(bandwidth, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m)
    )
    _, labels = connected_components(graph, directed=False)
    return labels[inverse]


def cluster_instances(
    points: np.ndarray, pred: PerPointPrediction, params: ClusterParams = ClusterParams()
) -> list[PartInstance]:
    """Partition non-background points into part instances.

    Points are split by argmax semantic class first, then grouped by
    single-linkage connectivity of their centroid votes. Components
    smaller than min_points are dropped. Output order (class id, then
    smallest member index) and memberships are independent of input
    permutation up to relabeling.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    votes = vote_centroids(p, pred)
    labels = pred.semantic_probs.argmax(axis=1)

    foreground = labels != params.background_class
    if not foreground.any():
        raise EmptyScene("no non-background points to cluster")

    instances = []
    for cls in np.unique(labels[foreground]):
        idx = np.flatnonzero(labels == cls)
        comp = _connectivity_labels(votes[idx], params.bandwidth)
        for comp_id in np.unique(comp):
            members = idx[comp == comp_id]
            if members.size < params.min_points:
                continue
            instances.append(
                PartInstance(
                    semantic_class=int(cls),
                    point_indices=members,
                    npcs_coords=None,  # filled below
                    voted_centroid=votes[members].mean(axis=0),
                )
            )
    instances.sort(key=lambda inst: (inst.semantic_class, int(inst.point_indices[0])))
    return [
        PartInstance(
            inst.semantic_class,
            inst.point_indices,
            extract_npcs(inst, pred),
            inst.voted_centroid,
        )
        for inst in instances
    ]


def extract_npcs(instance: PartInstance, pred: PerPointPrediction) -> np.ndarray:
    """Decode canonical coordinates for an instance's member points.

    Per point and axis, the argmax bin of the logits (ties resolve to
    the lower bin index) decoded to its bin center.
    """
    logits = pred.npcs_logits[instance.point_indices]
    return decode_bins(logits.argmax(axis=2))
