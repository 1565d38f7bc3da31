"""End-to-end inference: votes -> clusters -> per-instance pose recovery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NoConsensus
from .geometry import RansacParams
from .instance import ClusterParams, PerPointPrediction, cluster_instances
from .npcs import JointAxis, PoseResult, recover_pose, transform_axis
from .parts import canonical_joint_axis


@dataclass(frozen=True)
class InstancePrediction:
    """One estimated part: class, member point indices, recovered pose and
    size, and the class's joint axis carried by that pose (camera frame)."""

    semantic_class: int
    point_indices: np.ndarray
    result: PoseResult
    axis: JointAxis


def run_scene_pipeline(
    points: np.ndarray,
    pred: PerPointPrediction,
    cluster_params: ClusterParams = ClusterParams(),
    ransac_params: RansacParams = RansacParams(),
) -> list[InstancePrediction]:
    """Geometry back-end of the estimator.

    Clusters centroid votes per semantic class, then aligns each
    instance's decoded canonical coordinates to its observed points.
    Instances whose alignment finds no consensus (or degenerates) are
    dropped; a scene with no foreground point yields an empty list.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    predictions = []
    for inst in cluster_instances(p, pred, cluster_params):
        try:
            result = recover_pose(
                inst.npcs_coords, p[inst.point_indices], params=ransac_params
            )
        except (NoConsensus, DegenerateInput):
            continue
        canonical_extents = result.size / result.transform.scale
        axis = canonical_joint_axis(inst.semantic_class, canonical_extents)
        axis = transform_axis(axis, result.transform)
        predictions.append(
            InstancePrediction(inst.semantic_class, inst.point_indices, result, axis)
        )
    return predictions
