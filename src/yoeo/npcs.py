"""Normalized part coordinate space: binning, canonicalization, recovery.

Canonical coordinates live in the unit cube. Convention: the canonical
frame is axis-aligned with the part's rest frame, the part box diagonal
is normalized to 1 canonical unit, and the box center sits at
(0.5, 0.5, 0.5). Coordinates are arrays of shape (..., 3): floats in
[0, 1] for canonical points, integers in [0, 100) for bin indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExtents
from .geometry import RansacParams, Sim3Transform, ransac_align

NUM_BINS = 100


def encode_bins(coords: np.ndarray) -> np.ndarray:
    """Discretize canonical coordinates into per-axis bin indices.

    Inputs are clamped into [0, 1] first (upstream predictions may
    overshoot); 1.0 maps to the last bin.
    """
    c = np.clip(np.asarray(coords, dtype=np.float64), 0.0, 1.0)
    return np.minimum(np.floor(c * NUM_BINS).astype(np.int64), NUM_BINS - 1)


def decode_bins(bins: np.ndarray) -> np.ndarray:
    """Map bin indices back to bin-center coordinates, (index + 0.5) / 100."""
    b = np.asarray(bins)
    if ((b < 0) | (b >= NUM_BINS)).any():
        raise ValueError("bin indices must lie in [0, 100)")
    return (b + 0.5) / NUM_BINS


@dataclass(frozen=True)
class JointAxis:
    """A revolute or prismatic interaction axis (origin + unit direction)."""

    origin: np.ndarray
    direction: np.ndarray
    kind: str  # "revolute" | "prismatic"

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        o = np.asarray(self.origin, dtype=np.float64).reshape(3).copy()
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ValueError("axis direction must be non-zero")
        d = d / norm
        o.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)


def canonicalize_part(
    points: np.ndarray, part_pose: Sim3Transform, part_extents: np.ndarray
) -> np.ndarray:
    """Express metric part points in the part's canonical unit-cube frame.

    `part_pose` is the part's rest frame in the camera frame; its scale is
    ignored (rigid component only). Points are moved into that frame,
    scaled by 1/diagonal(part_extents) and recentered so the box center
    lands on (0.5, 0.5, 0.5). Returns the (N, 3) canonical coordinates;
    the metric scale is the diagonal, np.linalg.norm(part_extents).
    """
    extents = np.asarray(part_extents, dtype=np.float64).reshape(3)
    if (extents <= 0.0).any():
        raise DegenerateExtents(f"part extents must be positive, got {extents}")
    diagonal = float(np.linalg.norm(extents))
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    local = (p - part_pose.translation) @ part_pose.rotation
    return local / diagonal + 0.5


@dataclass(frozen=True)
class PoseResult:
    """Recovered pose/size for one part instance."""

    transform: Sim3Transform
    size: np.ndarray
    inliers: int
    axis: JointAxis | None = None


def recover_pose(
    npcs_coords: np.ndarray,
    observed: np.ndarray,
    params: RansacParams = RansacParams(),
) -> PoseResult:
    """Align canonical coordinates to observed metric points.

    The transform comes from robust SIM(3) alignment; metric size is the
    recovered scale times the canonical extents, the axis-aligned
    bounding box of the inlier canonical coordinates.
    """
    npcs = np.asarray(npcs_coords, dtype=np.float64).reshape(-1, 3)
    obs = np.asarray(observed, dtype=np.float64).reshape(-1, 3)
    transform, inlier_mask = ransac_align(npcs, obs, params)
    kept = npcs[inlier_mask]
    size = transform.scale * (kept.max(axis=0) - kept.min(axis=0))
    return PoseResult(transform, size, int(inlier_mask.sum()))


def transform_axis(axis: JointAxis, transform: Sim3Transform) -> JointAxis:
    """Map an axis from the canonical frame into the camera frame.

    The origin follows the full similarity transform; the direction only
    rotates (renormalized by the JointAxis constructor).
    """
    return JointAxis(
        origin=transform.apply(axis.origin),
        direction=transform.rotation @ axis.direction,
        kind=axis.kind,
    )
