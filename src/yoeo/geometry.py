"""Linear-algebra core: rotations, similarity transforms, and robust alignment.

Rotations are plain (3, 3) float64 arrays with orthonormal columns and
determinant +1 (checked by :func:`check_rotation`). Similarity transforms
carry {scale s, rotation R, translation t} and act on points as
``s * R @ p + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NoConsensus

ROTATION_TOL = 1e-9


def check_rotation(matrix: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Validate a proper rotation matrix and return it as float64.

    Raises ValueError when columns are not orthonormal within `tol` or the
    determinant is not +1 within `tol`.
    """
    r = np.asarray(matrix, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > tol:
        raise ValueError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = np.linalg.det(r)
    if abs(det - 1.0) > max(tol, 1e-12):
        raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")
    return r


def rot_x(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    d = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(d)
    if n == 0.0:
        raise ValueError("rotation axis must be non-zero")
    d = d / n
    k = np.array(
        [[0, -d[2], d[1]], [d[2], 0, -d[0]], [-d[1], d[0], 0]], dtype=np.float64
    )
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform {s, R, t}: p -> s * R @ p + t.

    `scale` must be positive and `rotation` a proper rotation; both are
    validated at construction. With scale pinned to 1 this doubles as the
    SE(3) pose carrier.
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        r = check_rotation(self.rotation).copy()
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Sim3Transform":
        return cls(1.0, np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to a single 3-vector or an (N, 3) array."""
        p = np.asarray(points, dtype=np.float64)
        return self.scale * p @ self.rotation.T + self.translation

    def compose(self, other: "Sim3Transform") -> "Sim3Transform":
        """Return T such that T.apply(p) == self.apply(other.apply(p))."""
        return Sim3Transform(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Sim3Transform":
        r_inv = self.rotation.T
        return Sim3Transform(
            1.0 / self.scale, r_inv, -(r_inv @ self.translation) / self.scale
        )


def rotation_geodesic_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic distance between two rotations in degrees, in [0, 180]."""
    a = check_rotation(a)
    b = check_rotation(b)
    cos = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def umeyama_align(
    src: np.ndarray, dst: np.ndarray, with_scale: bool = True
) -> Sim3Transform:
    """Closed-form least-squares alignment of corresponding point sets.

    Returns the transform minimizing sum_i ||dst_i - (s R src_i + t)||^2
    over SIM(3), or over SE(3) (s = 1) when `with_scale` is false. The
    smallest-singular-value sign correction keeps det(R) = +1 even for
    mirrored inputs.

    Raises DegenerateInput for fewer than 3 points or (near-)collinear
    source points.
    """
    x = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if x.shape != y.shape:
        raise DegenerateInput(f"src/dst length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")

    mu_x = x.sum(axis=0) / n
    mu_y = y.sum(axis=0) / n
    xc = x - mu_x
    yc = y - mu_y

    # Rank of xc from its 3x3 Gram spectrum (cheaper than an SVD of xc).
    lam = np.linalg.eigvalsh(xc.T @ xc)
    s0 = np.sqrt(max(lam[2], 0.0))
    s1 = np.sqrt(max(lam[1], 0.0))
    if s0 == 0.0 or s1 <= n * np.finfo(np.float64).eps * s0:
        raise DegenerateInput("source points are collinear")

    cov = yc.T @ xc / n
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u @ vt) < 0.0:
        sign[2] = -1.0
    rotation = (u * sign) @ vt

    if with_scale:
        var_x = (xc * xc).sum() / n
        scale = float((d * sign).sum() / var_x)
    else:
        scale = 1.0
    translation = mu_y - scale * rotation @ mu_x
    return Sim3Transform(scale, rotation, translation)


@dataclass(frozen=True)
class RansacParams:
    """Knobs for robust alignment.

    `min_sample_size` of 4 keeps minimal SIM(3) fits well-conditioned;
    3 points suffice mathematically but produce more degenerate draws.
    """

    max_iterations: int = 128
    inlier_threshold: float = 0.01
    min_sample_size: int = 4
    rng_seed: int = 0
    min_inlier_fraction: float = 0.25

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.inlier_threshold > 0.0:
            raise ValueError("inlier_threshold must be > 0")
        if self.min_sample_size < 3:
            raise ValueError("min_sample_size must be >= 3")
        if not 0.0 < self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")


def _umeyama_batch(src: np.ndarray, dst: np.ndarray, with_scale: bool):
    """Vectorized minimal-sample fits: (B, k, 3) x (B, k, 3) -> s, R, t, valid.

    A collinear source (or target) sample leaves the cross-covariance
    rank-deficient, so degeneracy is gated on its singular-value ratio.
    """
    k = src.shape[1]
    mu_x = src.sum(axis=1, keepdims=True) / k
    mu_y = dst.sum(axis=1, keepdims=True) / k
    xc = src - mu_x
    yc = dst - mu_y

    cov = np.einsum("bki,bkj->bij", yc, xc) / k
    u, d, vt = np.linalg.svd(cov)
    valid = d[:, 1] > 1e-9 * np.maximum(d[:, 0], 1e-300)

    sign = np.where(np.linalg.det(u @ vt) < 0.0, -1.0, 1.0)
    correction = np.ones((src.shape[0], 3))
    correction[:, 2] = sign
    rotation = (u * correction[:, None, :]) @ vt

    if with_scale:
        var_x = (xc * xc).sum(axis=(1, 2)) / k
        var_x = np.where(var_x > 0.0, var_x, 1.0)
        scale = (d * correction).sum(axis=1) / var_x
        valid &= scale > 0.0
    else:
        scale = np.ones(src.shape[0])
    translation = mu_y[:, 0, :] - scale[:, None] * np.einsum(
        "bij,bj->bi", rotation, mu_x[:, 0, :]
    )
    return scale, rotation, translation, valid


def ransac_align(
    src: np.ndarray,
    dst: np.ndarray,
    params: RansacParams = RansacParams(),
    with_scale: bool = True,
) -> tuple[Sim3Transform, np.ndarray]:
    """Robust SIM(3) alignment by random-sample consensus.

    Draws minimal samples, keeps the candidate with the largest inlier
    set (residual strictly below `inlier_threshold`), then refits once on
    that consensus set. Degenerate (collinear) samples are skipped
    without consuming an iteration; the whole sample budget comes from
    one seeded generator, so the run is bit-deterministic for a fixed
    `rng_seed`. Candidates are evaluated in chunks with an early exit
    once one explains every point, which keeps the clean-data path fast.

    Returns (transform, inlier_mask) where the mask is evaluated against
    the refit transform.
    """
    x = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if x.shape != y.shape:
        raise DegenerateInput(f"src/dst length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    k = params.min_sample_size
    if n < k:
        raise DegenerateInput(f"need at least {k} correspondences, got {n}")

    rng = np.random.default_rng(params.rng_seed)
    attempts = params.max_iterations * 4 + 16
    idx = rng.integers(0, n, size=(attempts, k))

    threshold_sq = params.inlier_threshold**2
    best_count = -1
    best_consensus = None
    evaluated = 0
    consumed = 0
    chunk_size = 4  # small first chunk: clean data exits immediately
    while evaluated < params.max_iterations and consumed < attempts:
        rows = idx[consumed : consumed + chunk_size]
        consumed += chunk_size
        chunk_size = 32
        ordered = np.sort(rows, axis=1)
        rows = rows[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        s, r, t, ok = _umeyama_batch(x[rows], y[rows], with_scale)
        if not ok.any():
            continue
        s, r, t = s[ok], r[ok], t[ok]
        if evaluated + len(s) > params.max_iterations:
            keep = params.max_iterations - evaluated
            s, r, t = s[:keep], r[:keep], t[:keep]
        evaluated += len(s)

        diff = (x[None, :, :] @ r.transpose(0, 2, 1)) * s[:, None, None] \
            + t[:, None, :] - y[None, :, :]
        residual_sq = (diff * diff).sum(axis=2)
        counts = (residual_sq < threshold_sq).sum(axis=1)
        local_best = int(np.argmax(counts))
        if counts[local_best] > best_count:
            best_count = int(counts[local_best])
            best_consensus = residual_sq[local_best] < threshold_sq
        if best_count == n:
            break

    if best_consensus is None:
        raise DegenerateInput("no non-degenerate minimal sample found")
    if best_count < params.min_inlier_fraction * n:
        raise NoConsensus(
            f"best inlier fraction {best_count / n:.3f} below "
            f"{params.min_inlier_fraction}"
        )

    transform = umeyama_align(x[best_consensus], y[best_consensus], with_scale=with_scale)
    diff = y - transform.apply(x)
    inlier_mask = (diff * diff).sum(axis=1) < threshold_sq
    return transform, inlier_mask
