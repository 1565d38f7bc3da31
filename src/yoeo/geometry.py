"""Linear-algebra core: rotations, similarity transforms, and robust alignment.

Rotations are plain (3, 3) float64 arrays with orthonormal columns and
determinant +1 (checked by :func:`check_rotation`). Similarity transforms
carry {scale s, rotation R, translation t} and act on points as
``s * R @ p + t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NoConsensus

ROTATION_TOL = 1e-9


def check_rotation(matrix: np.ndarray) -> np.ndarray:
    """Validate a proper rotation matrix and return it as float64.

    Raises ValueError when columns are not orthonormal within ROTATION_TOL
    (never so with a NaN or infinite entry) or det is not +1 within it.
    """
    r = np.asarray(matrix, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(r.T @ r - np.eye(3)).max()
    if not err <= ROTATION_TOL:  # a NaN or infinite entry makes err NaN or inf
        raise ValueError(f"matrix is not orthonormal (max deviation {err:.3e})")
    det = np.linalg.det(r)
    if not abs(det - 1.0) <= ROTATION_TOL:
        raise ValueError(f"matrix is not a proper rotation (det {det:.12f})")
    return r


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


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform {s, R, t}: p -> s * R @ p + t.

    `scale` must be positive and finite, `rotation` a proper rotation and
    `translation` finite; all are validated at construction. With scale
    pinned to 1 this doubles as the SE(3) pose carrier.
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        r = check_rotation(self.rotation).copy()
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t}")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

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


def umeyama_align(src: np.ndarray, dst: np.ndarray) -> Sim3Transform:
    """Closed-form least-squares alignment of corresponding point sets.

    Returns the transform minimizing sum_i ||dst_i - (s R src_i + t)||^2
    over SIM(3). This is the one-set case of `_umeyama_batch`, the solver
    RANSAC's minimal samples use, so both share its sign correction
    (det(R) = +1 even for mirrored inputs) and its degeneracy rule.

    Raises DegenerateInput for fewer than 3 points, or when source or
    target points are (near-)collinear or coincident.
    """
    x = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if x.shape != y.shape:
        raise DegenerateInput(f"src/dst length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 3:
        raise DegenerateInput(f"need at least 3 correspondences, got {n}")

    scale, rotation, translation, valid = _umeyama_batch(x[None], y[None])
    if not valid[0]:
        raise DegenerateInput("source or target points are collinear or coincident")
    return Sim3Transform(float(scale[0]), rotation[0], translation[0])


# Points per minimal sample. 4 keeps minimal SIM(3) fits well-conditioned;
# 3 points suffice mathematically but produce more degenerate draws.
MIN_SAMPLE_SIZE = 4

# RANSAC stops once the chance that every sample so far missed an
# all-inlier draw falls below this (1 - confidence, so 99.9% confidence).
RANSAC_FAILURE = 1e-3


def _samples_needed(inlier_fraction: float, cap: int) -> int:
    """Fewest candidates m with 1 - (1 - w^4)^m >= 1 - RANSAC_FAILURE, or `cap`.

    w is the best inlier fraction so far and 4 is MIN_SAMPLE_SIZE
    (Fischler & Bolles 1981; Hartley & Zisserman, section 4.7). w = 1 needs
    no more samples; a w whose w^4 is 0 never gets confident, so it needs
    the cap.
    """
    w4 = inlier_fraction**MIN_SAMPLE_SIZE
    if w4 >= 1.0:
        return 0
    if w4 <= 0.0:
        return cap
    m = math.log(RANSAC_FAILURE) / math.log1p(-w4)
    return cap if m >= cap else math.ceil(m)


@dataclass(frozen=True)
class RansacParams:
    """Knobs for robust alignment."""

    max_iterations: int = 128
    inlier_threshold: float = 0.01
    rng_seed: int = 0
    min_inlier_fraction: float = 0.25

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.inlier_threshold > 0.0:
            raise ValueError("inlier_threshold must be > 0")
        if not 0.0 < self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")


def _umeyama_batch(src: np.ndarray, dst: np.ndarray):
    """Vectorized Umeyama fits: (B, k, 3) x (B, k, 3) -> s, R, t, valid.

    The one SIM(3) solver: RANSAC's minimal samples come in as a batch,
    `umeyama_align`'s refit as a batch of one. A collinear source (or
    target) set leaves the cross-covariance rank-deficient, so a fit is
    valid only when its second singular value exceeds 1e-9 of the first.
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

    var_x = (xc * xc).sum(axis=(1, 2)) / k
    var_x = np.where(var_x > 0.0, var_x, 1.0)
    scale = (d * correction).sum(axis=1) / var_x
    valid &= scale > 0.0
    translation = mu_y[:, 0, :] - scale[:, None] * np.einsum(
        "bij,bj->bi", rotation, mu_x[:, 0, :]
    )
    return scale, rotation, translation, valid


def ransac_align(
    src: np.ndarray, dst: np.ndarray, params: RansacParams = RansacParams()
) -> tuple[Sim3Transform, np.ndarray]:
    """Robust SIM(3) alignment by random-sample consensus.

    Draws minimal samples of MIN_SAMPLE_SIZE points and keeps the
    candidate with the largest inlier set (residual strictly below
    `inlier_threshold`; the first such candidate wins ties). Sampling
    stops once it is 1 - RANSAC_FAILURE (99.9%) sure to have drawn an
    all-inlier sample: after m scored candidates with best inlier fraction
    w, once m >= log(RANSAC_FAILURE) / log(1 - w^4), and in any case after
    `max_iterations` candidates. The winner is refit on its consensus set;
    when the refit's own inlier set is larger than that consensus set, it
    is refit once more on it (the local step of LO-RANSAC, Chum, Matas &
    Kittler 2003).
    Degenerate (collinear) samples and samples with a repeated index are
    skipped without counting as candidates; every sample comes from one
    seeded generator, so the run is bit-deterministic for a fixed
    `rng_seed`.

    Candidates are fitted and scored in chunks, and the stopping test runs
    after each chunk. The first chunk is 4 samples, so clean data exits as
    soon as one candidate explains every point. While the test still
    needs `max_iterations` or more candidates, a chunk is
    `max_iterations` samples; otherwise it is the candidates still needed,
    at least 4. Scoring a chunk is one matrix product. With x and y taken
    about their means and t' = t + s R mean(x) - mean(y), the squared
    residual expands to

        s^2 |x|^2 + |y|^2 + 2 s x.(R^T t') - 2 y.t' - 2 s vec(y x^T).vec(R)
        + |t'|^2,

    so per-point features [x, y, y (x) x, |x|^2, |y|^2] (computed once per
    call) times per-candidate weights give every residual but |t'|^2,
    which moves to the threshold side of the compare. Centering keeps the
    rounding proportional to the spread of the points, not to their
    distance from the origin.

    Returns (transform, inlier_mask) where the mask is evaluated against
    the last refit transform from the direct residual.
    """
    x = np.asarray(src, dtype=np.float64).reshape(-1, 3)
    y = np.asarray(dst, dtype=np.float64).reshape(-1, 3)
    if x.shape != y.shape:
        raise DegenerateInput(f"src/dst length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < MIN_SAMPLE_SIZE:
        raise DegenerateInput(
            f"need at least {MIN_SAMPLE_SIZE} correspondences, got {n}"
        )

    rng = np.random.default_rng(params.rng_seed)
    attempts = params.max_iterations * 4 + 16
    idx = rng.integers(0, n, size=(attempts, MIN_SAMPLE_SIZE))

    mu_x = x.sum(axis=0) / n
    mu_y = y.sum(axis=0) / n
    xc = x - mu_x
    yc = y - mu_y
    features = np.column_stack(
        [
            xc,
            yc,
            (yc[:, :, None] * xc[:, None, :]).reshape(n, 9),
            (xc * xc).sum(axis=1),
            (yc * yc).sum(axis=1),
        ]
    )

    threshold_sq = params.inlier_threshold**2
    cap = params.max_iterations
    best_count = -1
    best_consensus = None
    evaluated = 0
    consumed = 0
    needed = cap
    chunk_size = 4  # small first chunk: clean data exits immediately
    while evaluated < needed and consumed < attempts:
        if consumed:
            chunk_size = cap if needed >= cap else max(needed - evaluated, 4)
        rows = idx[consumed : consumed + chunk_size]
        consumed += chunk_size
        ordered = np.sort(rows, axis=1)
        rows = rows[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        s, r, t, ok = _umeyama_batch(x[rows], y[rows])
        if not ok.any():
            continue
        s, r, t = s[ok], r[ok], t[ok]
        if evaluated + len(s) > cap:
            keep = cap - evaluated
            s, r, t = s[:keep], r[:keep], t[:keep]
        evaluated += len(s)

        t_c = t + s[:, None] * (r @ mu_x) - mu_y
        weights = np.column_stack(
            [
                2.0 * s[:, None] * np.einsum("bji,bj->bi", r, t_c),
                -2.0 * t_c,
                -2.0 * s[:, None] * r.reshape(-1, 9),
                s * s,
                np.ones(len(s)),
            ]
        )
        inliers = features @ weights.T < threshold_sq - (t_c * t_c).sum(axis=1)
        counts = inliers.sum(axis=0)
        local_best = int(np.argmax(counts))
        if counts[local_best] > best_count:
            best_count = int(counts[local_best])
            best_consensus = inliers[:, local_best]
        needed = _samples_needed(best_count / n, cap)

    if best_consensus is None:
        raise DegenerateInput("no non-degenerate minimal sample found")
    if best_count < params.min_inlier_fraction * n:
        raise NoConsensus(
            f"best inlier fraction {best_count / n:.3f} below "
            f"{params.min_inlier_fraction}"
        )

    transform, inlier_mask = _refit(x, y, best_consensus, threshold_sq)
    if inlier_mask.sum() > best_count:
        transform, inlier_mask = _refit(x, y, inlier_mask, threshold_sq)
    return transform, inlier_mask


def _refit(x, y, mask, threshold_sq):
    """Umeyama fit on the masked pairs and its inlier mask over all pairs."""
    transform = umeyama_align(x[mask], y[mask])
    diff = y - transform.apply(x)
    return transform, (diff * diff).sum(axis=1) < threshold_sq
