"""Toy trainable point-wise predictor with three heads and three losses.

The encoder is two shared affine+tanh layers over per-point features
(centered xyz concatenated with the mean offset to the k nearest
neighbors); heads emit semantic logits, a centroid offset, and 3x100
coordinate-bin logits. Gradients are hand-rolled reverse mode for this
fixed architecture and the optimizer is plain momentum SGD, so training
stays dependency-free and bit-deterministic for a fixed seed.

Elementwise epilogues (bias adds, tanh, softmax, the loss gradients and
the tanh slope) run in place on the array their matmul or subtraction
has just returned, in the same IEEE operations and order as the plain
expressions, so they save allocations without changing a bit. Every call
returns fresh arrays, no buffer is kept between calls, and nothing is
written into parameters or into arrays the caller passes in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import NonFiniteLoss, TooFewPoints, WeightFormatError
from .instance import PerPointPrediction
from .npcs import NUM_BINS, encode_bins
from .parts import BACKGROUND_CLASS, NUM_CLASSES
from .synthetic import Scene, gt_offsets

WEIGHTS_MAGIC = b"YOEO"
WEIGHTS_VERSION = 1

_FLOOR = 1e-12  # probability floor before log()

# Focal-loss weight and focusing exponent: the defaults of Lin et al.,
# "Focal Loss for Dense Object Detection" (ICCV 2017).
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0

DEFAULT_HIDDEN = (64, 128)  # widths of the two shared encoder layers
DEFAULT_K = 16  # neighbors in the k-NN feature


def _layer_shapes(h1: int, h2: int) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each stored matrix, in serialization order; the
    weights file stores k after them as a trailing 1x1 matrix."""
    return {
        "w1": (6, h1), "b1": (1, h1), "w2": (h1, h2), "b2": (1, h2),
        "w_sem": (h2, NUM_CLASSES), "b_sem": (1, NUM_CLASSES),
        "w_off": (h2, 3), "b_off": (1, 3),
        "w_npcs": (h2, 3 * NUM_BINS), "b_npcs": (1, 3 * NUM_BINS),
    }


_LAYER_NAMES = tuple(_layer_shapes(1, 1))


@dataclass
class ModelParams:
    k: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_sem: np.ndarray
    b_sem: np.ndarray
    w_off: np.ndarray
    b_off: np.ndarray
    w_npcs: np.ndarray
    b_npcs: np.ndarray

    def copy(self) -> "ModelParams":
        arrays = {name: getattr(self, name).copy() for name in _LAYER_NAMES}
        return ModelParams(k=self.k, **arrays)

    def num_parameters(self) -> int:
        return sum(getattr(self, name).size for name in _LAYER_NAMES)


def init_params(
    hidden: tuple[int, int] = DEFAULT_HIDDEN,
    k: int = DEFAULT_K,
    rng_seed: int = 0,
) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero.

    Raises ValueError for a layer width or k below 1, the layouts
    `load_weights` rejects.
    """
    h1, h2 = hidden
    if min(h1, h2, k) < 1:
        raise ValueError(f"hidden widths and k must be >= 1, got {hidden} and {k}")
    rng = np.random.default_rng(rng_seed)
    arrays = {
        name: rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))
        if name.startswith("w") else np.zeros(cols)
        for name, (rows, cols) in _layer_shapes(h1, h2).items()
    }
    return ModelParams(k=k, **arrays)


def point_features(points: np.ndarray, k: int) -> np.ndarray:
    """Per-point feature rows: centered xyz and the k-NN mean offset.

    Neighbors are columns 1..k of a cKDTree query for k + 1 (column 0, at
    distance 0, is the point itself or an exact duplicate of it) and are
    averaged in ascending distance order, which keeps
    the result invariant to input permutation (up to exact distance
    ties). Non-finite input yields all-NaN rows, so training stops on a
    NonFiniteLoss instead of a tree-construction error. So does finite
    input whose neighbour distances overflow (coordinates of about 1e155
    and more), where the tree reports missing neighbours.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = p.shape[0]
    if n < k + 1:
        raise TooFewPoints(f"need at least {k + 1} points, got {n}")
    if not np.isfinite(p).all():
        return np.full((n, 6), np.nan)
    # Column-sorted mean keeps the centroid (and so every downstream
    # value) bit-identical under input permutation.
    centered = p - np.sort(p, axis=0).mean(axis=0)
    if not np.isfinite(centered).all():  # finite input whose mean overflows
        return np.full((n, 6), np.nan)

    dist, idx = cKDTree(centered, balanced_tree=False).query(centered, k=k + 1)
    if not np.isfinite(dist).all():
        return np.full((n, 6), np.nan)
    # One column at a time, each neighbour added in ascending distance
    # order: the same sums as numpy's mean over axis 1 of the (n, k, 3)
    # gather, bit for bit, without building it.
    out = np.empty((n, 6))
    out[:, :3] = centered
    for c, col in enumerate(centered.T):
        acc = col[idx[:, 1]]
        for j in range(2, k + 1):
            acc += col[idx[:, j]]
        acc /= k
        np.subtract(acc, col, out=out[:, 3 + c])
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, with the bias added into the fresh matmul result."""
    y = x @ w
    y += b
    return y


def _tanh_slope(h: np.ndarray) -> np.ndarray:
    """1 - h * h: the derivative of tanh at the layer whose output is h."""
    slope = h * h
    np.subtract(1.0, slope, out=slope)
    return slope


def _forward_cache(
    params: ModelParams, points: np.ndarray, features: np.ndarray | None = None
) -> dict:
    f = point_features(points, params.k) if features is None else features
    h1 = _affine(f, params.w1, params.b1)
    np.tanh(h1, out=h1)
    h2 = _affine(h1, params.w2, params.b2)
    np.tanh(h2, out=h2)
    sem_logits = _affine(h2, params.w_sem, params.b_sem)
    offsets = _affine(h2, params.w_off, params.b_off)
    npcs_logits = _affine(h2, params.w_npcs, params.b_npcs).reshape(-1, 3, NUM_BINS)
    return {
        "f": f, "h1": h1, "h2": h2,
        "sem_logits": sem_logits, "offsets": offsets, "npcs_logits": npcs_logits,
    }


def forward(params: ModelParams, points: np.ndarray) -> PerPointPrediction:
    """Run the predictor; semantic probabilities are softmax-normalized
    and each point's NPCS bins are the argmax of its logits (ties to the
    lower bin)."""
    cache = _forward_cache(params, points)
    logits = cache["npcs_logits"]
    return PerPointPrediction(
        _softmax(cache["sem_logits"]), cache["offsets"], logits.argmax(axis=2), logits
    )


def _semantic_grad(probs, labels):
    """Focal loss, the mean of -FOCAL_ALPHA * (1 - q)^FOCAL_GAMMA * log(q) for q
    the true class's probability (floored at 1e-12), and its logit gradient."""
    n = probs.shape[0]
    y = np.asarray(labels)
    rows = np.arange(n)
    q = probs[rows, y]
    qf = np.maximum(q, _FLOOR)
    one_minus = np.clip(1.0 - q, 0.0, 1.0)
    loss = float((-FOCAL_ALPHA * one_minus**FOCAL_GAMMA * np.log(qf)).mean())

    live = q > _FLOOR  # the log() floor kills the 1/q term below it
    om = np.maximum(one_minus, 1e-15)
    dq = -FOCAL_ALPHA * (
        -FOCAL_GAMMA * om ** (FOCAL_GAMMA - 1.0) * np.log(qf)
        + one_minus**FOCAL_GAMMA / qf * live
    )
    onehot = np.zeros_like(probs)
    onehot[rows, y] = 1.0
    dlogits = dq[:, None] * q[:, None] * (onehot - probs) / n
    return loss, dlogits


def _center_grad(offsets, gt_offsets, mask):
    """Mean L2 norm of the offset error over masked points, and its gradient."""
    err = offsets - gt_offsets
    norms = np.linalg.norm(err, axis=1)
    m = int(mask.sum())
    loss = float(norms[mask].sum() / m)
    doff = np.zeros_like(offsets)
    safe = mask & (norms > 0.0)
    doff[safe] = err[safe] / norms[safe, None] / m
    return loss, doff


def _npcs_grad(npcs_logits, gt_bins, mask):
    """Bin cross-entropy, mean over masked points and axes, and its gradient."""
    n_all = npcs_logits.shape[0]
    dlogits = _softmax(npcs_logits)
    true_bins = (np.arange(n_all)[:, None], np.arange(3)[None, :], gt_bins)
    picked = dlogits[true_bins]
    m = int(mask.sum())
    loss = float(-np.log(np.maximum(picked[mask], _FLOOR)).mean())

    # (softmax - one-hot) * mask / (3m), written into the softmax.
    dlogits[true_bins] -= 1.0
    dlogits *= mask[:, None, None]
    dlogits /= m * 3
    return loss, dlogits


@dataclass(frozen=True)
class TrainSample:
    """One scene prepared for supervision."""

    points: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    bins: np.ndarray
    part_mask: np.ndarray


def _part_targets(scene: Scene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(part mask, centroid offsets, canonical coordinates) from ground
    truth. Background rows, and any NaN in a part row, read 0.5."""
    part = scene.gt_semantic != BACKGROUND_CLASS
    npcs = np.where(part[:, None], np.nan_to_num(scene.gt_npcs, nan=0.5), 0.5)
    return part, gt_offsets(scene), npcs


def scene_to_sample(scene: Scene) -> TrainSample:
    """Supervision targets from ground truth; background is masked out."""
    mask, offsets, npcs = _part_targets(scene)
    return TrainSample(
        points=scene.points,
        labels=scene.gt_semantic,
        offsets=offsets,
        bins=encode_bins(npcs),
        part_mask=mask,
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 40
    batch_scenes: int = 8
    w_sem: float = 1.0
    w_center: float = 1.0
    w_npcs: float = 1.0
    rng_seed: int = 0
    freeze: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if not (self.epochs >= 1 and self.batch_scenes >= 1):
            raise ValueError("epochs and batch_scenes must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not all(0 <= w < np.inf for w in (self.w_sem, self.w_center, self.w_npcs)):
            raise ValueError("w_sem, w_center and w_npcs must be >= 0 and finite")
        bad = set(self.freeze) - {"sem", "center", "npcs"}
        if bad:
            raise ValueError(f"unknown heads in freeze: {sorted(bad)}")


_HEAD_ARRAYS = {
    "sem": ("w_sem", "b_sem"),
    "center": ("w_off", "b_off"),
    "npcs": ("w_npcs", "b_npcs"),
}


def trainable_arrays(cfg: TrainConfig) -> tuple[str, ...]:
    """Arrays updated by train(). Freezing any head also pins the shared
    encoder so the remaining heads train as pure readouts; that is what
    makes per-head runs combinable afterwards."""
    if not cfg.freeze:
        return _LAYER_NAMES
    names = []
    for head, arrays in _HEAD_ARRAYS.items():
        if head not in cfg.freeze:
            names.extend(arrays)
    return tuple(names)


def scene_gradients(
    params: ModelParams,
    sample: TrainSample,
    cfg: TrainConfig,
    features: np.ndarray | None = None,
) -> tuple[dict, dict]:
    """Weighted losses and gradients for one scene.

    Returns ({"total", "sem", "center", "npcs"}, {array name: grad}).
    Scenes without part points contribute nothing to the masked heads.
    `features` lets callers reuse precomputed per-point features.
    """
    cache = _forward_cache(params, sample.points, features)
    mask = np.asarray(sample.part_mask, dtype=bool)

    sem_loss, d_sem = _semantic_grad(_softmax(cache["sem_logits"]), sample.labels)
    if mask.any():
        center_loss, d_off = _center_grad(cache["offsets"], sample.offsets, mask)
        npcs_loss, d_npcs = _npcs_grad(cache["npcs_logits"], sample.bins, mask)
    else:
        center_loss, npcs_loss = 0.0, 0.0
        d_off = np.zeros_like(cache["offsets"])
        d_npcs = np.zeros_like(cache["npcs_logits"])

    d_sem *= cfg.w_sem
    d_off *= cfg.w_center
    d_npcs *= cfg.w_npcs
    d_npcs_flat = d_npcs.reshape(len(d_npcs), -1)

    h1, h2, f = cache["h1"], cache["h2"], cache["f"]
    g_z2 = d_sem @ params.w_sem.T
    g_z2 += d_off @ params.w_off.T
    g_z2 += d_npcs_flat @ params.w_npcs.T
    g_z2 *= _tanh_slope(h2)
    g_z1 = g_z2 @ params.w2.T
    g_z1 *= _tanh_slope(h1)

    grads = {
        "w1": f.T @ g_z1, "b1": g_z1.sum(axis=0),
        "w2": h1.T @ g_z2, "b2": g_z2.sum(axis=0),
        "w_sem": h2.T @ d_sem, "b_sem": d_sem.sum(axis=0),
        "w_off": h2.T @ d_off, "b_off": d_off.sum(axis=0),
        "w_npcs": h2.T @ d_npcs_flat, "b_npcs": d_npcs_flat.sum(axis=0),
    }
    losses = {
        "total": cfg.w_sem * sem_loss + cfg.w_center * center_loss + cfg.w_npcs * npcs_loss,
        "sem": sem_loss, "center": center_loss, "npcs": npcs_loss,
    }
    return losses, grads


def train(
    params: ModelParams,
    dataset: list[TrainSample],
    cfg: TrainConfig,
    on_epoch=None,
) -> tuple[ModelParams, np.ndarray]:
    """Momentum-SGD training; returns updated parameters and the loss curve.

    The curve has one row per epoch: (total, sem, center, npcs), averaged
    over the epoch's scenes. `on_epoch(epoch, params, row)` runs after
    each epoch (checkpointing hook). Raises NonFiniteLoss with the
    offending epoch/scene when any loss stops being finite.
    """
    if not dataset:
        raise ValueError("dataset must not be empty")
    model = params.copy()
    names = trainable_arrays(cfg)
    velocity = {name: np.zeros_like(getattr(model, name)) for name in names}
    rng = np.random.default_rng(cfg.rng_seed)
    # Points never change across epochs, so neighborhood features don't either.
    features = [point_features(sample.points, model.k) for sample in dataset]

    curve = np.zeros((cfg.epochs, 4))
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        sums = np.zeros(4)
        for start in range(0, len(order), cfg.batch_scenes):
            batch = order[start : start + cfg.batch_scenes]
            acc = {name: np.zeros_like(getattr(model, name)) for name in names}
            for scene_idx in batch:
                losses, grads = scene_gradients(
                    model, dataset[scene_idx], cfg, features[scene_idx]
                )
                if not np.isfinite(list(losses.values())).all():
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, scene {scene_idx}: {losses}"
                    )
                for name in names:
                    acc[name] += grads[name]
                sums += [losses["total"], losses["sem"], losses["center"], losses["npcs"]]
            for name in names:
                g = acc[name] / len(batch)
                velocity[name] = cfg.momentum * velocity[name] - cfg.learning_rate * g
                getattr(model, name)[...] += velocity[name]
        curve[epoch] = sums / len(order)
        if on_epoch is not None:
            on_epoch(epoch, model, curve[epoch])
    return model, curve


@dataclass(frozen=True)
class OracleNoise:
    """Corruption knobs for ground-truth-derived predictions."""

    offset_sigma: float = 0.0
    npcs_sigma: float = 0.0
    semantic_flip_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 <= self.offset_sigma < np.inf and 0 <= self.npcs_sigma < np.inf):
            raise ValueError("offset_sigma and npcs_sigma must be >= 0 and finite")
        if not 0.0 <= self.semantic_flip_prob <= 1.0:
            raise ValueError("semantic_flip_prob must be in [0, 1]")


def oracle_predict(scene, noise: OracleNoise = OracleNoise()) -> PerPointPrediction:
    """Predictions derived from ground truth, optionally corrupted.

    Labels flip (uniformly to another class) with `semantic_flip_prob`;
    offsets and canonical coordinates get Gaussian noise before binning.
    Background rows read bin 0 on every axis. Isolates the geometry
    stages from learned prediction quality.
    """
    rng = np.random.default_rng(noise.rng_seed)
    n = scene.points.shape[0]
    part, offsets, npcs = _part_targets(scene)

    labels = scene.gt_semantic.astype(np.int64).copy()
    if noise.semantic_flip_prob > 0.0:
        flips = rng.uniform(size=n) < noise.semantic_flip_prob
        shift = rng.integers(1, NUM_CLASSES, size=n)
        labels[flips] = (labels[flips] + shift[flips]) % NUM_CLASSES
    probs = np.zeros((n, NUM_CLASSES))
    probs[np.arange(n), labels] = 1.0

    if noise.offset_sigma > 0.0:
        offsets = offsets + rng.normal(0.0, noise.offset_sigma, size=(n, 3))
    if noise.npcs_sigma > 0.0:
        npcs = npcs + rng.normal(0.0, noise.npcs_sigma, size=(n, 3))
    bins = encode_bins(npcs)
    bins[~part] = 0
    return PerPointPrediction(probs, offsets, bins)


def save_weights(params: ModelParams, path) -> None:
    """Little-endian binary: magic, u32 version, u32 layer count, then
    per layer (u32 rows, u32 cols, f64 row-major). Biases are stored as
    single-row matrices and k as a trailing 1x1 entry."""
    matrices = [np.atleast_2d(getattr(params, name)) for name in _LAYER_NAMES]
    matrices.append(np.array([[float(params.k)]]))

    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, len(matrices)))
        for m in matrices:
            fh.write(struct.pack("<II", m.shape[0], m.shape[1]))
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_weights(path) -> ModelParams:
    """Inverse of save_weights; rejects bad magic/version/layout, a
    truncated file, bytes after the last matrix and non-finite weights."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise WeightFormatError(f"bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise WeightFormatError("truncated weights file")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != WEIGHTS_VERSION:
        raise WeightFormatError(f"unsupported weights version {version}")
    if count != len(_LAYER_NAMES) + 1:
        raise WeightFormatError(f"expected {len(_LAYER_NAMES) + 1} matrices, got {count}")

    offset = 12
    matrices = []
    for _ in range(count):
        if offset + 8 > len(blob):
            raise WeightFormatError("truncated weights file")
        rows, cols = struct.unpack_from("<II", blob, offset)
        offset += 8
        nbytes = rows * cols * 8
        if offset + nbytes > len(blob):
            raise WeightFormatError("truncated weights file")
        matrices.append(
            np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset)
            .reshape(rows, cols)
            .astype(np.float64)
        )
        offset += nbytes
    if offset != len(blob):
        raise WeightFormatError(
            f"{len(blob) - offset} trailing bytes after the last matrix"
        )

    named = dict(zip(_LAYER_NAMES, matrices[:-1]))
    _check_layout(named, matrices[-1])
    for name, arr in named.items():
        if not np.isfinite(arr).all():
            raise WeightFormatError(f"layer {name} holds non-finite weights")
        if name.startswith("b"):
            named[name] = arr.reshape(-1)
    return ModelParams(k=int(matrices[-1][0, 0]), **named)


def _check_layout(named: dict, k_matrix: np.ndarray) -> None:
    """Raise WeightFormatError unless the stored matrices have the shapes
    of `_layer_shapes` for the widths of w1 and w2, every width is >= 1
    and k is a 1x1 integer >= 1."""
    h1, h2 = named["w1"].shape[1], named["w2"].shape[1]
    for name, shape in _layer_shapes(h1, h2).items():
        if named[name].shape != shape:
            raise WeightFormatError(
                f"layer {name} has shape {named[name].shape}, expected {shape}"
            )
    if min(h1, h2) < 1:
        raise WeightFormatError(f"layer widths must be >= 1, got {(h1, h2)}")
    if k_matrix.shape != (1, 1):
        raise WeightFormatError(f"k must be a 1x1 matrix, got {k_matrix.shape}")
    k = k_matrix[0, 0]
    if not (np.isfinite(k) and k == int(k) and k >= 1):
        raise WeightFormatError(f"k must be an integer >= 1, got {k}")
