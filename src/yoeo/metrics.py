"""Evaluation: instance matching, pose errors, accuracy, throughput.

Per gt instance the evaluator produces one PoseErrors row; unmatched gt
instances carry infinite errors so accuracy thresholds count them as
failures while mean errors aggregate over matched pairs only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import rotation_geodesic_deg
from .npcs import PoseResult
from .pipeline import InstancePrediction
from .synthetic import Scene

IOU_MC_SAMPLES = 20_000
IOU_MC_SEED = 20240

MATCH_IOU_THRESHOLD = 0.25


@dataclass(frozen=True)
class PoseErrors:
    re_deg: float
    te: float
    se: float  # sizes normalized by the gt box diagonal first
    de: float  # minimum distance between the two axis lines
    iou3d: float
    se_raw: float = 0.0  # plain metric size error, meters

    @property
    def matched(self) -> bool:
        return np.isfinite(self.re_deg)


UNMATCHED = PoseErrors(np.inf, np.inf, np.inf, np.inf, 0.0, np.inf)


@dataclass
class InstanceMatching:
    pairs: list[tuple[int, int, float]]  # (pred index, gt index, membership IoU)
    missed_gt: list[int]
    spurious_pred: list[int]


def match_instances(
    predictions: list[InstancePrediction], scene: Scene
) -> InstanceMatching:
    """Greedy one-to-one matching by descending point-membership IoU.

    Candidates must share the semantic class; pairs below the 0.25 IoU
    floor stay unmatched. Ties resolve by (prediction, gt) index so the
    pairing is deterministic.
    """
    gt_sets = {
        idx: set(np.flatnonzero(scene.gt_instance == idx).tolist())
        for idx in range(len(scene.instances))
    }

    candidates = []
    for p_idx, pred in enumerate(predictions):
        members = set(pred.point_indices.tolist())
        for g_idx, record in enumerate(scene.instances):
            if record.semantic_class != pred.semantic_class:
                continue
            gt_members = gt_sets[g_idx]
            if not gt_members and not members:
                continue
            inter = len(members & gt_members)
            union = len(members | gt_members)
            iou = inter / union if union else 0.0
            if iou >= MATCH_IOU_THRESHOLD:
                candidates.append((-iou, p_idx, g_idx, iou))

    candidates.sort()
    used_pred, used_gt, pairs = set(), set(), []
    for _, p_idx, g_idx, iou in candidates:
        if p_idx in used_pred or g_idx in used_gt:
            continue
        used_pred.add(p_idx)
        used_gt.add(g_idx)
        pairs.append((p_idx, g_idx, iou))

    missed = [g for g in range(len(scene.instances)) if g not in used_gt]
    spurious = [p for p in range(len(predictions)) if p not in used_pred]
    return InstanceMatching(pairs, missed, spurious)


def _axis_line_distance(o1, d1, o2, d2) -> float:
    cross = np.cross(d1, d2)
    norm = np.linalg.norm(cross)
    diff = o2 - o1
    if norm < 1e-12:  # parallel lines
        return float(np.linalg.norm(diff - np.dot(diff, d1) * d1))
    return float(abs(np.dot(diff, cross)) / norm)


def _box_corners(center, rotation, size):
    half = np.asarray(size) / 2.0
    signs = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    return center + (signs * half) @ rotation.T


def box_iou3d_monte_carlo(
    center_a, rot_a, size_a, center_b, rot_b, size_b,
    samples: int = IOU_MC_SAMPLES, seed: int = IOU_MC_SEED,
) -> float:
    """Oriented-box IoU estimated by uniform sampling of the union AABB.

    Seeded sampling keeps the estimate reproducible; identical boxes
    return exactly 1 because every sample lands in both or neither.
    """
    corners = np.vstack(
        [_box_corners(center_a, rot_a, size_a), _box_corners(center_b, rot_b, size_b)]
    )
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, 3))

    def inside(center, rot, size):
        local = (pts - center) @ rot
        return (np.abs(local) <= np.asarray(size) / 2.0).all(axis=1)

    in_a = inside(center_a, rot_a, size_a)
    in_b = inside(center_b, rot_b, size_b)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return float((in_a & in_b).sum() / union)


def pose_errors(
    pred: PoseResult, gt_pose, gt_size, gt_axis, iou_samples: int = IOU_MC_SAMPLES
) -> PoseErrors:
    """Error metrics for one matched prediction/gt pair.

    Rotation error is the geodesic angle, translation error the
    Euclidean gap between transform translations. Size error is computed
    on gt-diagonal-normalized sizes (raw meters reported alongside).
    """
    re = rotation_geodesic_deg(pred.transform.rotation, gt_pose.rotation)
    te = float(np.linalg.norm(pred.transform.translation - gt_pose.translation))
    gt_diag = float(np.linalg.norm(gt_size))
    se = float(np.linalg.norm((np.asarray(pred.size) - gt_size) / gt_diag))
    se_raw = float(np.linalg.norm(np.asarray(pred.size) - gt_size))

    if pred.axis is not None:
        de = _axis_line_distance(
            pred.axis.origin, pred.axis.direction, gt_axis.origin, gt_axis.direction
        )
    else:
        de = np.inf

    center_pred = pred.transform.apply(np.full(3, 0.5))
    center_gt = gt_pose.apply(np.full(3, 0.5))
    iou = box_iou3d_monte_carlo(
        center_pred, pred.transform.rotation, pred.size,
        center_gt, gt_pose.rotation, gt_size, samples=iou_samples,
    )
    return PoseErrors(re, te, se, de, iou, se_raw)


def accuracy_at(
    errors: list[PoseErrors], deg_thresh: float, trans_thresh: float
) -> float:
    """Percentage of rows with re < deg_thresh and te < trans_thresh.

    The list is expected to carry one row per gt instance (unmatched ones
    with infinite errors), so misses count against the denominator.
    """
    if not errors:
        return 0.0
    hits = sum(1 for e in errors if e.re_deg < deg_thresh and e.te < trans_thresh)
    return 100.0 * hits / len(errors)


@dataclass
class EvalReport:
    per_class: dict[int, dict[str, float]]
    overall: dict[str, float]
    a5: float
    a10: float
    matched: int
    missed: int
    spurious: int
    param_count: int | None = None

    def to_dict(self) -> dict:
        return {
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "overall": self.overall,
            "a5": self.a5,
            "a10": self.a10,
            "matched": self.matched,
            "missed": self.missed,
            "spurious": self.spurious,
            "param_count": self.param_count,
        }

    def to_text_table(self) -> str:
        headers = ["", "Re", "Te", "Se", "mIoU", "A5", "A10", "Param"]
        rows = []

        def fmt(stats, label, a5="-", a10="-", param="-"):
            def num(key, factor=1.0, digits=3):
                value = stats.get(key)
                if value is None or not np.isfinite(value):
                    return "-"
                return f"{value * factor:.{digits}f}"

            return [
                label, num("re_deg", digits=2), num("te"), num("se"),
                num("iou3d", 100.0, 1), a5, a10, param,
            ]

        for cls in sorted(self.per_class):
            rows.append(fmt(self.per_class[cls], f"class {cls}"))
        rows.append(
            fmt(
                self.overall,
                "all",
                a5=f"{self.a5:.1f}",
                a10=f"{self.a10:.1f}",
                param=str(self.param_count) if self.param_count else "-",
            )
        )
        widths = [max(len(r[i]) for r in rows + [headers]) for i in range(len(headers))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def evaluate_scenes(
    scenes: list[Scene],
    predictions_per_scene: list[list[InstancePrediction]],
    iou_samples: int = IOU_MC_SAMPLES,
    param_count: int | None = None,
) -> EvalReport:
    """Match, score, and aggregate over a scene list."""
    if len(scenes) != len(predictions_per_scene):
        raise ValueError("scene and prediction counts differ")

    rows: list[tuple[int, PoseErrors]] = []
    matched = missed = spurious = 0
    for scene, preds in zip(scenes, predictions_per_scene):
        matching = match_instances(preds, scene)
        matched += len(matching.pairs)
        missed += len(matching.missed_gt)
        spurious += len(matching.spurious_pred)
        for p_idx, g_idx, _ in matching.pairs:
            record = scene.instances[g_idx]
            errors = pose_errors(
                preds[p_idx].result, record.pose, record.size, record.axis,
                iou_samples=iou_samples,
            )
            rows.append((record.semantic_class, errors))
        for g_idx in matching.missed_gt:
            rows.append((scene.instances[g_idx].semantic_class, UNMATCHED))

    def summarize(selected: list[PoseErrors]) -> dict[str, float]:
        finite = [e for e in selected if e.matched]
        if not finite:
            return {k: float("nan") for k in
                    ("re_deg", "te", "se", "se_raw", "de", "iou3d")}
        return {
            "re_deg": float(np.mean([e.re_deg for e in finite])),
            "te": float(np.mean([e.te for e in finite])),
            "se": float(np.mean([e.se for e in finite])),
            "se_raw": float(np.mean([e.se_raw for e in finite])),
            "de": float(np.mean([e.de for e in finite])),
            "iou3d": float(np.mean([e.iou3d for e in finite])),
        }

    all_errors = [e for _, e in rows]
    per_class = {
        cls: summarize([e for c, e in rows if c == cls])
        for cls in sorted({c for c, _ in rows})
    }
    return EvalReport(
        per_class=per_class,
        overall=summarize(all_errors),
        a5=accuracy_at(all_errors, 5.0, 0.05),
        a10=accuracy_at(all_errors, 10.0, 0.10),
        matched=matched,
        missed=missed,
        spurious=spurious,
        param_count=param_count,
    )


def benchmark_throughput(pipeline_fn, inputs, runs: int = 5) -> dict:
    """Median scenes/second over several timed passes, warm-up excluded.

    `pipeline_fn` is called once per input per pass; results of the
    warm-up pass are discarded.
    """
    if len(inputs) < 10:
        raise ValueError("need at least 10 scenes to benchmark")
    for item in inputs:  # warm-up
        pipeline_fn(item)

    durations = []
    for _ in range(runs):
        start = time.perf_counter()
        for item in inputs:
            pipeline_fn(item)
        durations.append(time.perf_counter() - start)
    median = float(np.median(durations))
    return {
        "hz": len(inputs) / median,
        "median_seconds_per_scene": median / len(inputs),
        "run_seconds": durations,
        "scenes": len(inputs),
        "runs": runs,
    }
