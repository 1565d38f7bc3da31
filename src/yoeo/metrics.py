"""Evaluation: instance matching, pose errors, box IoU, accuracy.

Per gt instance the evaluator produces one PoseErrors row; unmatched gt
instances carry infinite errors so accuracy thresholds count them as
failures while mean errors aggregate over matched pairs only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import rotation_geodesic_deg
from .pipeline import InstancePrediction
from .synthetic import InstanceRecord, Scene

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

    IoU is inter / (|P| + |G| - inter) for a prediction's distinct point
    indices P and a gt instance's points G; one bincount over the gt
    owners of P gives inter for every gt instance. Candidates must share
    the semantic class; pairs below the 0.25 IoU floor stay unmatched.
    Ties resolve by (prediction, gt) index, so the pairing is deterministic.
    """
    # gt_instance + 1 puts the background (-1) in bin 0, which [1:] drops.
    owners = scene.gt_instance + 1
    bins = len(scene.instances) + 1
    gt_sizes = np.bincount(owners, minlength=bins)[1:].tolist()

    candidates = []
    for p_idx, pred in enumerate(predictions):
        members = np.unique(pred.point_indices)
        shared = np.bincount(owners[members], minlength=bins)[1:].tolist()
        for g_idx, inter in enumerate(shared):
            if not inter or scene.instances[g_idx].semantic_class != pred.semantic_class:
                continue
            iou = inter / (len(members) + gt_sizes[g_idx] - inter)
            if iou >= MATCH_IOU_THRESHOLD:
                candidates.append((-iou, p_idx, g_idx, iou))

    pred_free = np.ones(len(predictions), dtype=bool)
    gt_free = np.ones(len(scene.instances), dtype=bool)
    pairs = []
    for _, p_idx, g_idx, iou in sorted(candidates):
        if pred_free[p_idx] and gt_free[g_idx]:
            pred_free[p_idx] = gt_free[g_idx] = False
            pairs.append((p_idx, g_idx, iou))
    return InstanceMatching(
        pairs, np.flatnonzero(gt_free).tolist(), np.flatnonzero(pred_free).tolist()
    )


def _axis_line_distance(o1, d1, o2, d2) -> float:
    cross = np.cross(d1, d2)
    norm = np.linalg.norm(cross)
    diff = o2 - o1
    if norm < 1e-12:  # parallel lines
        return float(np.linalg.norm(diff - np.dot(diff, d1) * d1))
    return float(abs(np.dot(diff, cross)) / norm)


_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
)
# Corner index bits are the sign bits, so flipping one bit walks an edge.
_EDGES = np.array([(i, i | bit) for i in range(8) for bit in (1, 2, 4) if not i & bit])


def _box_corners(center, rotation, size):
    return center + (_CORNER_SIGNS * (np.asarray(size) / 2.0)) @ rotation.T


def _overlap_vertices(corners, center, rotation, size):
    """The corners of one box inside another, plus the points where its
    12 edges cross the other's 6 faces, in world coordinates."""
    half = size / 2.0
    reach = half + 1e-9 * size
    local = (corners - center) @ rotation
    start = local[_EDGES[:, 0]]
    step = local[_EDGES[:, 1]] - start
    with np.errstate(divide="ignore", invalid="ignore"):
        # t[side, edge, axis]: where the edge meets the face plane ±half[axis]
        t = (np.stack([-half, half])[:, None, :] - start) / step
        hits = start[:, None, :] + t[..., None] * step[:, None, :]
        on_face = (t >= 0.0) & (t <= 1.0) & (np.abs(hits) <= reach).all(axis=-1)
    inside = (np.abs(local) <= reach).all(axis=1)
    return np.vstack([local[inside], hits[on_face]]) @ rotation.T + center


def box_iou3d(center_a, rot_a, size_a, center_b, rot_b, size_b) -> float:
    """Exact oriented-box IoU.

    The overlap is convex; its vertices are each box's corners inside the
    other and the crossings of each box's edges with the other's faces, so
    its volume is their convex hull's. Flat or empty overlaps and boxes
    with a non-positive extent give 0; identical boxes give exactly 1.
    """
    size_a, size_b = np.asarray(size_a, float), np.asarray(size_b, float)
    if not ((size_a > 0.0).all() and (size_b > 0.0).all()):
        return 0.0
    vol_a, vol_b = float(np.prod(size_a)), float(np.prod(size_b))
    points = np.vstack([
        _overlap_vertices(_box_corners(center_a, rot_a, size_a), center_b, rot_b, size_b),
        _overlap_vertices(_box_corners(center_b, rot_b, size_b), center_a, rot_a, size_a),
    ])
    inter = 0.0
    if len(points) >= 4:
        try:
            inter = min(ConvexHull(points).volume, vol_a, vol_b)
        except QhullError:
            pass
    return inter / (vol_a + vol_b - inter)


def pose_errors(pred: InstancePrediction, gt: InstanceRecord) -> PoseErrors:
    """Error metrics for a predicted part and its matched gt record.

    Rotation error is the geodesic angle, translation error the Euclidean
    gap between transform translations. Size error is computed on
    gt-diagonal-normalized sizes (raw meters reported alongside). `de` is
    the distance between the axis lines, `iou3d` the exact box overlap.
    """
    pose, size = pred.result.transform, np.asarray(pred.result.size)
    re = rotation_geodesic_deg(pose.rotation, gt.pose.rotation)
    te = float(np.linalg.norm(pose.translation - gt.pose.translation))
    gt_diag = float(np.linalg.norm(gt.size))
    se = float(np.linalg.norm((size - gt.size) / gt_diag))
    se_raw = float(np.linalg.norm(size - gt.size))
    de = _axis_line_distance(
        pred.axis.origin, pred.axis.direction, gt.axis.origin, gt.axis.direction
    )
    center = np.full(3, 0.5)  # of the canonical unit cube
    iou = box_iou3d(pose.apply(center), pose.rotation, size,
                    gt.pose.apply(center), gt.pose.rotation, gt.size)
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
        return asdict(self)

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
        param = str(self.param_count) if self.param_count else "-"
        rows.append(fmt(self.overall, "all", f"{self.a5:.1f}", f"{self.a10:.1f}", param))
        widths = [max(len(r[i]) for r in rows + [headers]) for i in range(len(headers))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def evaluate_scenes(
    scenes: list[Scene],
    predictions_per_scene: list[list[InstancePrediction]],
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
            rows.append((record.semantic_class, pose_errors(preds[p_idx], record)))
        for g_idx in matching.missed_gt:
            rows.append((scene.instances[g_idx].semantic_class, UNMATCHED))

    def summarize(selected: list[PoseErrors]) -> dict[str, float]:
        finite = [e for e in selected if e.matched]
        return {
            key: float(np.mean([getattr(e, key) for e in finite]) if finite else np.nan)
            for key in ("re_deg", "te", "se", "se_raw", "de", "iou3d")
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

