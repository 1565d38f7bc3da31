"""Output checks for the benchmark, computed without the program's code.

Every check returns a list of error strings; an empty list means the
output passed. References are computed here from first principles
(scipy's cKDTree for neighbours, a plain numpy evaluation of the MLP,
point-membership matching, geodesic rotation distance), never read from
a stored copy of an earlier run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

FEATURE_TOL = 1e-9  # meters; only summation order differs from the program
HEAD_TOL = 1e-8
ROTATION_TOL = 1e-6
MATCH_IOU = 0.5


# -- references --------------------------------------------------------------

def ref_point_features(points: np.ndarray, k: int) -> np.ndarray:
    """Centered xyz and the mean offset to the k nearest other points."""
    centered = points - points.mean(axis=0)
    n = len(points)
    _, idx = cKDTree(centered).query(centered, k=k + 1)
    others = idx != np.arange(n)[:, None]
    others[others.all(axis=1), -1] = False  # self fell outside k+1: drop the farthest
    neighbours = idx[others].reshape(n, k)
    return np.hstack([centered, centered[neighbours].mean(axis=1) - centered])


def ref_heads(params, features: np.ndarray):
    """(semantic probabilities, offsets, npcs logits) of the MLP."""
    h1 = np.tanh(features @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    sem = h2 @ params.w_sem + params.b_sem
    sem = np.exp(sem - sem.max(axis=1, keepdims=True))
    probs = sem / sem.sum(axis=1, keepdims=True)
    offsets = h2 @ params.w_off + params.b_off
    logits = (h2 @ params.w_npcs + params.b_npcs).reshape(len(features), 3, -1)
    return probs, offsets, logits


def geodesic_deg(a: np.ndarray, b: np.ndarray) -> float:
    cos = (np.trace(np.asarray(a).T @ np.asarray(b)) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


# -- net_4k ------------------------------------------------------------------

def check_features(points, k, features) -> list[str]:
    ref = ref_point_features(points, k)
    if features.shape != ref.shape:
        return [f"features shape {features.shape}, expected {ref.shape}"]
    err = float(np.abs(features - ref).max())
    if not err <= FEATURE_TOL:
        return [f"point_features differ from the cKDTree reference by {err:.3e}"]
    return []


def check_forward(params, points, pred) -> list[str]:
    ref = ref_heads(params, ref_point_features(points, params.k))
    got = (pred.semantic_probs, pred.offsets, pred.npcs_logits)
    errors = []
    for label, a, b in zip(("semantic_probs", "offsets", "npcs_logits"), got, ref):
        if a.shape != b.shape:
            errors.append(f"forward {label} shape {a.shape}, expected {b.shape}")
            continue
        err = float(np.abs(a - b).max())
        if not err <= HEAD_TOL:
            errors.append(f"forward {label} differs from the numpy reference by {err:.3e}")
    return errors


def check_instances(num_points: int, labels: np.ndarray, instances) -> list[str]:
    """Proper rotation, positive scale, disjoint in-range indices of the
    instance's own predicted class."""
    errors = []
    seen = np.zeros(num_points, dtype=bool)
    for i, inst in enumerate(instances):
        t = inst.result.transform
        r = np.asarray(t.rotation)
        if not (np.abs(r.T @ r - np.eye(3)).max() < ROTATION_TOL
                and abs(np.linalg.det(r) - 1.0) < ROTATION_TOL):
            errors.append(f"instance {i}: rotation is not proper")
        if not (t.scale > 0.0 and np.isfinite(t.scale)):
            errors.append(f"instance {i}: scale {t.scale} is not positive")
        idx = np.asarray(inst.point_indices)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= num_points:
            errors.append(f"instance {i}: point indices out of range")
            continue
        if len(np.unique(idx)) != idx.size or seen[idx].any():
            errors.append(f"instance {i}: point indices overlap")
        seen[idx] = True
        if (labels[idx] != inst.semantic_class).any():
            errors.append(f"instance {i}: members outside class {inst.semantic_class}")
    return errors


# -- matching and pose errors (oracle_noisy_4k, batch_cli) -------------------

def match_membership(gt_instance, gt_classes, pred_classes, pred_indices):
    """Pair each prediction with the ground-truth part holding most of its
    points, if classes agree and membership IoU >= 0.5.

    Returns ({pred index: gt index}, missed gt list, spurious pred list).
    """
    gt_instance = np.asarray(gt_instance)
    sizes = np.bincount(gt_instance[gt_instance >= 0], minlength=len(gt_classes))
    pairs = {}
    for p, members in enumerate(pred_indices):
        owners = gt_instance[np.asarray(members, dtype=np.int64)]
        owners = owners[owners >= 0]
        if owners.size == 0:
            continue
        counts = np.bincount(owners, minlength=len(gt_classes))
        g = int(counts.argmax())
        iou = counts[g] / (len(members) + sizes[g] - counts[g])
        if (iou >= MATCH_IOU and gt_classes[g] == pred_classes[p]
                and g not in pairs.values()):
            pairs[p] = g
    missed = [g for g in range(len(gt_classes)) if g not in pairs.values()]
    spurious = [p for p in range(len(pred_classes)) if p not in pairs]
    return pairs, missed, spurious


def accuracy(errors, total_gt: int, deg: float, trans: float) -> float:
    """Percent of ground-truth parts matched with re < deg and te < trans."""
    if total_gt == 0:
        return 0.0
    hits = sum(1 for re, te in errors if re < deg and te < trans)
    return 100.0 * hits / total_gt


def check_oracle_scene(scene, instances):
    """Every part matched by membership, none spurious.

    Returns (errors, [(re_deg, te)] per matched part).
    """
    gt_classes = [rec.semantic_class for rec in scene.instances]
    pairs, missed, spurious = match_membership(
        scene.gt_instance, gt_classes,
        [inst.semantic_class for inst in instances],
        [inst.point_indices for inst in instances],
    )
    errors = []
    if missed:
        errors.append(f"ground-truth parts {missed} not recovered")
    if spurious:
        errors.append(f"spurious predicted instances {spurious}")
    pose_errors = []
    for p, g in pairs.items():
        pred_t, gt_t = instances[p].result.transform, scene.instances[g].pose
        pose_errors.append((
            geodesic_deg(pred_t.rotation, gt_t.rotation),
            float(np.linalg.norm(np.asarray(pred_t.translation) - gt_t.translation)),
        ))
    return errors, pose_errors


# -- batch_cli ---------------------------------------------------------------

def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_batch_cycle(data_dir: Path, preds_dir: Path, eval_dir: Path, scenes: int) -> list[str]:
    """One generate -> infer --oracle -> eval cycle on clean oracle input.

    Scene and prediction files are parsed here as plain JSON; report.json
    must agree with the A5 and counts recomputed from them.
    """
    scene_files = sorted(data_dir.glob("scene_*.json"))
    pred_files = sorted(preds_dir.glob("pred_*.json"))
    errors = []
    if len(scene_files) != scenes:
        errors.append(f"{len(scene_files)} scene files, expected {scenes}")
    expected = [p.name.replace("scene_", "pred_") for p in scene_files]
    if [p.name for p in pred_files] != expected:
        errors.append(f"prediction files {[p.name for p in pred_files]}, expected {expected}")
        return errors

    pose_errors = []
    matched = missed = spurious = total_gt = 0
    for scene_path, pred_path in zip(scene_files, pred_files):
        scene, pred = _read_json(scene_path), _read_json(pred_path)
        gt = scene["instances"]
        found = pred["instances"]
        pairs, miss, spur = match_membership(
            scene["gt_instance"], [g["class"] for g in gt],
            [f["class"] for f in found], [f["point_indices"] for f in found],
        )
        matched += len(pairs)
        missed += len(miss)
        spurious += len(spur)
        total_gt += len(gt)
        for p, g in pairs.items():
            r_pred = np.reshape(found[p]["pose"]["R"], (3, 3))
            r_gt = np.reshape(gt[g]["pose"]["R"], (3, 3))
            te = np.linalg.norm(np.subtract(found[p]["pose"]["t"], gt[g]["pose"]["t"]))
            pose_errors.append((geodesic_deg(r_pred, r_gt), float(te)))
    a5 = accuracy(pose_errors, total_gt, 5.0, 0.05)

    report = _read_json(eval_dir / "report.json")
    if abs(report["a5"] - a5) > 1e-9:
        errors.append(f"report.json A5 {report['a5']} disagrees with recomputed {a5}")
    for key, own in (("matched", matched), ("missed", missed), ("spurious", spurious)):
        if report[key] != own:
            errors.append(f"report.json {key} {report[key]} disagrees with recomputed {own}")
    if missed or spurious:
        errors.append(f"clean oracle: {missed} parts missed, {spurious} spurious")
    if a5 != 100.0:
        errors.append(f"clean oracle A5 {a5:.2f} below 100")
    return errors
