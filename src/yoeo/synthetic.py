"""Procedural articulated scenes with full ground truth.

Objects are boxes: a body plus drawer/hinge-lid/hinge-handle parts
attached to its faces. Drawers slide out of the +x face; hinged parts
sit on the +z face and pivot about their +x bottom edge. Points are
area-weighted surface samples; every part point carries its canonical
coordinate, and every instance stores the canonical->camera similarity
transform, metric size, and camera-frame joint axis.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpec, SceneFormatError
from .geometry import Sim3Transform, rotation_about_axis
from .npcs import JointAxis, canonicalize_part, transform_axis
from .parts import (
    ARTICULATION_LIMITS,
    BACKGROUND_CLASS,
    KIND_TO_CLASS,
    NUM_CLASSES,
    canonical_joint_axis,
    joint_axis_in_part_frame,
)

SCENE_SCHEMA_VERSION = 2
# Largest point coordinate magnitude a scene file may hold, in meters.
# Far past any real scene, and far below where squared neighbour
# distances overflow (about 1e154) in the k-NN and clustering trees.
MAX_COORDINATE_M = 1e6

# Per-kind (x, y, z) extent ranges of a part box, in meters.
PART_EXTENTS = {
    "drawer": ((0.06, 0.12), (0.12, 0.22), (0.08, 0.16)),
    "hinge_lid": ((0.12, 0.3), (0.12, 0.3), (0.015, 0.03)),
    "hinge_handle": ((0.07, 0.14), (0.025, 0.05), (0.02, 0.04)),
}
# Articulation can swing a hinged part's centroid by ~9 cm, so keep
# same-class placements far enough apart for bandwidth-0.05 clustering.
SAME_CLASS_FACE_SEPARATION = 0.16
# Angular z-buffer cells (azimuth, elevation) of a partial view.
VIEW_GRID = (160, 120)


@dataclass(frozen=True)
class PartSpec:
    kind: str
    extents: np.ndarray
    joint: JointAxis  # in the body frame
    articulation_value: float
    attach_pose: Sim3Transform  # part rest frame in the body frame

    def __post_init__(self):
        object.__setattr__(
            self, "extents", np.asarray(self.extents, dtype=np.float64).reshape(3)
        )


@dataclass(frozen=True)
class ArticulatedObjectSpec:
    body_extents: np.ndarray
    parts: tuple[PartSpec, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "body_extents",
            np.asarray(self.body_extents, dtype=np.float64).reshape(3),
        )

    def validate(self) -> None:
        if (self.body_extents <= 0).any():
            raise DegenerateSpec("body extents must be positive")
        boxes = []
        for part in self.parts:
            if part.kind not in KIND_TO_CLASS:
                raise DegenerateSpec(f"unknown part kind {part.kind!r}")
            if (part.extents <= 0).any():
                raise DegenerateSpec("part extents must be positive")
            lo, hi = ARTICULATION_LIMITS[part.kind]
            if not lo <= part.articulation_value <= hi:
                raise DegenerateSpec(
                    f"{part.kind} articulation {part.articulation_value} "
                    f"outside [{lo}, {hi}]"
                )
            center = part.attach_pose.translation
            boxes.append((center - part.extents / 2, center + part.extents / 2))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _aabbs_overlap(boxes[i], boxes[j]):
                    raise DegenerateSpec(f"parts {i} and {j} overlap at rest")


def _aabbs_overlap(a, b) -> bool:
    return bool((a[0] < b[1]).all() and (b[0] < a[1]).all())


@dataclass(frozen=True)
class GenConfig:
    rng_seed: int = 0
    objects_per_scene: int = 1
    points_per_scene: int = 4096
    drawer_count: tuple[int, int] = (0, 2)
    lid_count: tuple[int, int] = (0, 1)
    handle_count: tuple[int, int] = (0, 2)
    body_extents_range: tuple[float, float] = (0.25, 0.55)
    camera_distance_range: tuple[float, float] = (1.2, 2.0)
    camera_elevation_range_deg: tuple[float, float] = (15.0, 60.0)
    camera_azimuth_range_deg: tuple[float, float] = (0.0, 360.0)
    partial_view: bool = False
    min_part_points: int = 64

    def __post_init__(self):
        if self.points_per_scene < 512:
            raise ValueError("points_per_scene must be >= 512")
        if self.objects_per_scene < 1:
            raise ValueError("objects_per_scene must be >= 1")
        for name in ("drawer_count", "lid_count", "handle_count"):
            low, high = getattr(self, name)
            if not 0 <= low <= high:
                raise ValueError(f"{name} must be (low, high) with 0 <= low <= high")
        for name in (
            "body_extents_range",
            "camera_distance_range",
            "camera_elevation_range_deg",
            "camera_azimuth_range_deg",
        ):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must be (low, high) with low <= high")


@dataclass(frozen=True)
class InstanceRecord:
    semantic_class: int
    pose: Sim3Transform  # canonical unit cube -> camera frame
    size: np.ndarray
    axis: JointAxis  # camera frame


@dataclass(frozen=True)
class Scene:
    points: np.ndarray
    gt_semantic: np.ndarray
    gt_instance: np.ndarray
    gt_npcs: np.ndarray  # NaN rows for background points
    instances: tuple[InstanceRecord, ...]
    camera_pose: Sim3Transform  # camera frame -> world frame


def _sample_face_positions(rng, face_extent, part_extent):
    half = face_extent / 2 - part_extent / 2 - 0.01  # 1 cm margin to the face edge
    if half <= 0:
        return None
    return rng.uniform(-half, half)


def _try_place(rng, body, kind, extents, placed):
    """Rest-frame center for a part on its face (+x for drawers, +z for
    hinged parts), avoiding earlier parts and same-kind neighbors."""
    fixed = 0 if kind == "drawer" else 2
    free = [axis for axis in range(3) if axis != fixed]
    for _ in range(40):
        # Draw both free positions before checking either; the draw
        # order fixes the RNG stream and so every later part and scene.
        positions = [_sample_face_positions(rng, body[a], extents[a]) for a in free]
        if None in positions:
            return None
        face_pos = np.array(positions)
        # The part sits 2 mm off its face.
        positions.insert(fixed, body[fixed] / 2 + 0.002 + extents[fixed] / 2)
        center = np.array(positions)

        lo, hi = center - extents / 2, center + extents / 2
        if any(_aabbs_overlap((lo, hi), box) for _, box, _ in placed):
            continue
        if any(
            other == kind
            and np.linalg.norm(other_pos - face_pos) < SAME_CLASS_FACE_SEPARATION
            for other, _, other_pos in placed
        ):
            continue
        placed.append((kind, (lo, hi), face_pos))
        return center
    return None


def generate_object(seed: int, cfg: GenConfig = GenConfig()) -> ArticulatedObjectSpec:
    """Deterministic random object spec; resamples placements on overlap
    (bounded retries) and drops parts that cannot be placed."""
    rng = np.random.default_rng(seed)
    body = rng.uniform(*cfg.body_extents_range, size=3)

    kind_table = (
        ("drawer", cfg.drawer_count),
        ("hinge_lid", cfg.lid_count),
        ("hinge_handle", cfg.handle_count),
    )
    max_possible = cfg.drawer_count[1] + cfg.lid_count[1] + cfg.handle_count[1]

    parts = []
    for _ in range(16):  # placement-failure retries
        kinds = []
        for kind, count_range in kind_table:
            count = int(rng.integers(count_range[0], count_range[1] + 1))
            kinds.extend([kind] * count)
        if not kinds and max_possible > 0:
            continue

        placed = []  # (kind, rest-frame box, position on its face)
        parts = []
        for kind in kinds:
            extents = np.array([rng.uniform(*r) for r in PART_EXTENTS[kind]])
            center = _try_place(rng, body, kind, extents, placed)
            if center is None:
                continue
            attach = Sim3Transform(1.0, np.eye(3), center)
            part_axis = joint_axis_in_part_frame(kind, extents)
            joint = transform_axis(part_axis, attach)
            lo, hi = ARTICULATION_LIMITS[kind]
            articulation = float(
                rng.uniform(lo + 0.15 * (hi - lo), lo + 0.85 * (hi - lo))
            )
            parts.append(PartSpec(kind, extents, joint, articulation, attach))
        if parts or max_possible == 0:
            break

    spec = ArticulatedObjectSpec(body, tuple(parts))
    spec.validate()
    return spec


def articulated_part_pose(part: PartSpec) -> Sim3Transform:
    """Part rest frame -> body frame after applying the articulation."""
    if part.kind == "drawer":
        shift = part.articulation_value * part.joint.direction
        return Sim3Transform(
            1.0, part.attach_pose.rotation, part.attach_pose.translation + shift
        )
    rotation = rotation_about_axis(part.joint.direction, part.articulation_value)
    origin = part.joint.origin
    about_axis = Sim3Transform(1.0, rotation, origin - rotation @ origin)
    return about_axis.compose(part.attach_pose)


def _box_face_samples(rng, extents, count):
    """Area-weighted stratified surface samples of a centered box."""
    ex, ey, ez = extents
    # (fixed axis, sign, u axis, v axis, u extent, v extent)
    faces = [
        (0, 1, 1, 2, ey, ez), (0, -1, 1, 2, ey, ez),
        (1, 1, 0, 2, ex, ez), (1, -1, 0, 2, ex, ez),
        (2, 1, 0, 1, ex, ey), (2, -1, 0, 1, ex, ey),
    ]
    areas = np.array([f[4] * f[5] for f in faces], dtype=np.float64)
    alloc = _largest_remainder(areas / areas.sum() * count)

    pts = []
    half = np.asarray(extents) / 2
    for (axis, sign, ua, va, ue, ve), n_face in zip(faces, alloc):
        if n_face == 0:
            continue
        grid_u = max(1, int(round(np.sqrt(n_face * ue / max(ve, 1e-9)))))
        grid_v = int(np.ceil(n_face / grid_u))
        cells = np.stack(
            np.meshgrid(np.arange(grid_u), np.arange(grid_v), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        cells = cells[rng.permutation(len(cells))[:n_face]]
        jitter = rng.uniform(size=(n_face, 2))
        uv = (cells + jitter) / [grid_u, grid_v] * [ue, ve] - [ue / 2, ve / 2]
        face_pts = np.zeros((n_face, 3))
        face_pts[:, axis] = sign * half[axis]
        face_pts[:, ua] = uv[:, 0]
        face_pts[:, va] = uv[:, 1]
        pts.append(face_pts)
    return np.vstack(pts)


def _largest_remainder(quota: np.ndarray) -> np.ndarray:
    base = np.floor(quota).astype(int)
    short = int(round(quota.sum())) - base.sum()
    order = np.argsort(-(quota - base), kind="stable")
    base[order[:short]] += 1
    return base


def _camera_pose(rng, cfg: GenConfig) -> Sim3Transform:
    """Camera -> world; camera looks at the origin along its +z axis."""
    distance = rng.uniform(*cfg.camera_distance_range)
    elevation = np.deg2rad(rng.uniform(*cfg.camera_elevation_range_deg))
    azimuth = np.deg2rad(rng.uniform(*cfg.camera_azimuth_range_deg))
    position = distance * np.array(
        [
            np.cos(elevation) * np.cos(azimuth),
            np.cos(elevation) * np.sin(azimuth),
            np.sin(elevation),
        ]
    )
    forward = -position / np.linalg.norm(position)
    up_hint = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up_hint)
    if np.linalg.norm(right) < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)  # columns = camera axes
    return Sim3Transform(1.0, rotation, position)


def _partial_view_mask(points_cam: np.ndarray) -> np.ndarray:
    """Keep the nearest point per VIEW_GRID angular cell (z-buffer culling)."""
    x, y, z = points_cam[:, 0], points_cam[:, 1], points_cam[:, 2]
    azimuth = np.arctan2(x, z)
    elevation = np.arctan2(y, np.hypot(x, z))
    dist = np.linalg.norm(points_cam, axis=1)

    def bins(values, n):
        lo, hi = values.min(), values.max()
        span = max(hi - lo, 1e-9)
        return np.minimum((values - lo) / span * n, n - 1).astype(np.int64)

    n_azimuth, n_elevation = VIEW_GRID
    cell = bins(azimuth, n_azimuth) * n_elevation + bins(elevation, n_elevation)
    # lexsort is stable, so (cell, dist) ties keep index order.
    order = np.lexsort((dist, cell))
    sorted_cells = cell[order]
    first = np.ones(len(cell), dtype=bool)
    first[1:] = sorted_cells[1:] != sorted_cells[:-1]
    keep = np.zeros(len(cell), dtype=bool)
    keep[order[first]] = True
    return keep


def render_scene(spec: ArticulatedObjectSpec, cfg: GenConfig) -> Scene:
    """Sample, pose, and label surface points for one or more objects.

    Point allocation is area-weighted across all boxes with a floor of
    `min_part_points` per part so clustering stays viable on small
    handles. Objects beyond the first are spaced out along world x.
    """
    spec.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    camera = _camera_pose(rng, cfg)
    camera_inv = camera.inverse()

    specs = [spec]
    if cfg.objects_per_scene > 1:
        specs = [spec] + [
            generate_object(int(rng.integers(0, 2**63 - 1)), cfg)
            for _ in range(cfg.objects_per_scene - 1)
        ]
    spacing = 1.5 * max(np.linalg.norm(s.body_extents) for s in specs)

    boxes = []  # (extents, world pose, semantic class, instance id or -1)
    next_instance = 0
    for obj_idx, obj in enumerate(specs):
        offset = np.array([obj_idx * spacing, 0.0, 0.0])
        body_pose = Sim3Transform(1.0, np.eye(3), offset)
        boxes.append((obj.body_extents, body_pose, BACKGROUND_CLASS, -1))
        for part in obj.parts:
            world = body_pose.compose(articulated_part_pose(part))
            boxes.append((part.extents, world, KIND_TO_CLASS[part.kind], next_instance))
            next_instance += 1

    areas = np.array(
        [2 * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2]) for e, *_ in boxes]
    )
    alloc = _largest_remainder(areas / areas.sum() * cfg.points_per_scene)
    floors = np.array([max(cfg.min_part_points, 4) if b[3] >= 0 else 0 for b in boxes])
    alloc = np.maximum(alloc, floors)
    excess = alloc.sum() - cfg.points_per_scene
    while excess > 0:
        slack = alloc - floors
        i = int(np.argmax(slack))
        if slack[i] <= 0:
            raise DegenerateSpec("point budget too small for the part floors")
        take = min(excess, slack[i])
        alloc[i] -= take
        excess -= take

    all_points, all_sem, all_inst, all_npcs = [], [], [], []
    instances = []
    for (extents, world_pose, sem, inst_id), n_box in zip(boxes, alloc):
        cam_pose = camera_inv.compose(world_pose)
        if inst_id >= 0:
            diagonal = float(np.linalg.norm(extents))
            pose = Sim3Transform(
                diagonal,
                cam_pose.rotation,
                cam_pose.translation
                - diagonal * cam_pose.rotation @ np.full(3, 0.5),
            )
            axis_canon = canonical_joint_axis(sem, extents / diagonal)
            instances.append(
                InstanceRecord(sem, pose, extents.copy(), transform_axis(axis_canon, pose))
            )
        if n_box == 0:
            continue
        local = _box_face_samples(rng, extents, int(n_box))
        points_cam = cam_pose.apply(local)
        all_points.append(points_cam)
        all_sem.append(np.full(len(local), sem, dtype=np.int64))
        all_inst.append(np.full(len(local), inst_id, dtype=np.int64))
        if inst_id >= 0:
            all_npcs.append(canonicalize_part(points_cam, cam_pose, extents))
        else:
            all_npcs.append(np.full((len(local), 3), np.nan))

    points = np.vstack(all_points)
    scene = Scene(
        points=points,
        gt_semantic=np.concatenate(all_sem),
        gt_instance=np.concatenate(all_inst),
        gt_npcs=np.vstack(all_npcs),
        instances=tuple(instances),
        camera_pose=camera,
    )
    if cfg.partial_view:
        keep = _partial_view_mask(points)
        scene = dataclasses.replace(
            scene,
            points=scene.points[keep],
            gt_semantic=scene.gt_semantic[keep],
            gt_instance=scene.gt_instance[keep],
            gt_npcs=scene.gt_npcs[keep],
        )

    _check_npcs_roundtrip(scene)
    return scene


def _check_npcs_roundtrip(scene: Scene) -> None:
    for idx, record in enumerate(scene.instances):
        mask = scene.gt_instance == idx
        if not mask.any():
            continue
        rebuilt = record.pose.apply(scene.gt_npcs[mask])
        err = np.abs(rebuilt - scene.points[mask]).max()
        if err > 1e-6:
            raise DegenerateSpec(f"instance {idx} npcs roundtrip error {err:.2e}")


def gt_offsets(scene: Scene) -> np.ndarray:
    """Per-point offset to its instance centroid; zero for background."""
    offsets = np.zeros_like(scene.points)
    for idx in range(len(scene.instances)):
        mask = scene.gt_instance == idx
        if mask.any():
            offsets[mask] = scene.points[mask].mean(axis=0) - scene.points[mask]
    return offsets


def _vec(a) -> list:
    return np.asarray(a, dtype=np.float64).reshape(-1).tolist()


def record_to_dict(record: InstanceRecord) -> dict:
    """JSON form of one part: class, pose {s, R, t}, size, axis {origin,
    dir, kind}. Scene files and prediction files both use it."""
    return {
        "class": record.semantic_class,
        "pose": {
            "s": record.pose.scale,
            "R": _vec(record.pose.rotation),
            "t": _vec(record.pose.translation),
        },
        "size": _vec(record.size),
        "axis": {
            "origin": _vec(record.axis.origin),
            "dir": _vec(record.axis.direction),
            "kind": record.axis.kind,
        },
    }


def _get(data, key: str, what: str):
    """`data[key]`; SceneFormatError if `data` is not an object or lacks `key`."""
    if not isinstance(data, dict):
        raise SceneFormatError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    if key not in data:
        raise SceneFormatError(f"{what} has no {key!r}")
    return data[key]


def _as_array(values, dtype, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"{what}: {exc}") from exc


def _numbers(values, count: int, what: str) -> np.ndarray:
    array = _as_array(values, np.float64, what)
    if array.shape != (count,):
        raise SceneFormatError(
            f"{what} must be {count} numbers, got shape {array.shape}"
        )
    return array


def _transform_from_dict(data, scale, what: str) -> Sim3Transform:
    rotation = _numbers(_get(data, "R", what), 9, f"{what} R").reshape(3, 3)
    translation = _numbers(_get(data, "t", what), 3, f"{what} t")
    try:
        return Sim3Transform(scale, rotation, translation)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"{what}: {exc}") from exc


def record_from_dict(data) -> InstanceRecord:
    """Inverse of `record_to_dict`; raises SceneFormatError for a missing
    field, a class that is not an integer part class in [1, NUM_CLASSES),
    a vector of the wrong length, an unknown axis kind, or values that do
    not make a similarity transform and a joint axis."""
    pose = _get(data, "pose", "instance")
    axis = _get(data, "axis", "instance")
    origin = _numbers(_get(axis, "origin", "instance axis"), 3, "axis origin")
    direction = _numbers(_get(axis, "dir", "instance axis"), 3, "axis dir")
    size = _numbers(_get(data, "size", "instance"), 3, "instance size")
    transform = _transform_from_dict(
        pose, _get(pose, "s", "instance pose"), "instance pose"
    )
    semantic_class = _get(data, "class", "instance")
    if type(semantic_class) is not int or not 0 < semantic_class < NUM_CLASSES:
        raise SceneFormatError(
            f"instance class must be an integer in [1, {NUM_CLASSES}), "
            f"not {semantic_class!r}"
        )
    kind = _get(axis, "kind", "instance axis")
    try:
        return InstanceRecord(
            semantic_class, transform, size, JointAxis(origin, direction, kind)
        )
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"instance: {exc}") from exc


def _encode_rows(rows: np.ndarray) -> str:
    """(n, 3) rows as base64 of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def _decode_rows(text, what: str) -> np.ndarray:
    """Inverse of `_encode_rows`; an empty string gives (0, 3)."""
    if not isinstance(text, str):
        raise SceneFormatError(
            f"{what} must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise SceneFormatError(f"{what} is not valid base64: {exc}") from exc
    if len(raw) % 24:
        raise SceneFormatError(
            f"{what} holds {len(raw)} bytes, not rows of 3 float64 (24 bytes)"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(-1, 3).astype(np.float64)


def scene_to_dict(scene: Scene) -> dict:
    npcs = np.array(scene.gt_npcs, dtype=np.float64)
    # Any NaN marks a background row; the reader takes only whole-NaN rows.
    npcs[np.isnan(npcs).any(axis=1)] = np.nan
    return {
        "version": SCENE_SCHEMA_VERSION,
        "points": _encode_rows(scene.points),
        "gt_semantic": scene.gt_semantic.tolist(),
        "gt_instance": scene.gt_instance.tolist(),
        "gt_npcs": _encode_rows(npcs),
        "instances": [record_to_dict(record) for record in scene.instances],
        "camera_pose": {
            "R": _vec(scene.camera_pose.rotation),
            "t": _vec(scene.camera_pose.translation),
        },
    }


def _labels(values, n: int, what: str) -> np.ndarray:
    array = _as_array(values, np.int64, what)
    if array.shape != (n,):
        raise SceneFormatError(f"{what} has shape {array.shape}, expected ({n},)")
    return array


def scene_from_dict(data) -> Scene:
    """Inverse of `scene_to_dict`; raises SceneFormatError for anything
    that is not a version-2 scene with arrays of agreeing shapes, finite
    points, classes in [0, NUM_CLASSES), instance ids in
    [-1, number of instance records), and each point's class equal to
    its instance record's class (BACKGROUND_CLASS for instance -1)."""
    version = _get(data, "version", "scene")
    if version == 1:
        raise SceneFormatError(
            "scene file version 1 is no longer read; regenerate it with "
            "`yoeo generate` and the seed and config in its manifest.json"
        )
    if version != SCENE_SCHEMA_VERSION:
        raise SceneFormatError(f"unsupported scene version {version!r}")
    points = _decode_rows(_get(data, "points", "scene"), "points")
    if not np.isfinite(points).all():
        raise SceneFormatError("points must be finite")
    n = len(points)
    npcs = _decode_rows(_get(data, "gt_npcs", "scene"), "gt_npcs")
    if len(npcs) != n:
        raise SceneFormatError(f"gt_npcs has {len(npcs)} rows, points {n}")
    if not (np.isnan(npcs).all(axis=1) | np.isfinite(npcs).all(axis=1)).all():
        raise SceneFormatError(
            "gt_npcs rows must be three NaNs (background) or three finite numbers"
        )
    semantic = _labels(_get(data, "gt_semantic", "scene"), n, "gt_semantic")
    outside = (semantic < 0) | (semantic >= NUM_CLASSES)
    if outside.any():
        bad = semantic[outside][0]
        raise SceneFormatError(f"gt_semantic class {bad} is outside [0, {NUM_CLASSES})")
    instances = _get(data, "instances", "scene")
    if not isinstance(instances, list):
        raise SceneFormatError("scene instances must be a list")
    instance = _labels(_get(data, "gt_instance", "scene"), n, "gt_instance")
    outside = (instance < -1) | (instance >= len(instances))
    if outside.any():
        raise SceneFormatError(
            f"gt_instance {instance[outside][0]} is outside [-1, {len(instances)})"
        )
    records = tuple(record_from_dict(item) for item in instances)
    # Entry 0 is the class of instance -1, the background.
    record_class = np.array([BACKGROUND_CLASS, *(r.semantic_class for r in records)])
    owner_class = record_class[instance + 1]
    disagree = np.flatnonzero(semantic != owner_class)
    if disagree.size:
        i = disagree[0]
        raise SceneFormatError(
            f"point {i} has gt_semantic {semantic[i]} but its gt_instance "
            f"{instance[i]} is class {owner_class[i]}"
        )
    return Scene(
        points=points,
        gt_semantic=semantic,
        gt_instance=instance,
        gt_npcs=npcs,
        instances=records,
        camera_pose=_transform_from_dict(
            _get(data, "camera_pose", "scene"), 1.0, "camera_pose"
        ),
    )


def save_scene(scene: Scene, path) -> None:
    # json.dumps encodes in C; json.dump would stream through the
    # pure-Python encoder. Both write the same bytes.
    with open(path, "w") as fh:
        fh.write(json.dumps(scene_to_dict(scene)))


def load_scene(path) -> Scene:
    """Read a scene file; raises SceneFormatError for what `scene_from_dict`
    rejects and for point coordinates beyond MAX_COORDINATE_M, which the
    codec keeps bit-exact but no later stage can use."""
    with open(path) as fh:
        scene = scene_from_dict(json.load(fh))
    if (np.abs(scene.points) > MAX_COORDINATE_M).any():
        raise SceneFormatError(
            f"point coordinates must lie within ±{MAX_COORDINATE_M:g} m"
        )
    return scene


def export_ply(scene: Scene, path) -> None:
    """ASCII PLY with xyz and the semantic label per vertex."""
    body = "".join(
        f"{x} {y} {z} {label}\n"
        for (x, y, z), label in zip(scene.points.tolist(), scene.gt_semantic.tolist())
    )
    with open(path, "w") as fh:
        fh.write(
            "ply\nformat ascii 1.0\n"
            f"element vertex {len(scene.points)}\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property int label\nend_header\n" + body
        )
