import base64
import dataclasses
import io
import json
import math
import re
import struct

import numpy as np
import pytest

from families import C8_FAMILY
from yoeo.errors import DegenerateSpec, SceneFormatError
from yoeo.geometry import RansacParams, Sim3Transform, rotation_geodesic_deg
from yoeo.npcs import recover_pose, transform_axis
from yoeo.parts import CLASS_TO_KIND, KIND_TO_CLASS, canonical_joint_axis
from yoeo.synthetic import (
    ArticulatedObjectSpec,
    GenConfig,
    PartSpec,
    Scene,
    articulated_part_pose,
    export_ply,
    generate_object,
    gt_offsets,
    load_scene,
    record_from_dict,
    record_to_dict,
    render_scene,
    save_scene,
)

def spec_fingerprint(spec):
    rows = [tuple(spec.body_extents)]
    for part in spec.parts:
        rows.append(
            (
                part.kind,
                tuple(part.extents),
                tuple(part.joint.origin),
                tuple(part.joint.direction),
                part.articulation_value,
                tuple(part.attach_pose.translation),
            )
        )
    return rows


class TestGenerateObject:
    def test_deterministic_per_seed(self):
        a = generate_object(42)
        b = generate_object(42)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_many_seeds_pass_invariants(self):
        for seed in range(1000):
            spec = generate_object(seed)
            spec.validate()  # raises on violation

    def test_parts_forced_to_zero(self):
        cfg = GenConfig(drawer_count=(0, 0), lid_count=(0, 0), handle_count=(0, 0))
        spec = generate_object(5, cfg)
        assert spec.parts == ()

    def test_forced_counts(self):
        cfg = GenConfig(
            drawer_count=(2, 2), lid_count=(0, 0), handle_count=(1, 1),
            body_extents_range=(0.45, 0.6),
        )
        spec = generate_object(11, cfg)
        kinds = sorted(p.kind for p in spec.parts)
        assert kinds == ["drawer", "drawer", "hinge_handle"]

    @pytest.mark.parametrize(
        "field, value",
        [("drawer_count", (2, 1)), ("lid_count", (-1, 0)), ("handle_count", (-2, -1)),
         ("body_extents_range", (0.6, 0.5)), ("camera_distance_range", (2.0, 1.0)),
         ("camera_elevation_range_deg", (60.0, 15.0)),
         ("camera_azimuth_range_deg", (360.0, 0.0)),
         ("body_extents_range", (float("nan"), 0.5)),
         # A body or a camera distance of no length makes NaN scenes.
         ("body_extents_range", (-1.0, 0.1)), ("body_extents_range", (0.0, 0.1)),
         ("camera_distance_range", (0.0, 0.0)),
         ("camera_distance_range", (1.0, float("inf"))),
         ("camera_elevation_range_deg", (float("-inf"), 60.0))],
    )
    def test_bad_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenConfig(**{field: value})

    def test_single_value_ranges_accepted(self):
        cfg = GenConfig(drawer_count=(0, 0), body_extents_range=(0.4, 0.4),
                        camera_azimuth_range_deg=(90.0, 90.0))
        spec = generate_object(3, cfg)
        assert np.all(spec.body_extents == 0.4)

    def test_invalid_spec_rejected(self):
        body = np.array([0.4, 0.4, 0.4])
        part = PartSpec(
            kind="drawer",
            extents=np.array([0.1, 0.1, 0.1]),
            joint=canonical_joint_axis(1, np.full(3, 0.5)),
            articulation_value=0.9,  # beyond the drawer limit
            attach_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        with pytest.raises(DegenerateSpec):
            ArticulatedObjectSpec(body, (part,)).validate()


class TestRenderScene:
    def test_point_count_exact_without_partial_view(self):
        cfg = GenConfig(rng_seed=1, points_per_scene=2048)
        scene = render_scene(generate_object(1), cfg)
        assert scene.points.shape == (2048, 3)
        assert scene.gt_semantic.shape == (2048,)
        assert scene.gt_instance.shape == (2048,)
        assert scene.gt_npcs.shape == (2048, 3)

    def test_drawer_articulation_moves_pose_along_axis(self):
        cfg = GenConfig(rng_seed=2, drawer_count=(1, 1), lid_count=(0, 0),
                        handle_count=(0, 0))
        spec = generate_object(3, cfg)
        part = spec.parts[0]
        moved = dataclasses.replace(part, articulation_value=0.1)
        rest = dataclasses.replace(part, articulation_value=0.0)
        scene_moved = render_scene(
            ArticulatedObjectSpec(spec.body_extents, (moved,)), cfg
        )
        scene_rest = render_scene(
            ArticulatedObjectSpec(spec.body_extents, (rest,)), cfg
        )
        delta = (
            scene_moved.instances[0].pose.translation
            - scene_rest.instances[0].pose.translation
        )
        assert np.linalg.norm(delta) == pytest.approx(0.1, abs=1e-9)
        axis_dir = scene_rest.instances[0].axis.direction
        assert abs(abs(np.dot(delta / 0.1, axis_dir)) - 1.0) < 1e-9

    def test_lid_articulation_rotates_by_angle(self):
        cfg = GenConfig(rng_seed=4, drawer_count=(0, 0), lid_count=(1, 1),
                        handle_count=(0, 0))
        spec = generate_object(7, cfg)
        lid = spec.parts[0]
        angled = dataclasses.replace(lid, articulation_value=np.deg2rad(30.0))
        rest = dataclasses.replace(lid, articulation_value=0.0)
        pose_angled = articulated_part_pose(angled)
        pose_rest = articulated_part_pose(rest)
        angle = rotation_geodesic_deg(pose_angled.rotation, pose_rest.rotation)
        assert angle == pytest.approx(30.0, abs=1e-9)

    def test_partial_view_culls_subset(self):
        cfg_full = GenConfig(rng_seed=5, points_per_scene=2048)
        cfg_partial = dataclasses.replace(cfg_full, partial_view=True)
        spec = generate_object(9)
        full = render_scene(spec, cfg_full)
        partial = render_scene(spec, cfg_partial)
        assert len(partial.points) < len(full.points)
        # Culling only removes points: every kept row exists in the full set.
        full_rows = {tuple(np.round(r, 12)) for r in full.points}
        for row in partial.points:
            assert tuple(np.round(row, 12)) in full_rows

    def test_bit_identical_for_same_seed_and_config(self):
        cfg = GenConfig(rng_seed=6, points_per_scene=1024)
        spec = generate_object(13)
        a = render_scene(spec, cfg)
        b = render_scene(spec, cfg)
        assert (a.points == b.points).all()
        assert (a.gt_semantic == b.gt_semantic).all()
        assert np.array_equal(a.gt_npcs, b.gt_npcs, equal_nan=True)

    def test_npcs_roundtrip_through_instance_pose(self):
        cfg = GenConfig(rng_seed=7, points_per_scene=1024)
        scene = render_scene(generate_object(17), cfg)
        for idx, record in enumerate(scene.instances):
            mask = scene.gt_instance == idx
            rebuilt = record.pose.apply(scene.gt_npcs[mask])
            assert np.abs(rebuilt - scene.points[mask]).max() < 1e-6

    def test_recover_pose_roundtrip_matches_stored_pose(self):
        cfg = GenConfig(rng_seed=8, points_per_scene=1024)
        scene = render_scene(generate_object(19), cfg)
        assert scene.instances
        for idx, record in enumerate(scene.instances):
            mask = scene.gt_instance == idx
            result = recover_pose(
                scene.gt_npcs[mask], scene.points[mask],
                params=RansacParams(rng_seed=0),
            )
            re = rotation_geodesic_deg(result.transform.rotation, record.pose.rotation)
            te = np.linalg.norm(
                result.transform.translation - record.pose.translation
            )
            scale_rel = abs(result.transform.scale - record.pose.scale) / record.pose.scale
            assert re < 1e-3
            assert te < 1e-6
            assert scale_rel < 1e-9

    def test_stored_axis_matches_canonical_transform(self):
        cfg = GenConfig(rng_seed=9, points_per_scene=1024,
                        drawer_count=(1, 1), lid_count=(1, 1), handle_count=(1, 1),
                        body_extents_range=(0.45, 0.6))
        scene = render_scene(generate_object(23, cfg), cfg)
        for record in scene.instances:
            canonical_extents = record.size / record.pose.scale
            axis = transform_axis(
                canonical_joint_axis(record.semantic_class, canonical_extents),
                record.pose,
            )
            assert np.abs(axis.direction - record.axis.direction).max() < 1e-9
            assert np.abs(axis.origin - record.axis.origin).max() < 1e-9
            assert axis.kind == record.axis.kind

    def test_semantic_classes_match_kinds(self):
        cfg = GenConfig(rng_seed=10, drawer_count=(1, 1), lid_count=(1, 1),
                        handle_count=(1, 1), body_extents_range=(0.45, 0.6),
                        points_per_scene=1024)
        spec = generate_object(29, cfg)
        scene = render_scene(spec, cfg)
        for record, part in zip(scene.instances, spec.parts):
            assert record.semantic_class == KIND_TO_CLASS[part.kind]
            assert CLASS_TO_KIND[record.semantic_class] == part.kind

    def test_min_part_points_floor(self):
        cfg = GenConfig(rng_seed=11, points_per_scene=512, min_part_points=64,
                        handle_count=(1, 1), drawer_count=(0, 0), lid_count=(0, 0))
        scene = render_scene(generate_object(31, cfg), cfg)
        counts = np.bincount(scene.gt_instance[scene.gt_instance >= 0])
        assert (counts >= 64).all()


class TestGtOffsets:
    def test_offsets_move_points_to_centroid(self):
        cfg = GenConfig(rng_seed=12, points_per_scene=1024)
        scene = render_scene(generate_object(37), cfg)
        offsets = gt_offsets(scene)
        for idx in range(len(scene.instances)):
            mask = scene.gt_instance == idx
            votes = scene.points[mask] + offsets[mask]
            centroid = scene.points[mask].mean(axis=0)
            assert np.abs(votes - centroid).max() < 1e-9

    def test_background_offsets_zero(self):
        cfg = GenConfig(rng_seed=13, points_per_scene=1024)
        scene = render_scene(generate_object(41), cfg)
        offsets = gt_offsets(scene)
        assert (offsets[scene.gt_instance < 0] == 0).all()

    def test_single_point_instance_offset_zero(self):
        scene = render_scene(generate_object(43), GenConfig(rng_seed=14,
                                                            points_per_scene=1024))
        # Definitional: any instance's centroid offset sums to zero.
        offsets = gt_offsets(scene)
        for idx in range(len(scene.instances)):
            mask = scene.gt_instance == idx
            assert np.abs(offsets[mask].mean(axis=0)).max() < 1e-9


def rows_array(rows):
    """(n, 3) float64 rows; a None row is three NaNs (a background point)."""
    return np.array(
        [[math.nan] * 3 if row is None else row for row in rows], dtype=np.float64
    ).reshape(-1, 3)


def packed_rows(rows):
    """The rows' numbers as little-endian float64, packed one number at a
    time with `struct`; a None row is three NaNs."""
    flat = [x for row in rows for x in ([math.nan] * 3 if row is None else row)]
    return struct.pack(f"<{len(flat)}d", *flat)


def npy_bytes(array, **save_options):
    out = io.BytesIO()
    np.save(out, array, **save_options)
    return out.getvalue()


def npz_bytes(array):
    out = io.BytesIO()
    np.savez(out, array)
    return out.getvalue()


def streamed_scene_bytes(scene, path):
    """Scene file bytes from the JSON fields streamed through the
    pure-Python encoder by `json.dump`, and `.npy` bytes built by hand: the
    format-1.0 header padded to 64 bytes, then points and NPCS packed
    row by row with `struct`."""
    def vec(a):
        return np.asarray(a, dtype=np.float64).reshape(-1).tolist()

    data = {
        "version": 3,
        "gt_semantic": scene.gt_semantic.tolist(),
        "gt_instance": scene.gt_instance.tolist(),
        "instances": [
            {
                "class": r.semantic_class,
                "pose": {"s": r.pose.scale, "R": vec(r.pose.rotation),
                         "t": vec(r.pose.translation)},
                "size": vec(r.size),
                "axis": {"origin": vec(r.axis.origin), "dir": vec(r.axis.direction),
                         "kind": r.axis.kind},
            }
            for r in scene.instances
        ],
        "camera_pose": {"R": vec(scene.camera_pose.rotation),
                        "t": vec(scene.camera_pose.translation)},
    }
    with open(path, "w") as fh:
        json.dump(data, fh)
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': (2, {len(scene.points)}, 3), }}"
    header = header.ljust(64 * -(-(len(header) + 11) // 64) - 11) + "\n"
    npcs = [None if np.isnan(row).any() else row.tolist() for row in scene.gt_npcs]
    npy = (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode("ascii")
           + packed_rows(scene.points.tolist()) + packed_rows(npcs))
    return path.read_bytes(), npy


TINY_POINTS = [[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.0, 0.1, 1.0]]
TINY_NPCS = [None, [0.5, 0.25, 0.0], [0.25, 0.5, 1.0]]


def tiny_arrays(points=TINY_POINTS, npcs=TINY_NPCS):
    """The `.npy` array of `tiny_scene_dict`: [points, gt_npcs]."""
    return np.stack([rows_array(points), rows_array(npcs)])


def tiny_scene_dict():
    """The JSON of a valid 3-point scene: one background point, two part
    points of instance 0. Its arrays are `tiny_arrays()`."""
    return {
        "version": 3,
        "gt_semantic": [0, 1, 1],
        "gt_instance": [-1, 0, 0],
        "instances": [tiny_record_dict()],
        "camera_pose": {"R": np.eye(3).reshape(-1).tolist(), "t": [0.0, 0.0, 0.0]},
    }


def write_scene(tmp_path, data, npy):
    """`scene.json` holding `data` and, beside it, `scene.npy` holding `npy`:
    an array to `np.save`, raw bytes, or None for no `.npy` at all."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    if npy is not None:
        raw = npy if isinstance(npy, bytes) else npy_bytes(npy)
        path.with_suffix(".npy").write_bytes(raw)
    return path


def load_tiny(tmp_path, data=None, npy=None):
    """`load_scene` of the tiny scene, or of `data` and `npy` in its place."""
    data = tiny_scene_dict() if data is None else data
    return load_scene(write_scene(tmp_path, data, tiny_arrays() if npy is None else npy))


def v1_scene_dict(scene):
    """The version-1 layout: decimal point rows and null background rows."""
    return {
        "version": 1,
        "points": scene.points.tolist(),
        "gt_semantic": scene.gt_semantic.tolist(),
        "gt_instance": scene.gt_instance.tolist(),
        "gt_npcs": [None if np.isnan(row).any() else row.tolist() for row in scene.gt_npcs],
        "instances": [record_to_dict(record) for record in scene.instances],
    }


def v2_scene_dict(scene):
    """The version-2 layout: points and NPCS as base64 strings in the JSON."""
    def encoded(rows):
        return base64.b64encode(rows.astype("<f8").tobytes()).decode("ascii")

    return {**v1_scene_dict(scene), "version": 2,
            "points": encoded(scene.points), "gt_npcs": encoded(scene.gt_npcs)}


def tiny_record_dict():
    return {
        "class": 1,
        "pose": {"s": 0.2, "R": np.eye(3).reshape(-1).tolist(), "t": [0.0, 0.1, 1.0]},
        "size": [0.1, 0.1, 0.1],
        "axis": {"origin": [0.0, 0.0, 1.0], "dir": [1.0, 0.0, 0.0],
                 "kind": "prismatic"},
    }


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def on_npy(edit):
    """A `test_rejects_malformed_file` edit that leaves the JSON as it is."""
    return lambda data, raw: (data, edit(raw))


def on_json(edit):
    """A `test_rejects_malformed_file` edit that leaves the `.npy` as it is."""
    return lambda data, raw: (edit(data), raw)


# Offset of the data in a `.npy` of `tiny_arrays()`, after its 128-byte header.
NPY_DATA = 128


class TestSceneIO:
    def test_json_roundtrip(self, tmp_path):
        cfg = GenConfig(rng_seed=15, points_per_scene=768)
        scene = render_scene(generate_object(47), cfg)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert same_bits(loaded.points, scene.points)
        assert (loaded.gt_semantic == scene.gt_semantic).all()
        assert (loaded.gt_instance == scene.gt_instance).all()
        assert same_bits(loaded.gt_npcs, scene.gt_npcs)
        assert len(loaded.instances) == len(scene.instances)
        for a, b in zip(loaded.instances, scene.instances):
            assert a.semantic_class == b.semantic_class
            assert a.pose.scale == b.pose.scale
            assert (a.pose.rotation == b.pose.rotation).all()
            assert (a.pose.translation == b.pose.translation).all()
            assert (a.size == b.size).all()
            assert (a.axis.origin == b.axis.origin).all()
            assert (a.axis.direction == b.axis.direction).all()
            assert a.axis.kind == b.axis.kind
        assert (loaded.camera_pose.rotation == scene.camera_pose.rotation).all()
        assert (loaded.camera_pose.translation == scene.camera_pose.translation).all()
        assert loaded.camera_pose.scale == scene.camera_pose.scale

    @pytest.mark.parametrize(
        "seed, config",
        [(s, C8_FAMILY) for s in (101, 102, 103)]
        + [(s, {}) for s in (201, 202, 203)]
        + [(301, {"partial_view": True, "objects_per_scene": 2})],
    )
    def test_file_bytes_match_streaming_writer(self, tmp_path, seed, config):
        # Same scene -> same bytes, and the bytes of a row-by-row writer.
        cfg = GenConfig(rng_seed=seed, **config)
        written = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            save_scene(render_scene(generate_object(seed, cfg), cfg), path)
            written.append((path.read_bytes(), path.with_suffix(".npy").read_bytes()))
        scene = render_scene(generate_object(seed, cfg), cfg)
        assert written[0] == written[1]
        assert written[0] == streamed_scene_bytes(scene, tmp_path / "ref.json")

    @pytest.mark.parametrize(
        "points, npcs",
        [
            ([[-0.0, 0.0, 5e-324]], [None]),  # -0.0, the smallest subnormal
            ([[2.2250738585072014e-308 / 3, -1e-310, 1.0]], [[-0.0, 5e-324, 1.0]]),
            ([[0.1, 0.2, 0.3], [1e6, -1e-300, 1 / 3]], [None, None]),  # all background
            ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [[0.7, 0.8, 0.9], [0.0, -0.0, 1.0]]),
            # The largest finite doubles, as NPCS: points beyond ±1e6 m do not load.
            ([[-1e6, 1e6, -5e-324]],
             [[1.7976931348623157e308, -1.7976931348623157e308, -5e-324]]),
            ([], []),
        ],
    )
    def test_arrays_round_trip_bit_exact(self, tmp_path, points, npcs):
        n = len(points)
        scene = Scene(
            points=rows_array(points),
            gt_semantic=np.zeros(n, dtype=np.int64),
            gt_instance=np.full(n, -1, dtype=np.int64),
            gt_npcs=rows_array(npcs),
            instances=(),
            camera_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert same_bits(loaded.points, scene.points)
        assert same_bits(loaded.gt_npcs, scene.gt_npcs)
        assert loaded.points.flags.writeable and loaded.gt_npcs.flags.writeable
        raw = path.with_suffix(".npy").read_bytes()
        assert raw[NPY_DATA:] == packed_rows(points) + packed_rows(npcs)

    @pytest.mark.parametrize("coordinate, accepted", [(1e6, True), (-1e6, True),
                                                      (1.000001e6, False), (-1e200, False)])
    def test_load_bounds_point_coordinates(self, tmp_path, coordinate, accepted):
        # The .npy keeps any finite double; loading a file for use does not.
        scene = Scene(
            points=np.array([[0.0, 0.0, 0.0], [0.1, coordinate, 0.2]]),
            gt_semantic=np.zeros(2, dtype=np.int64),
            gt_instance=np.full(2, -1, dtype=np.int64),
            gt_npcs=np.full((2, 3), math.nan),
            instances=(),
            camera_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert same_bits(np.load(path.with_suffix(".npy"))[0], scene.points)
        if accepted:
            assert same_bits(load_scene(path).points, scene.points)
        else:
            with pytest.raises(SceneFormatError, match="within ±1e\\+06 m"):
                load_scene(path)

    def test_partly_nan_npcs_row_written_as_background(self, tmp_path):
        scene = Scene(
            points=np.zeros((2, 3)),
            gt_semantic=np.zeros(2, dtype=np.int64),
            gt_instance=np.full(2, -1, dtype=np.int64),
            gt_npcs=np.array([[0.1, math.nan, 0.3], [0.4, 0.5, 0.6]]),
            instances=(),
            camera_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        raw = path.with_suffix(".npy").read_bytes()
        assert raw[NPY_DATA:] == packed_rows([[0.0] * 3] * 2 + [None, [0.4, 0.5, 0.6]])
        assert np.isnan(load_scene(path).gt_npcs[0]).all()

    def test_all_background_npcs(self, tmp_path):
        scene = load_tiny(tmp_path, npy=tiny_arrays(npcs=[None, None, None]))
        assert scene.gt_npcs.shape == (3, 3)
        assert np.isnan(scene.gt_npcs).all()

    def test_npcs_without_background(self, tmp_path):
        rows = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
        scene = load_tiny(tmp_path, npy=tiny_arrays(npcs=rows))
        assert scene.gt_npcs.tolist() == rows

    @pytest.mark.parametrize("label", [-1, 4, 7])
    def test_semantic_label_outside_classes_rejected(self, tmp_path, label):
        data = tiny_scene_dict()
        data["instances"] = [{**tiny_record_dict(), "class": c} for c in (3, 2)]
        data["gt_instance"] = [-1, 0, 1]
        data["gt_semantic"] = [0, 3, 2]
        assert load_tiny(tmp_path, data).gt_semantic.tolist() == [0, 3, 2]
        data["gt_semantic"] = [0, 1, label]
        with pytest.raises(SceneFormatError, match=rf"class {label} is outside \[0, 4\)"):
            load_tiny(tmp_path, data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, tmp_path, value):
        points = [[0.0, 0.0, 1.0], [0.1, value, 1.0], [0.0, 0.1, 1.0]]
        with pytest.raises(SceneFormatError, match="points must be finite") as info:
            load_tiny(tmp_path, npy=tiny_arrays(points=points))
        assert info.value.code == 19

    @pytest.mark.parametrize("records, label", [(1, -2), (1, 1), (1, 99), (0, 0)])
    def test_instance_id_outside_records_rejected(self, tmp_path, records, label):
        data = tiny_scene_dict()
        data["instances"] = data["instances"][:records]
        data["gt_instance"] = [-1, -1, -1]
        data["gt_semantic"] = [0, 0, 0]
        assert load_tiny(tmp_path, data).gt_instance.tolist() == [-1, -1, -1]
        data["gt_instance"] = [-1, 0, label]
        with pytest.raises(SceneFormatError,
                           match=rf"gt_instance {label} is outside \[-1, {records}\)") as info:
            load_tiny(tmp_path, data)
        assert info.value.code == 19

    @pytest.mark.parametrize(
        "semantic, message",
        [
            ([1, 1, 1], "point 0 has gt_semantic 1 but its gt_instance -1 is class 0"),
            ([0, 1, 0], "point 2 has gt_semantic 0 but its gt_instance 0 is class 1"),
            ([0, 1, 3], "point 2 has gt_semantic 3 but its gt_instance 0 is class 1"),
        ],
        ids=["background-labelled-drawer", "part-labelled-background", "part-other-class"],
    )
    def test_label_disagreeing_with_instance_rejected(self, tmp_path, semantic, message):
        # tiny_scene_dict's gt_instance is [-1, 0, 0] and record 0 is class 1.
        data = tiny_scene_dict()
        data["gt_semantic"] = semantic
        with pytest.raises(SceneFormatError, match=re.escape(message)) as info:
            load_tiny(tmp_path, data)
        assert info.value.code == 19

    def test_zero_point_scene(self, tmp_path):
        data = tiny_scene_dict()
        data.update(gt_semantic=[], gt_instance=[])
        scene = load_tiny(tmp_path, data, np.zeros((2, 0, 3)))
        assert scene.points.shape == (0, 3)
        assert scene.gt_npcs.shape == (0, 3)
        assert scene.gt_semantic.shape == (0,)
        assert scene.gt_instance.shape == (0,)
        save_scene(scene, tmp_path / "again.json")
        assert json.loads((tmp_path / "again.json").read_text()) == data
        assert (tmp_path / "again.npy").read_bytes() == npy_bytes(np.zeros((2, 0, 3)))

    def test_rejects_unknown_version(self, tmp_path):
        with pytest.raises(ValueError):
            load_tiny(tmp_path, {"version": 999})

    def test_rejects_version_1_with_regenerate_hint(self, tmp_path):
        # Versions 1 and 2 kept the arrays in the JSON; neither has a .npy.
        cfg = GenConfig(rng_seed=18, points_per_scene=512)
        scene = render_scene(generate_object(61, cfg), cfg)
        for version, layout in ((1, v1_scene_dict), (2, v2_scene_dict)):
            with pytest.raises(SceneFormatError) as info:
                load_scene(write_scene(tmp_path, layout(scene), None))
            assert info.value.code == 19
            assert f"version {version}" in str(info.value)
            assert "regenerate it with `yoeo generate`" in str(info.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("version", "2"),  # a string is not the schema version
            # Array cases replace the whole .npy, which must be (2, 3, 3)
            # for the 3 labels: points and NPCS, 3 rows of 3 each.
            ("points", tiny_arrays(points=[[0.1, 0.2, 0.3]] * 8, npcs=[None] * 8)),
            ("points", np.zeros((2, 3, 2))),  # rows of 2
            ("points", np.zeros(18)),  # the right count of numbers, no rows
            ("points", tiny_arrays(points=[[0.1, 0.2, 0.3]] * 4, npcs=[None] * 4)),
            ("points", np.zeros((2, 1, 3))),
            ("gt_semantic", [0, 1]),
            ("gt_semantic", [[0], [1], [1]]),
            ("gt_instance", [-1, 0, 0, 0]),
            ("gt_npcs", np.zeros((1, 3, 3))),  # points alone
            ("gt_npcs", np.zeros((2, 3, 2))),
            ("gt_npcs", np.zeros((3, 3, 3))),  # a third array after the NPCS
            ("gt_npcs", np.zeros((2, 3, 4))),
            ("gt_npcs", np.zeros((2, 9))),  # NPCS rows run into one
            ("gt_npcs", tiny_arrays(npcs=[None, [math.nan, 0.2, 0.3], [0.2, 0.3, 0.4]])),
        ],
    )
    def test_rejects_malformed_arrays(self, tmp_path, key, value):
        data = tiny_scene_dict()
        npy = value if key in ("points", "gt_npcs") else tiny_arrays()
        if key not in ("points", "gt_npcs"):
            data[key] = value
        with pytest.raises(SceneFormatError) as info:
            load_tiny(tmp_path, data, npy)
        assert info.value.code == 19

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(on_json(lambda d: [d]), id="top-level-list"),
            pytest.param(on_json(lambda d: "scene"), id="top-level-string"),
            *(
                pytest.param(on_json(lambda d, k=key: {n: v for n, v in d.items() if n != k}),
                             id=f"missing-{key}")
                for key in ("version", "gt_semantic", "gt_instance", "instances", "camera_pose")
            ),
            # The .npy, which holds the points, is not there.
            pytest.param(on_npy(lambda raw: None), id="missing-points"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays()[:1])),
                         id="missing-gt_npcs"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays()[0])),
                         id="points-as-rows"),
            pytest.param(on_npy(lambda raw: npy_bytes(np.float64(1.0))),
                         id="points-as-number"),
            # A pickled object array: np.save(allow_pickle=True) of [points, None].
            pytest.param(on_npy(lambda raw: npy_bytes(
                np.array([rows_array(TINY_POINTS), None], dtype=object), allow_pickle=True)),
                         id="npcs-null"),
            pytest.param(on_npy(lambda raw: raw[:5] + b"X" + raw[6:]), id="points-bad-char"),
            pytest.param(on_npy(lambda raw: raw[:NPY_DATA + 4] + b"!" + raw[NPY_DATA + 4:]),
                         id="points-inserted-char"),
            pytest.param(on_npy(lambda raw: raw[:-2]), id="points-truncated"),
            pytest.param(on_npy(lambda raw: raw + b"A=="), id="points-misplaced-padding"),
            pytest.param(on_npy(lambda raw: "é".encode() * 4), id="points-non-ascii"),
            pytest.param(on_npy(lambda raw: npy_bytes(np.zeros(8))), id="points-64-bytes"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays()[:, :2])),
                         id="npcs-2-rows"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays(
                npcs=[None, [0.1, 0.2, math.inf], [0.1, 0.2, 0.3]]))), id="npcs-inf"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays(
                npcs=[None, [math.nan, math.nan, 0.2], [0.1, 0.2, 0.3]]))), id="npcs-two-nans"),
            pytest.param(on_npy(lambda raw: b""), id="npy-empty"),
            pytest.param(on_npy(lambda raw: raw[:40]), id="npy-header-truncated"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays().astype(">f8"))),
                         id="npy-big-endian"),
            pytest.param(on_npy(lambda raw: npy_bytes(tiny_arrays().astype(np.float32))),
                         id="npy-float32"),
            pytest.param(on_npy(lambda raw: npy_bytes(np.zeros((2, 3, 3), dtype=np.int64))),
                         id="npy-int64"),
            pytest.param(on_npy(lambda raw: raw + b"\0"), id="npy-trailing-byte"),
            pytest.param(on_npy(lambda raw: npy_bytes(np.asfortranarray(tiny_arrays()))),
                         id="npy-fortran-order"),
            pytest.param(on_npy(lambda raw: npz_bytes(tiny_arrays())), id="npy-zip-archive"),
            pytest.param(on_json(lambda d: {**d, "instances": {}}), id="instances-object"),
            pytest.param(on_json(lambda d: {**d, "instances": [1]}), id="instance-number"),
            pytest.param(on_json(lambda d: {**d, "camera_pose": [1]}), id="camera-list"),
            pytest.param(on_json(lambda d: {**d, "camera_pose": {"R": [1.0] * 9}}),
                         id="camera-no-t"),
            pytest.param(on_json(lambda d: {**d, "camera_pose": {"R": [1.0] * 9,
                                                                   "t": [0.0] * 3}}),
                         id="camera-not-rotation"),
            pytest.param(on_json(lambda d: {**d, "camera_pose": {**d["camera_pose"],
                                                                   "t": [0.0] * 4}}),
                         id="camera-t-4"),
        ],
    )
    def test_rejects_malformed_file(self, tmp_path, edit):
        data, raw = edit(tiny_scene_dict(), npy_bytes(tiny_arrays()))
        with pytest.raises(SceneFormatError) as info:
            load_scene(write_scene(tmp_path, data, raw))
        assert info.value.code == 19

    @pytest.mark.parametrize(
        "path, value",
        [
            (("gt_semantic", 1), 1.7),
            (("gt_semantic", 1), 1.0),
            (("gt_semantic", 1), True),
            (("gt_instance", 0), -1.0),
            (("gt_instance", 1), False),
            (("instances", 0, "pose", "s"), True),
            (("instances", 0, "pose", "R", 0), True),
            (("instances", 0, "pose", "t", 2), True),
            (("instances", 0, "size", 1), True),
            (("instances", 0, "axis", "origin", 0), False),
            (("instances", 0, "axis", "dir", 0), True),
            (("camera_pose", "t", 1), False),
            # Python's json writes and reads these; JSON has no such numbers.
            (("camera_pose", "R", 0), float("nan")),
            (("camera_pose", "t", 2), float("inf")),
            (("instances", 0, "pose", "R", 4), float("-inf")),
            (("instances", 0, "size", 1), float("nan")),
        ],
    )
    def test_rejects_what_json_does_not_call_an_integer_or_number(
        self, tmp_path, path, value
    ):
        # Labels are JSON integers and vectors JSON numbers: a float label
        # or a bool is rejected, however it would cast.
        data = tiny_scene_dict()
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SceneFormatError, match="not a JSON (integer|number)") as info:
            load_tiny(tmp_path, data)
        assert info.value.code == 19

    @pytest.mark.parametrize(
        "path, value",
        [
            (("class",), "drawer"),
            (("pose",), [1.0]),
            (("pose", "s"), None),
            (("pose", "s"), -1.0),
            (("pose", "R"), [1.0] * 8),
            (("pose", "R"), np.eye(3).tolist()),
            (("pose", "R"), [2.0, 0, 0, 0, 1, 0, 0, 0, 1]),
            (("pose", "t"), [0.0] * 4),
            (("pose", "t"), ["a", "b", "c"]),
            (("size",), [0.1, 0.1]),
            (("size",), 0.1),
            (("axis",), "prismatic"),
            (("axis", "origin"), [0.0, 0.0]),
            (("axis", "dir"), [1.0, 0.0, 0.0, 0.0]),
            (("axis", "dir"), [0.0, 0.0, 0.0]),
            (("axis", "kind"), "screw"),
            (("axis", "kind"), None),
            # A part class is a JSON integer in [1, NUM_CLASSES), never a bool.
            (("class",), 0),
            (("class",), 4),
            (("class",), 1.5),
            (("class",), "2"),
            (("class",), True),
            (("pose", "s"), [0.2]),  # a scale is one number, not a list
            # Non-finite values, as a JSON number past 1.8e308 reads.
            (("pose", "R"), [float("nan")] * 9),
            (("pose", "R"), [float("inf"), 0, 0, 0, 1, 0, 0, 0, 1]),
            (("pose", "t"), [0.0, float("-inf"), 0.0]),
            (("pose", "t"), [float("nan"), 0.0, 0.0]),
            (("size",), [0.1, float("inf"), 0.1]),
            (("axis", "origin"), [float("nan"), 0.0, 0.0]),
            (("axis", "dir"), [0.0, 0.0, float("-inf")]),
        ],
    )
    def test_rejects_malformed_record(self, path, value):
        record = tiny_record_dict()
        assert record_from_dict(record).semantic_class == 1
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SceneFormatError) as info:
            record_from_dict(record)
        assert info.value.code == 19

    @pytest.mark.parametrize("key", ["class", "pose", "size", "axis"])
    def test_rejects_record_without_field(self, key):
        record = tiny_record_dict()
        del record[key]
        with pytest.raises(SceneFormatError):
            record_from_dict(record)

    def test_ply_export(self, tmp_path):
        cfg = GenConfig(rng_seed=16, points_per_scene=512)
        scene = render_scene(generate_object(53), cfg)
        path = tmp_path / "scene.ply"
        export_ply(scene, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        n = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
        assert n == len(scene.points)
        header_end = lines.index("end_header")
        assert len(lines) - header_end - 1 == n
        first = lines[header_end + 1].split()
        assert len(first) == 4

    @pytest.mark.parametrize("seed", [62, 63])
    def test_ply_bytes_match_per_row_writer(self, tmp_path, seed):
        cfg = GenConfig(rng_seed=seed, points_per_scene=1024)
        scene = render_scene(generate_object(seed, cfg), cfg)
        path = tmp_path / "scene.ply"
        export_ply(scene, path)
        ref = tmp_path / "ref.ply"
        with open(ref, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(scene.points)}\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("property int label\nend_header\n")
            for p, label in zip(scene.points, scene.gt_semantic):
                fh.write(f"{p[0]} {p[1]} {p[2]} {label}\n")
        assert path.read_bytes() == ref.read_bytes()
