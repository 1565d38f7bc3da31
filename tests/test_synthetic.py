import base64
import dataclasses
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
    render_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
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
         ("body_extents_range", (float("nan"), 0.5))],
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


def pack_rows(rows):
    """base64 of the rows' numbers as little-endian float64, packed one
    number at a time with `struct`; a None row is three NaNs."""
    flat = []
    for row in rows:
        flat.extend([math.nan] * 3 if row is None else row if isinstance(row, list) else [row])
    return base64.b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")


def streamed_scene_bytes(scene, path):
    """Scene file built row by row (points and NPCS packed with `struct`)
    and streamed through the pure-Python encoder by `json.dump`."""
    def vec(a):
        return np.asarray(a, dtype=np.float64).reshape(-1).tolist()

    data = {
        "version": 2,
        "points": pack_rows(scene.points.tolist()),
        "gt_semantic": scene.gt_semantic.tolist(),
        "gt_instance": scene.gt_instance.tolist(),
        "gt_npcs": pack_rows(
            [None if np.isnan(row).any() else row.tolist() for row in scene.gt_npcs]
        ),
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
    return path.read_bytes()


def tiny_scene_dict():
    """A valid 3-point scene dict: one background point, two part points
    of instance 0."""
    return {
        "version": 2,
        "points": pack_rows([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0], [0.0, 0.1, 1.0]]),
        "gt_semantic": [0, 1, 1],
        "gt_instance": [-1, 0, 0],
        "gt_npcs": pack_rows([None, [0.5, 0.25, 0.0], [0.25, 0.5, 1.0]]),
        "instances": [tiny_record_dict()],
        "camera_pose": {"R": np.eye(3).reshape(-1).tolist(), "t": [0.0, 0.0, 0.0]},
    }


def v1_scene_dict(scene):
    """The version-1 layout: decimal point rows and null background rows."""
    data = scene_to_dict(scene)
    data["version"] = 1
    data["points"] = scene.points.tolist()
    data["gt_npcs"] = [
        None if np.isnan(row).any() else row.tolist() for row in scene.gt_npcs
    ]
    return data


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
        paths = []
        for name in ("a.json", "b.json"):
            paths.append(tmp_path / name)
            save_scene(render_scene(generate_object(seed, cfg), cfg), paths[-1])
        scene = render_scene(generate_object(seed, cfg), cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == streamed_scene_bytes(scene, tmp_path / "ref.json")

    @pytest.mark.parametrize(
        "points, npcs",
        [
            ([[-0.0, 0.0, 5e-324]], [None]),  # -0.0, the smallest subnormal
            ([[2.2250738585072014e-308 / 3, -1e-310, 1.0]], [[-0.0, 5e-324, 1.0]]),
            ([[0.1, 0.2, 0.3], [1e300, -1e-300, 1 / 3]], [None, None]),  # all background
            ([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [[0.7, 0.8, 0.9], [0.0, -0.0, 1.0]]),
            ([[1.7976931348623157e308, -1.7976931348623157e308, -5e-324]],
             [[0.5, 0.5, 0.5]]),  # the largest finite doubles
            ([], []),
        ],
    )
    def test_arrays_round_trip_bit_exact(self, points, npcs):
        n = len(points)
        scene = Scene(
            points=np.array(points, dtype=np.float64).reshape(n, 3),
            gt_semantic=np.zeros(n, dtype=np.int64),
            gt_instance=np.full(n, -1, dtype=np.int64),
            gt_npcs=np.array([[math.nan] * 3 if r is None else r for r in npcs],
                             dtype=np.float64).reshape(n, 3),
            instances=(),
            camera_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        data = json.loads(json.dumps(scene_to_dict(scene)))
        loaded = scene_from_dict(data)
        assert same_bits(loaded.points, scene.points)
        assert same_bits(loaded.gt_npcs, scene.gt_npcs)
        assert loaded.points.flags.writeable and loaded.gt_npcs.flags.writeable
        assert data["points"] == pack_rows(points)
        assert data["gt_npcs"] == pack_rows(npcs)

    @pytest.mark.parametrize("coordinate, accepted", [(1e6, True), (-1e6, True),
                                                      (1.000001e6, False), (-1e200, False)])
    def test_load_bounds_point_coordinates(self, tmp_path, coordinate, accepted):
        # The codec keeps any finite double; loading a file for use does not.
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
        assert same_bits(scene_from_dict(json.loads(path.read_text())).points, scene.points)
        if accepted:
            assert same_bits(load_scene(path).points, scene.points)
        else:
            with pytest.raises(SceneFormatError, match="within ±1e\\+06 m"):
                load_scene(path)

    def test_partly_nan_npcs_row_written_as_background(self):
        scene = Scene(
            points=np.zeros((2, 3)),
            gt_semantic=np.zeros(2, dtype=np.int64),
            gt_instance=np.full(2, -1, dtype=np.int64),
            gt_npcs=np.array([[0.1, math.nan, 0.3], [0.4, 0.5, 0.6]]),
            instances=(),
            camera_pose=Sim3Transform(1.0, np.eye(3), np.zeros(3)),
        )
        data = scene_to_dict(scene)
        assert data["gt_npcs"] == pack_rows([None, [0.4, 0.5, 0.6]])
        assert np.isnan(scene_from_dict(data).gt_npcs[0]).all()

    def test_all_background_npcs(self):
        data = tiny_scene_dict()
        data["gt_npcs"] = pack_rows([None, None, None])
        scene = scene_from_dict(data)
        assert scene.gt_npcs.shape == (3, 3)
        assert np.isnan(scene.gt_npcs).all()

    def test_npcs_without_background(self):
        rows = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
        data = tiny_scene_dict()
        data["gt_npcs"] = pack_rows(rows)
        scene = scene_from_dict(data)
        assert scene.gt_npcs.tolist() == rows

    @pytest.mark.parametrize("label", [-1, 4, 7])
    def test_semantic_label_outside_classes_rejected(self, label):
        data = tiny_scene_dict()
        data["instances"] = [{**tiny_record_dict(), "class": c} for c in (3, 2)]
        data["gt_instance"] = [-1, 0, 1]
        data["gt_semantic"] = [0, 3, 2]
        assert scene_from_dict(data).gt_semantic.tolist() == [0, 3, 2]
        data["gt_semantic"] = [0, 1, label]
        with pytest.raises(SceneFormatError, match=rf"class {label} is outside \[0, 4\)"):
            scene_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, value):
        data = tiny_scene_dict()
        data["points"] = pack_rows([[0.0, 0.0, 1.0], [0.1, value, 1.0], [0.0, 0.1, 1.0]])
        with pytest.raises(SceneFormatError, match="points must be finite") as info:
            scene_from_dict(data)
        assert info.value.code == 19

    @pytest.mark.parametrize("records, label", [(1, -2), (1, 1), (1, 99), (0, 0)])
    def test_instance_id_outside_records_rejected(self, records, label):
        data = tiny_scene_dict()
        data["instances"] = data["instances"][:records]
        data["gt_instance"] = [-1, -1, -1]
        data["gt_semantic"] = [0, 0, 0]
        assert scene_from_dict(data).gt_instance.tolist() == [-1, -1, -1]
        data["gt_instance"] = [-1, 0, label]
        with pytest.raises(SceneFormatError,
                           match=rf"gt_instance {label} is outside \[-1, {records}\)") as info:
            scene_from_dict(data)
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
    def test_label_disagreeing_with_instance_rejected(self, semantic, message):
        # tiny_scene_dict's gt_instance is [-1, 0, 0] and record 0 is class 1.
        data = tiny_scene_dict()
        data["gt_semantic"] = semantic
        with pytest.raises(SceneFormatError, match=re.escape(message)) as info:
            scene_from_dict(data)
        assert info.value.code == 19

    def test_zero_point_scene(self):
        data = tiny_scene_dict()
        data.update(points="", gt_semantic=[], gt_instance=[], gt_npcs="")
        scene = scene_from_dict(data)
        assert scene.points.shape == (0, 3)
        assert scene.gt_npcs.shape == (0, 3)
        assert scene.gt_semantic.shape == (0,)
        assert scene.gt_instance.shape == (0,)
        assert scene_to_dict(scene) == data

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            scene_from_dict({"version": 999})

    def test_rejects_version_1_with_regenerate_hint(self):
        cfg = GenConfig(rng_seed=18, points_per_scene=512)
        data = v1_scene_dict(render_scene(generate_object(61, cfg), cfg))
        with pytest.raises(SceneFormatError) as info:
            scene_from_dict(json.loads(json.dumps(data)))
        assert info.value.code == 19
        assert "version 1" in str(info.value)
        assert "regenerate it with `yoeo generate`" in str(info.value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("version", "2"),  # a string is not the schema version
            # Arrays are packed as flat float64 runs, so only the byte
            # count carries rows: 24 numbers decode as 8 rows.
            ("points", [[0.1, 0.2, 0.3, 0.4]] * 6),
            ("points", [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
            ("points", [[0.1, 0.2, 0.3], [0.4, 0.5], [0.6, 0.7, 0.8]]),
            ("points", [[0.1, 0.2, 0.3]] * 4),
            ("points", [0.1, 0.2, 0.3]),
            ("gt_semantic", [0, 1]),
            ("gt_semantic", [[0], [1], [1]]),
            ("gt_instance", [-1, 0, 0, 0]),
            ("gt_npcs", [None, [0.1, 0.2, 0.3]]),
            ("gt_npcs", [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
            ("gt_npcs", [None, [0.1, 0.2], [0.3, 0.4, 0.5]]),
            ("gt_npcs", [None, [0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]]),
            ("gt_npcs", [None, 0.1, [0.2, 0.3, 0.4]]),
            ("gt_npcs", [None, [math.nan, 0.2, 0.3], [0.2, 0.3, 0.4]]),
        ],
    )
    def test_rejects_malformed_arrays(self, key, value):
        data = tiny_scene_dict()
        data[key] = pack_rows(value) if key in ("points", "gt_npcs") else value
        with pytest.raises(SceneFormatError) as info:
            scene_from_dict(data)
        assert info.value.code == 19

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: [d], id="top-level-list"),
            pytest.param(lambda d: "scene", id="top-level-string"),
            *(
                pytest.param(lambda d, k=key: {n: v for n, v in d.items() if n != k},
                             id=f"missing-{key}")
                for key in ("version", "points", "gt_semantic", "gt_instance",
                            "gt_npcs", "instances", "camera_pose")
            ),
            pytest.param(lambda d: {**d, "points": [[0.0, 0.0, 1.0]] * 3},
                         id="points-as-rows"),
            pytest.param(lambda d: {**d, "points": 1.0}, id="points-as-number"),
            pytest.param(lambda d: {**d, "gt_npcs": None}, id="npcs-null"),
            pytest.param(lambda d: {**d, "points": d["points"][:-1] + "!"},
                         id="points-bad-char"),
            pytest.param(lambda d: {**d, "points": d["points"][:4] + "!" + d["points"][4:]},
                         id="points-inserted-char"),
            pytest.param(lambda d: {**d, "points": d["points"][:-2]},
                         id="points-truncated"),
            pytest.param(lambda d: {**d, "points": d["points"] + "A=="},
                         id="points-misplaced-padding"),
            pytest.param(lambda d: {**d, "points": "\u00e9" * 4}, id="points-non-ascii"),
            pytest.param(lambda d: {**d, "points": pack_rows([0.0] * 8)},
                         id="points-64-bytes"),
            pytest.param(lambda d: {**d, "gt_npcs": pack_rows([None, None])},
                         id="npcs-2-rows"),
            pytest.param(lambda d: {**d, "gt_npcs": pack_rows([None, [0.1, 0.2, math.inf],
                                                               [0.1, 0.2, 0.3]])},
                         id="npcs-inf"),
            pytest.param(lambda d: {**d, "gt_npcs": pack_rows([None, [math.nan, math.nan, 0.2],
                                                               [0.1, 0.2, 0.3]])},
                         id="npcs-two-nans"),
            pytest.param(lambda d: {**d, "instances": {}}, id="instances-object"),
            pytest.param(lambda d: {**d, "instances": [1]}, id="instance-number"),
            pytest.param(lambda d: {**d, "camera_pose": [1]}, id="camera-list"),
            pytest.param(lambda d: {**d, "camera_pose": {"R": [1.0] * 9}},
                         id="camera-no-t"),
            pytest.param(lambda d: {**d, "camera_pose": {"R": [1.0] * 9, "t": [0.0] * 3}},
                         id="camera-not-rotation"),
            pytest.param(lambda d: {**d, "camera_pose": {**d["camera_pose"], "t": [0.0] * 4}},
                         id="camera-t-4"),
        ],
    )
    def test_rejects_malformed_file(self, edit):
        with pytest.raises(SceneFormatError) as info:
            scene_from_dict(edit(tiny_scene_dict()))
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
