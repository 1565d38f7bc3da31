"""Scene families the tests share, as `GenConfig` keyword arguments.

C8_FAMILY is the family of acceptance check C8: one object with two
drawers, a lid and a handle, rendered at 4096 points. `perfbench/` keeps
its own copy, which `test_perfbench.py` holds equal to this one."""

C8_FAMILY = dict(
    points_per_scene=4096,
    drawer_count=(2, 2), lid_count=(1, 1), handle_count=(1, 1),
    body_extents_range=(0.45, 0.6),
)
