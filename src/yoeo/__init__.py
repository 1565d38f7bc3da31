"""Single-stage articulated-part pose estimation on point clouds.

Point-wise heads predict semantic labels, centroid offsets, and
canonical-space coordinates; votes are clustered into part instances and
each instance's 6D pose and size are recovered by robust SIM(3)
alignment. A procedural scene generator supplies ground truth end to end.
"""

__version__ = "0.1.0"
