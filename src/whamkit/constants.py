"""Coordinate conventions, pinned once for the whole package.

World frame: right-handed, y axis up, gravity along -y, ground plane y = 0.
Subjects move in the x-z plane; "heading" is a rotation about +y.

Camera frame: computer-vision convention, x right, y down, z forward along
the optical axis. Extrinsics map world points to camera points as
x_cam = R @ x_world + T. A camera with zero roll/pitch/yaw uses CAMERA_BASE
below: level, looking horizontally along world -z.
"""

import numpy as np

# Level camera: x_cam = world x, y_cam = -world y (down), z_cam = -world z.
CAMERA_BASE = np.array([
    [1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
])
