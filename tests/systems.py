"""Shared chart-system fixtures for the test modules.

Each helper builds a fresh system; the cones in it are the shared canonical
objects that Cone.from_rays returns, so tests must not mutate them.
"""

from prevtrop.cone import Cone
from prevtrop.sysfan import SystemOfFans


def ray_cone(v, n):
    return Cone.from_rays([v], n)


def zero_cone(n):
    return Cone.from_rays([], n)


def affine_line():
    """One chart, the nonnegative ray: the affine line."""
    return SystemOfFans(1, ["1"], {("1", "1"): [ray_cone((1,), 1)]})


def affine_plane():
    """One chart, the first quadrant."""
    return SystemOfFans(2, ["1"], {("1", "1"): [Cone.from_rays([(1, 0), (0, 1)], 2)]})


def line_two_origins():
    """Two affine-line charts glued only along the torus: doubled origin."""
    r = ray_cone((1,), 1)
    return SystemOfFans(1, ["1", "2"], {
        ("1", "1"): [r],
        ("2", "2"): [r],
        ("1", "2"): [zero_cone(1)],
    })


def projective_line_two_charts():
    """Two affine-line charts glued the separated way."""
    return SystemOfFans(1, ["1", "2"], {
        ("1", "1"): [ray_cone((1,), 1)],
        ("2", "2"): [ray_cone((-1,), 1)],
        ("1", "2"): [zero_cone(1)],
    })


def projective_line_fan():
    """The complete fan on the line as a one-chart system."""
    return SystemOfFans(1, ["0"], {
        ("0", "0"): [ray_cone((1,), 1), ray_cone((-1,), 1)]})


def quadrant_fan_system():
    """The four full quadrants as a one-chart system (a product of two
    complete line fans)."""
    quads = [Cone.from_rays([(sx, 0), (0, sy)], 2)
             for sx in (1, -1) for sy in (1, -1)]
    return SystemOfFans(2, ["0"], {("0", "0"): quads})


def point_system():
    """The rank-zero one-chart system."""
    return SystemOfFans(0, ["0"], {("0", "0"): [zero_cone(0)]})
