"""Source hygiene: no module under src/suturekit imports a name it never uses
or imports scipy (a test-only oracle), and only geometry.py inverts a camera
pose (PinholeCamera keeps the one camera-from-world transform)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "suturekit"


def unused_imports(source: str) -> list[str]:
    """Names bound by imports anywhere in `source` that no expression reads;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import csv\nimport json\nfrom os import path as p, sep\njson.dumps(p)\n"
    assert unused_imports(source) == ["csv (line 1)", "sep (line 3)"]


def camera_pose_inversions(source: str) -> list[int]:
    """Lines that call `<expr>.pose_world_from_camera.inverse()`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "pose_world_from_camera"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "geometry.py"), ids=lambda p: p.name
)
def test_only_geometry_inverts_camera_poses(path):
    assert camera_pose_inversions(path.read_text()) == []


def test_scan_flags_a_camera_pose_inversion():
    source = (
        "inv = cam.pose_world_from_camera.inverse()\n"
        "grasp_inv = grasp.inverse()\n"
        "R = rig.left.pose_world_from_camera.rotation.T\n"
        "x = f(rig.left.pose_world_from_camera.inverse().apply(p))\n"
    )
    assert camera_pose_inversions(source) == [1, 4]


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or any of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


# bench.py's import block while it still sampled orientations with scipy
OLD_BENCH_IMPORTS = """\
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .calibration import (
    DEFAULT_QMSR_REGION,
    FeatureModel,
    calibrate_direct,
    detect_features,
)
from .control import NotConverged, PiGains, PlantModel, servo_to
from .geometry import PinholeCamera, RigidPose, StereoRig, rotation_geodesic
from .needle import BinaryMask, NeedleShape, pose_to_params, rasterize
from .planning import (
    SuturePorts,
    needle_tip_body,
    plan_suture_pass,
    suture_circle,
)
from .pose_estimator import (
    SCENE_DEPTH_RANGE,
    EstimatorConfig,
    KeypointHints,
    NoConvergence,
    estimate,
)
from .psm_kinematics import KinematicModel, fk, ik
"""


def test_scan_flags_a_scipy_import():
    assert scipy_imports(OLD_BENCH_IMPORTS) == [6]
    source = "import scipyish\nimport os, scipy.linalg as la\nfrom .scipy import x\nimport scipy\n"
    assert scipy_imports(source) == [2, 4]


def test_cli_import_loads_no_scipy():
    code = "import suturekit.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    path = [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
