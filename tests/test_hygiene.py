"""Source hygiene: no module under src/suturekit imports a name it never uses,
and only geometry.py inverts a camera pose (PinholeCamera keeps the one
camera-from-world transform)."""

import ast
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
