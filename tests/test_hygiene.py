"""Source hygiene: no module under src/suturekit imports a name it never uses
or imports scipy (a test-only oracle), pose-bench and suture-run never load
numpy.ma, only geometry.py inverts a camera pose (PinholeCamera keeps the
one camera-from-world transform), only lm.py solves a linear system (the
one Levenberg-Marquardt loop), nothing imports pickle or lets np.load
unpickle, the CLI restates no default that a library keyword already has,
no module reads another suturekit module's underscore names, and every
function, class, method, property and class field is read by the program or
the benchmark, not only by tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from suturekit.cli import TABLES

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


def linear_solves(source: str) -> list[int]:
    """Lines that call `<expr>.linalg.solve(...)`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "solve"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "lm.py"), ids=lambda p: p.name
)
def test_only_lm_solves_linear_systems(path):
    assert linear_solves(path.read_text()) == []


# pose_estimator._descend and the loop of calibration.calibrate_direct
# before both ran lm.solve
OLD_DESCEND = """\
def _descend(vec, ev, max_steps):
    J = ev.evaluate(vec)
    lam = 1e-3
    steps = 0
    while steps < max_steps:
        r, A = ev.residuals(vec)
        if len(r) == 0:
            break
        steps += 1
        H, g = A.T @ A, A.T @ r
        for _ in range(10):
            try:
                step = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
            except np.linalg.LinAlgError:
                return vec, J, steps
            if np.abs(A @ step).max() < _MIN_STEP_PX:
                return vec, J, steps
            trial = vec + step
            J_trial = ev.evaluate(trial)
            if J_trial < J:
                break
            lam *= 4.0
        else:
            break
        lam /= 3.0
        vec, J = trial, J_trial
    return vec, J, steps
"""
OLD_CALIBRATE_DIRECT = """\
dq, lam = np.zeros(6), 1e-3
r, J = linearize(dq)
cost = r @ r
for _ in range(_LM_MAX_ITERATIONS):
    H, g = J.T @ J, J.T @ r
    kept = False
    for _ in range(10):
        step = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
        if np.abs(step).max() < 1e-12:
            break
        r_trial, J_trial = linearize(dq + step)
        kept = r_trial @ r_trial < cost
        if kept:
            break
        lam *= 4.0
    if not kept:
        break
    lam /= 3.0
    dq, r, J, prev = dq + step, r_trial, J_trial, cost
    cost = r @ r
    if prev - cost <= 1e-10 * prev:
        break
else:
    raise CalibrationError("offset solve did not converge")
"""


def test_scan_flags_a_linear_solve():
    assert linear_solves(OLD_DESCEND) == [13]
    assert linear_solves(OLD_CALIBRATE_DIRECT) == [8]
    source = "x = np.linalg.lstsq(A, b)\ny = solve(A, b)\nz = numpy.linalg.solve(A, b)\n"
    assert linear_solves(source) == [3]


def absolute_imports(source: str):
    """(line, module) for each module that `source` imports by absolute name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or any of its submodules."""
    return sorted({line for line, name in absolute_imports(source)
                   if name == "scipy" or name.startswith("scipy.")})


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


def pickle_uses(source: str) -> list[int]:
    """Lines that import pickle or pass `allow_pickle` anything but False:
    the model file is data only, and unpickling a file can run any code."""
    lines = {line for line, name in absolute_imports(source)
             if name in ("pickle", "_pickle") or name.startswith("pickle.")}
    lines.update(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(kw.arg == "allow_pickle"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                for kw in node.keywords)
    )
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_pickle(path):
    assert pickle_uses(path.read_text()) == []


def test_scan_flags_a_pickle_use():
    source = (
        "import pickle\n"
        "z = np.load(path)\n"
        "z = np.load(path, allow_pickle=True)\n"
        "z = np.load(path, allow_pickle=False)\n"
        "import os, _pickle as p\n"
        "from pickle import loads\n"
        "x = pickled(allow_pickle=flag)\n"
        "import pickletools\n"
    )
    assert pickle_uses(source) == [1, 3, 5, 6, 7]


def test_cli_import_loads_no_scipy():
    code = "import suturekit.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    path = [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_pose_and_suture_runs_load_no_numpy_ma(tmp_path):
    """numpy imports numpy.ma on first use (about 12 ms and 1 MB); np.unique
    without index or count outputs, np.isin on floats and np.intersect1d
    without assume_unique all reach it, so the pose and suture paths avoid
    them."""
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from suturekit.cli import main\n"
        "root = Path(sys.argv[1])\n"
        "for cmd, cfg in (('pose-bench', {'scenes': 1}), ('suture-run', {})):\n"
        "    path = root / (cmd + '.json')\n"
        "    path.write_text(json.dumps(cfg))\n"
        "    assert main([cmd, '--config', str(path), '--out-dir', str(root / cmd)]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """Reads of another suturekit module's underscore name (dunders exempt):
    `from .module import _name`, and `module._name` for a module imported
    as `from . import module`."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "suturekit"
                                                 or node.module.startswith("suturekit.")):
            for alias in node.names:
                if node.module in (None, "suturekit"):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, alias.name))
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_of_another_module_is_read(path):
    assert private_reads(path.read_text()) == []


# pose_estimator.py's imports and _seed's ray check while the check lived in
# needle.py's private names
OLD_SEED_CHECK = """from . import lm, needle
from .needle import BinaryMask, NeedleShape, needle_frames, params_to_pose, pose_to_params


def _seed(masks, hints, shape, rig):
    origin, rays = rig.left.center, rig.left.backproject_ray(kps)
    angle = float(needle._inter_ray_angle(*rays))
    if angle <= needle._MIN_RAY_ANGLE:
        raise NoSeed(f"the hint rays are {angle:.3g} rad apart, at most {needle._MIN_RAY_ANGLE}")
"""


def test_scan_flags_a_private_name_read():
    assert private_reads(OLD_SEED_CHECK) == [
        "needle._inter_ray_angle (line 7)", "needle._MIN_RAY_ANGLE (line 8)",
        "needle._MIN_RAY_ANGLE (line 9)",
    ]
    source = ("from .needle import _MIN_RAY_ANGLE, rasterize\n"
              "from suturekit import bench as b\n"
              "x = b._TICKS_PER_TARGET + self._cache + np._core + b.__doc__\n"
              "from collections import _private\n")
    assert private_reads(source) == ["_MIN_RAY_ANGLE (line 1)", "b._TICKS_PER_TARGET (line 3)"]


def restated_defaults(source: str, keys) -> list[str]:
    """`<expr>.get("key", default)` reads of a config key in `keys`."""
    return [
        f"{node.args[0].value} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and len(node.args) == 2
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value in keys
    ]


def library_keys(tables) -> set[str]:
    """Config keys, at any depth, whose table entry names a library keyword:
    the library holds their default."""
    keys = set()
    for table in tables:
        for key, (kind, keyword, _) in table.items():
            if keyword is not None:
                keys.add(key)
            if isinstance(kind, dict):
                keys |= library_keys([kind])
    return keys


def test_cli_restates_no_library_default():
    keys = library_keys(TABLES.values())
    assert restated_defaults((SRC / "cli.py").read_text(), keys) == []


# how cli.py read the pose-bench and shape keys before the config tables
OLD_CLI_READS = """\
def _shape(d: dict) -> NeedleShape:
    s = d.get("shape", {})
    return NeedleShape(s.get("radius_mm", 10.0) / 1000.0,
                       np.radians(s.get("arc_angle_deg", 180.0)))


def cmd_pose_bench(cfg: dict, out_dir: Path) -> int:
    pb = bench.PoseBenchConfig(
        scenes=int(cfg.get("scenes", 100)),
        depth_range=tuple(cfg.get("depth_range_m", SCENE_DEPTH_RANGE)),
    )
    q3 = float(cfg.get("q3_des_mm", 120.0)) / 1000.0
"""


def test_scan_flags_a_restated_library_default():
    assert restated_defaults(OLD_CLI_READS, library_keys(TABLES.values())) == [
        "shape (line 2)", "radius_mm (line 3)", "arc_angle_deg (line 4)",
        "scenes (line 9)", "depth_range_m (line 10)",
    ]


# Read only by tests, as independent oracles the program is checked against
TEST_ORACLES = ["geometry.RigidPose.matrix", "needle.reproject", "planning.SutureCircle.point"]
PERFBENCH = SRC.parents[1] / "perfbench"


def definitions(source: str, module: str) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function and class of
    `source` and of each method, property and annotated field (dataclass
    and NamedTuple fields) of those classes; dunder methods, which the
    language calls, are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            names = [item.name for item in node.body
                     if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
            names += [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            out += [(f"{module}.{node.name}.{name}", name) for name in names]
    return out


def names_read(source: str) -> set[str]:
    """Identifiers that `source` reads, as a bare name or as an attribute."""
    nodes = [n for n in ast.walk(ast.parse(source))
             if isinstance(getattr(n, "ctx", None), ast.Load)]
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Qualified names of the definitions in `modules` (name -> source) whose
    name no source in `readers` reads."""
    read = set().union(*map(names_read, readers))
    return sorted(qualified for module, source in modules.items()
                  for qualified, name in definitions(source, module) if name not in read)


def test_every_definition_is_read_by_the_program():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [*modules.values(), *(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))]
    assert unread_definitions(modules, readers) == TEST_ORACLES


# control.py's trace accessors before the trace became its five arrays
OLD_TRACE = """\
class ServoTrace:
    err: np.ndarray

    def __len__(self):
        return len(self.err)

    @property
    def final_error(self):
        return self.err[-1]

    def column(self, name):
        return getattr(self, name)


def steady_state_error(trace, window=10):
    return np.mean(np.abs(trace.column("err")[-window:]), axis=0)


def _unused(trace):
    trace.final_error = None  # a write, not a read
"""


# planning.py's waypoint while it recorded a circle angle that only tests read
OLD_WAYPOINT = """\
@dataclass(frozen=True)
class Waypoint:
    pose: RigidPose
    arc_param: float  # circle angle (rad) or path fraction for linear moves
    tool_pose: RigidPose | None = None
"""


def test_scan_flags_an_unread_definition():
    readers = [OLD_TRACE, "e = control.steady_state_error(control.ServoTrace(err))\n"]
    assert unread_definitions({"control": OLD_TRACE}, readers) == [
        "control.ServoTrace.final_error", "control._unused",
    ]
    readers = [OLD_WAYPOINT, "wp = Waypoint(pose, 0.0)\nik(wp.tool_pose or wp.pose)\n"]
    assert unread_definitions({"planning": OLD_WAYPOINT}, readers) == [
        "planning.Waypoint.arc_param",
    ]
