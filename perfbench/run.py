"""suturekit benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload pose --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports suturekit from
`src/`.  Workloads: pose, calib, suture (see `workloads.py`).  Inputs
derive from --seed only; --seconds sizes the work.

With --trace 0 the last stdout line carries the end-to-end metrics:
set-up time, wall time of the timed section (the sum of its operations)
and peak RSS.  With --trace 1 the same work
runs with span wrappers installed (see `tracer.py`) and the last line
carries the per-layer metrics.  The lines before it give every accuracy
number, the acceptance checks, the artifact digest and the environment.

Set-up time is measured in fresh interpreters: each runs the imports and
the workload's set-up (configs, cameras, kinematic model).  They run
before, between and after the timed operations, and the median of
SETUP_REPEATS is reported.

Each run stores its result, environment included, under `.perfbench_out/`.
The sha256 digest of every CLI artifact is also kept there per source
tree, workload and seed; a later run whose digest differs fails its
correctness check, so nondeterminism in the outputs shows.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller says otherwise: on a shared 2-core VM a
# second BLAS thread saved about 15 % of pose time but made repeated runs
# spread several times wider.  Set before numpy is imported; the set-up
# probes inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Accuracy numbers that the traced run also reports, under the layer that
# produces them; 0 on workloads that do not exercise the layer.
ACCURACY_LAYERS = {
    "clean.pos_err_mm_mean": ("pose_estimator.clean.pos_err_mm_mean", "mm"),
    "clean.ang_err_deg_mean": ("pose_estimator.clean.ang_err_deg_mean", "deg"),
    "clean.ang_err_deg_max": ("pose_estimator.clean.ang_err_deg_max", "deg"),
    "occluded.within_1mm_frac": ("pose_estimator.occluded.within_1mm_frac", "ratio"),
    "occluded.ang_err_deg_max": ("pose_estimator.occluded.ang_err_deg_max", "deg"),
    "mlp_mae_rev_deg_max": ("calibration.mlp_mae_rev_deg_max", "deg"),
    "mlp_mae_prism_mm": ("calibration.mlp_mae_prism_mm", "mm"),
    "direct_ok_frac": ("calibration.direct_ok_frac", "ratio"),
    "max_circle_dev_mm": ("bench.max_circle_dev_mm", "mm"),
}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, seconds: int, workdir: Path):
    """Everything before the first timed operation."""
    import suturekit.cli  # noqa: F401  (imports the whole stack)
    from workloads import WORKLOADS

    return WORKLOADS[workload].prepare(seed, seconds, workdir)


def measure_setup(args, probe_dir: Path) -> float:
    """Wall time of one fresh interpreter running `setup`."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up failed:\n{proc.stderr}", 1)
    shutil.rmtree(probe_dir, ignore_errors=True)
    return seconds


def run_ops(args, thunks, workdir: Path):
    """Time each operation; the set-up probes run before the first, in the
    middle and after the last, so both sample the whole run."""
    from workloads import timed

    probe_at = [round(j * len(thunks) / (SETUP_REPEATS - 1)) for j in range(SETUP_REPEATS)]
    ops, setup_times = [], []
    for i in range(len(thunks) + 1):
        while probe_at and probe_at[0] == i:
            probe_at.pop(0)
            setup_times.append(measure_setup(args, workdir / f"setup{len(setup_times)}"))
        if i < len(thunks):
            ops.append(timed(*thunks[i]))
    return ops, setup_times


# --- environment and provenance ---------------------------------------------

def _blas_threads():
    """OpenBLAS's runtime thread count, read from numpy's own copy."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(so, fn):
                get = getattr(so, fn)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    """sha256 over the program sources and the benchmark itself."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def artifact_digest(run_dir: Path) -> tuple[str, int]:
    """sha256 over every CLI artifact (the configs excluded)."""
    h = hashlib.sha256()
    files = [f for f in sorted(run_dir.rglob("*")) if f.is_file() and f.name != "cfg.json"]
    for f in files:
        h.update(str(f.relative_to(run_dir)).encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest(), len(files)


def same_as_before(key: str, digest: str) -> tuple[bool, str | None]:
    """Record the digest for key; compare with an earlier run's."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    before = known.setdefault(key, digest)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return before == digest, before


# --- main -----------------------------------------------------------------

def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "suturekit" / "cli.py").is_file():
        fail(f"no suturekit sources under {SRC}; run from a source checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed, args.seconds, Path(args.setup_probe))
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run_dir = workdir / "run"
        plan = setup(args.workload, args.seed, args.seconds, run_dir)
        thunks = workload.ops(plan)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            ops, setup_times = run_ops(args, thunks, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall_s = sum(op["s"] for op in ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        acc, checks = workload.check(plan, ops)
        digest, n_files = artifact_digest(run_dir)
        src_sha = source_digest()
        key = f"{src_sha[:16]}/{args.workload}/seed{args.seed}"
        deterministic, before = same_as_before(key, digest)
        checks["artifacts identical to earlier runs at this seed"] = deterministic
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if not op["ok"]]
    setup_s = statistics.median(setup_times)
    info = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (len(failed) / len(ops), "ratio"),
        **acc,
    }
    if args.trace:
        from tracer import layer_metrics

        metrics = layer_metrics(tracer)
        metrics["trace.wall_s"] = (wall_s, "s")
        for key, (name, unit) in ACCURACY_LAYERS.items():
            metrics[name] = (acc.get(key, (0.0, unit))[0], unit)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    declared = declared_metrics(args.trace)
    emitted = {k: u for k, (_, u) in metrics.items()}
    if emitted.keys() != declared.keys():
        missing = sorted(declared.keys() - emitted.keys())
        extra = sorted(emitted.keys() - declared.keys())
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 1)
    for name, unit in declared.items():
        if emitted[name] != unit:
            fail(f"metric {name}: unit {emitted[name]!r}, BENCHMARK.json says {unit!r}", 1)

    env = environment(args.seed)
    for name, (value, unit) in info.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for op in failed:
        print(f"failed {op['op']}: {op['error']}")
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"artifacts {n_files} files sha256={digest}"
          + ("" if deterministic else f" (earlier run: {before})"))
    print("env " + json.dumps(env, sort_keys=True))

    correct = all(checks.values())
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "info": {k: v for k, (v, _) in info.items()},
              "setup_times_s": setup_times, "checks": checks, "ops": ops,
              "artifact_sha256": digest, **result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(results / f"{args.workload}-seed{args.seed}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
