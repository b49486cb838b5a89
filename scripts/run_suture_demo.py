#!/usr/bin/env python3
"""End-to-end suture pass on a synthetic scene, with and without offset
compensation, printing the circle-tracking deviation of each run.

Example:
    python3 scripts/run_suture_demo.py --bias-deg 3.0
"""
import argparse
import json
import sys
from pathlib import Path

from suturekit.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/suture")
    ap.add_argument("--bias-deg", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for label, compensate in (("compensated", True), ("uncompensated", False)):
        cfg = {
            "seed": args.seed,
            "injected_bias_deg": args.bias_deg,
            "compensate": compensate,
        }
        run_dir = Path(args.out_dir) / label
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        print(f"--- {label} (bias {args.bias_deg} deg) ---")
        code = cli_main(["suture-run", "--config", str(cfg_path), "--out-dir", str(run_dir)])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
