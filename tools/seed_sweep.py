"""Run the four named experiments over campaign/experiment seed pairs.

    python3 tools/seed_sweep.py [--src DIR] C:E ...

For each pair C:E the script synthesizes the default campaign with seed C
at the CLI's default duration, then runs seen-motor, seen-gearbox,
unseen-A2b2 and unseen-A1b1 on it with seed E, at their default split sizes
and training settings. Standard output gets one tab-separated row per run:
campaign seed, experiment seed, experiment, accuracy, TPR and TNR (percent,
as report.json rounds them), the SHA-256 of report.json and the OpenBLAS
kernel (tools/blas_core.py), since report bytes and metrics move with the
kernel. Standard error gets the min and median accuracy and TNR per
experiment once every pair has run.

--src selects the package source (default: this checkout's src), so two
checkouts can be swept by one script and their rows compared with diff. Each
campaign lives in a temporary directory (under TMPDIR, if set) and is deleted
after its four runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from blas_core import core_name

EXPERIMENTS = ("seen-motor", "seen-gearbox", "unseen-A2b2", "unseen-A1b1")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def seed_pair(text: str) -> tuple[int, int]:
    try:
        campaign, experiment = text.split(":")
        return int(campaign), int(experiment)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected C:E seeds, got {text!r}") from None


def cli(src: Path, *args) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "bearingsound.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bearingsound {' '.join(map(str, args))} exited "
                 f"{proc.returncode}:\n{proc.stderr}")


def sweep_pair(src: Path, campaign_seed: int, experiment_seed: int) -> list[tuple]:
    rows, core = [], core_name()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "campaign"
        cli(src, "--seed", campaign_seed, "synth", "--default-campaign", "--out", data)
        for name in EXPERIMENTS:
            out = Path(tmp) / name
            cli(src, "--seed", experiment_seed, "experiment", name, "--data", data,
                "--out", out)
            blob = (out / "report.json").read_bytes()
            report = json.loads(blob)
            rows.append((campaign_seed, experiment_seed, name, report["accuracy"],
                         report["tpr"], report["tnr"], hashlib.sha256(blob).hexdigest(),
                         core))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pairs", nargs="+", type=seed_pair, metavar="C:E")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="package source directory (default: this checkout's src)")
    args = parser.parse_args()
    rows = []
    for campaign_seed, experiment_seed in args.pairs:
        for row in sweep_pair(args.src.resolve(), campaign_seed, experiment_seed):
            print("\t".join(f"{v:.2f}" if isinstance(v, float) else str(v) for v in row),
                  flush=True)
            rows.append(row)
    for name in EXPERIMENTS:
        accuracy = [r[3] for r in rows if r[2] == name]
        tnr = [r[5] for r in rows if r[2] == name]
        print(f"{name}: accuracy min {min(accuracy):.2f} median "
              f"{statistics.median(accuracy):.2f}; TNR min {min(tnr):.2f} "
              f"median {statistics.median(tnr):.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
