"""Benchmark of the bearingsound pipeline through its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: after set-up and one discarded warm-up
pass, passes run back to back until ``--seconds`` have elapsed, and every
pass's outputs are checked (see workloads.py). The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the pass times, scores, versions and
thread settings.

With ``--trace 0`` the metrics are end to end:

* setup_s: median wall time of SETUP_REPEATS fresh child processes, each
  building the workload's inputs from the seed;
* wall_s: median time of one pass;
* frames_per_s: 2048-sample frames the workload handles per pass (see
  workloads.py) divided by wall_s;
* peak_rss_mb: peak resident memory of this process, which runs the passes
  but not the set-up.

The error rate is ``failed / attempted``. It is not a metric of its own
because it reads 0 whenever the program is correct.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones of layers.py (medians over the traced passes) plus
``trace.overhead_s``, the traced minus the untraced median pass time. Counts
must repeat exactly between traced passes, and every pass of a run must
produce byte-identical outputs; a pass that breaks either counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer

# One BLAS thread, set before numpy loads, so runs on a shared 2-core host
# compete less and every commit is measured with the same setting.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("campaign-cold", "seen-motor-warm", "score-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None,
                   help="internal: build the workload's inputs in this "
                        "directory and exit")
    return p.parse_args(argv)


# workloads.py and numpy are imported inside functions: they may load only
# after main() has set the BLAS thread count and put the sources on the path.


def versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0))}


def time_setups(args, work: Path) -> list[float]:
    """Wall time of each set-up child; the last one's outputs are kept."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-into", str(work)]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        # A blocking wait returns as the child exits; wait(timeout) would poll
        # every 50 ms and round the time. The timer only stops a hung child.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            returncode = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, command)
    return times


class Runner:
    """Runs passes of one workload and keeps what each one measured."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.first_counts = None
        self.frames = 0
        self.scores = {"accuracy_pct": 0.0, "damage_detection_pct": 0.0}

    def run_pass(self, tracer=None):
        """One reset/run/check cycle.

        Returns (seconds, layer metrics): seconds is None when the pass
        raised before its run finished, layer metrics None when untraced.
        A pass whose checks fail keeps its time but counts as failed.
        """
        from workloads import PassFailed

        self.attempted += 1
        seconds = observed = None
        try:
            self.workload.reset()
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.span("pass"):
                        self.workload.run()
                else:
                    self.workload.run()
                seconds = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                observed = layers.layer_metrics(tracer)
            outcome = self.workload.check()
            if self.first_digest is None:
                self.first_digest = outcome.digest
            elif outcome.digest != self.first_digest:
                raise PassFailed("outputs differ from an earlier pass with "
                                 "the same seed")
            if observed is not None:
                counts = {n: observed[n] for n in layers.COUNT_METRICS}
                if self.first_counts is None:
                    self.first_counts = counts
                elif counts != self.first_counts:
                    changed = sorted(n for n in counts
                                     if counts[n] != self.first_counts[n])
                    raise PassFailed("per-layer counts changed between traced "
                                     "passes: " + ", ".join(changed))
        except Exception:  # a failed pass is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return seconds, observed
        self.frames = outcome.frames
        self.scores = {"accuracy_pct": outcome.accuracy_pct,
                       "damage_detection_pct": outcome.damage_detection_pct}
        return seconds, observed


def measure(args, work: Path) -> tuple[dict, dict, Runner]:
    from workloads import WORKLOADS

    setup_times = time_setups(args, work)
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.prepare()
    runner = Runner(workload)
    warmup = runner.run_pass()
    plain, traced, tracer = [], [], None
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if args.trace:
            tracer = Tracer(layers.PACKAGE, layers.LAYERS, layers.ITEMS)
            traced.append(runner.run_pass(tracer))
        if time.perf_counter() - start >= args.seconds:
            break
    plain = [seconds for seconds, _ in plain if seconds is not None]
    traced = [(s, m) for s, m in traced if m is not None]
    if not plain or (args.trace and not traced):
        raise RuntimeError("no pass of this workload ran to the end")
    wall = statistics.median(plain)
    info = {"workload": args.workload, "seed": args.seed,
            "warmup_s": warmup[0],
            "pass_s": plain, "setup_s": setup_times,
            "frames_per_pass": runner.frames,
            "error_rate": runner.failed / runner.attempted,
            **runner.scores, **versions()}
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "frames_per_s": (runner.frames / wall, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return metrics, info, runner
    traced_s = [seconds for seconds, _ in traced]
    info["traced_pass_s"] = traced_s
    info["absent_functions"] = layers.absent_functions(tracer)
    info["absent_layers"] = tracer.absent_layers
    info["items_unavailable"] = sorted(
        name for name, c in tracer.counts.items() if c.get("items_unavailable"))
    units = {name: unit for name, unit, _ in layers.METRICS}
    observed = {name: statistics.median(m[name] for _, m in traced)
                for name in traced[0][1]}
    observed["metrics.accuracy_pct"] = runner.scores["accuracy_pct"]
    observed["metrics.damage_detection_pct"] = runner.scores["damage_detection_pct"]
    observed["trace.overhead_s"] = statistics.median(traced_s) - wall
    metrics = {name: (observed[name], units[name]) for name in units}
    return metrics, info, runner


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    if not (SRC / "bearingsound" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'bearingsound'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    if args.setup_into:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, Path(args.setup_into)).setup()
        return 0

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        metrics, info, runner = measure(args, work)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
