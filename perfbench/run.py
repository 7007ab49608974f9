"""Benchmark of the labelshift CLI on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_alpha --seed 0 --seconds 35 --trace 0

Each CLI run is a fresh process, started through the `labelshift` console
entry point (labelshift.cli:main) with the workload seed as --seed and
--threads 1, importing the package from the checkout's src/. Every BLAS and
OpenMP thread variable is set to 1, so each run uses one core and the second
core of a small machine absorbs other load. Runs repeat while the next one is
expected to end within --seconds, at least twice. The reference computation
of hostspeed.py runs in a fresh process before the first CLI run and after
every one; the CLI times are scaled by it to a reference host speed. Each
metric is the median over the runs. With --trace 1 one more run goes through
perfbench/traced.py and the per-layer metrics, raw times among them, replace
the end-to-end ones in the result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print each metric with
its unit, the quality figures and the machine. A failed run or check makes
the exit code 1.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Checks, check_federate, check_sweep, same_bytes
from hostspeed import REFERENCE_S

SETUP_RUNS = 11
MIN_RUNS = 2
DEADLINE_S = 170  # every child is killed by then, to exit within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)
ONE_THREAD = {k: "1" for k in THREAD_VARS}
CLI_ENTRY = "import sys; from labelshift.cli import main; sys.exit(main())"
SETUP_ENTRY = (
    "import json, sys; import labelshift.cli as cli; "
    "cli.resolve_config(json.load(open(sys.argv[1])), sys.argv[2], seed=int(sys.argv[3]), "
    "threads=1); print(cli.__file__)"
)


@dataclass(frozen=True)
class Workload:
    kind: str
    config: str
    trials: int | None = None  # pinned below the shipped config's, for more runs per window
    idx: bool = False
    claim: bool = False  # check vrls_em beats mlls_em at the smallest alpha


WORKLOADS = {
    "sweep_alpha": Workload("sweep_alpha", "configs/sweep_alpha.json", trials=40, claim=True),
    "federate": Workload("federate", "configs/federate.json"),
    "sweep_alpha_idx": Workload("sweep_alpha", "configs/sweep_alpha_idx.json", trials=5, idx=True),
}


class Runner:
    """Starts children in the work directory and waits for each to end."""

    def __init__(self, root: Path, work: Path):
        self.deadline = time.monotonic() + DEADLINE_S
        self.log = work / "children.log"
        self.env = dict(os.environ, TMPDIR=str(work))
        self.env.pop("LABELSHIFT_OUT", None)
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def run(self, args: list[str]):
        """Returns (wall seconds, resource usage, exit code) of one child."""
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(args)}\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, env=self.env, stdout=log, stderr=log)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode

    def tail(self, lines: int = 20) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


def machine(thread_env_found: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_found": thread_env_found,
        "thread_env_set": ONE_THREAD,
    }


def prepare_config(root: Path, work: Path, wl: Workload, seed: int) -> tuple[Path, dict]:
    """The shipped config with the workload's trials, and the IDX paths pointed
    at a corpus written from seed."""
    raw = json.loads((root / wl.config).read_text(encoding="utf-8"))
    if wl.trials is not None:
        raw["trials"] = wl.trials
    if wl.idx:
        from idx_corpus import write_corpus

        raw["data"].update(write_corpus(work / "idx", seed))
    path = work / "config.json"
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return path, raw


def measure(args, root: Path, work: Path, runner: Runner, checks: Checks):
    wl = WORKLOADS[args.workload]
    cfg_path, raw = prepare_config(root, work, wl, args.seed)

    def reference_seconds() -> float | None:
        _, _, code = runner.run([sys.executable, str(Path(__file__).with_name("hostspeed.py"))])
        return float(runner.tail(1)) if checks.check(code == 0, "reference run failed") else None

    setup = []
    for i in range(SETUP_RUNS + 1):  # the first run fills bytecode caches and is not timed
        wall, _, code = runner.run(
            [sys.executable, "-c", SETUP_ENTRY, str(cfg_path), wl.kind, str(args.seed)]
        )
        if not checks.check(code == 0, f"set-up run exited with {code}"):
            return None
        if i == 0:
            imported = runner.tail(1).strip()
            if not checks.check(
                Path(imported).resolve().is_relative_to(root / "src"),
                f"labelshift imported from {imported}, not from {root / 'src'}",
            ):
                return None
        else:
            setup.append(wall)

    out, ref = work / "out", work / "ref"
    cli = [sys.executable, "-c", CLI_ENTRY, wl.kind, "--config", str(cfg_path),
           "--seed", str(args.seed), "--threads", "1", "--out", str(out)]
    walls, cpus, rss, scales, steps, quality = [], [], [], [], [], {}
    start = time.perf_counter()
    refs = [reference_seconds()]
    while len(walls) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(steps) <= args.seconds
    ):
        step = time.perf_counter()
        wall, usage, code = runner.run(cli)
        if not checks.check(code == 0, f"CLI run {len(walls) + 1} exited with {code}"):
            return None
        refs.append(reference_seconds())
        if refs[-1] is None or refs[0] is None:
            return None
        steps.append(time.perf_counter() - step)
        walls.append(wall)
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
        scales.append(REFERENCE_S / ((refs[-2] + refs[-1]) / 2))
        print(f"run {len(walls)}: wall {wall:.3f} s, cpu {cpus[-1]:.3f} s, "
              f"reference {refs[-1]:.3f} s", file=sys.stderr)
        if len(walls) == 1:
            if wl.kind == "federate":
                quality = check_federate(out, raw, checks)
            else:
                quality = check_sweep(out, raw, checks, claim=wl.claim)
            out.rename(ref)
        else:
            diff = same_bytes(ref, out)
            checks.check(not diff, f"run {len(walls)} output differs from run 1: {diff}")
            shutil.rmtree(out)

    result = {
        "runs": len(walls),
        "cells": 0 if wl.kind == "federate"
        else len(raw["alpha_grid"]) * raw["trials"] * len(raw["estimators"]),
        "quality": quality,
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
            "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
            "peak_rss_mb": statistics.median(rss),
        },
        "raw": {
            "host.reference_s": statistics.median(refs),
            "host.wall_raw_s": statistics.median(walls),
            "host.cpu_raw_s": statistics.median(cpus),
        },
    }
    if args.trace:
        spans = work / "spans.json"
        traced = [sys.executable, str(Path(__file__).with_name("traced.py")), str(spans)] + cli[3:]
        wall, _, code = runner.run(traced)
        result["runs"] += 1
        if not checks.check(code == 0, f"traced run exited with {code}"):
            return None
        diff = same_bytes(ref, out)
        checks.check(not diff, f"traced output differs from untraced: {diff}")
        layers = json.loads(spans.read_text(encoding="utf-8"))
        layers["trace.overhead_s"] = wall - statistics.median(walls)
        result["layers"] = layers | result["raw"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    wl = WORKLOADS[args.workload]
    for need in (root / "BENCHMARK.json", root / "src" / "labelshift" / "cli.py", root / wl.config):
        if not need.is_file():
            print(f"error: {need} not found; run from the root of a labelshift checkout",
                  file=sys.stderr)
            return 2

    thread_env_found = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(ONE_THREAD)  # before numpy is first imported, here and in the children
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    checks = Checks()
    try:
        runner = Runner(root, work)
        result = measure(args, root, work, runner, checks)
        if result is None:
            print(f"error: {'; '.join(checks.failures)}\n{runner.tail()}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    quality = result["quality"]
    attempted = result["runs"] + result["cells"] + checks.attempted
    failed = quality["error_cells"] + len(checks.failures)
    if args.trace:
        metrics = dict(result["layers"])
        for name in ("mse_vrls_em", "mse_mlls_em", "accuracy_estimated"):
            metrics[f"quality.{name}"] = quality.get(name, 0.0)
        metrics["quality.failed_frac"] = failed / attempted
    else:
        metrics = result["metrics"]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in quality.items():
        print(f"quality {name} = {value}")
    if not args.trace:  # the traced report carries them as metrics
        for name, value in result["raw"].items():
            print(f"{name} = {value:.6g} s")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"machine {json.dumps(machine(thread_env_found), sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
