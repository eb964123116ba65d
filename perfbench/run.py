"""The adic-kit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lifting --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The benchmark writes the seeded
script of the workload (see workloads.py) into a scratch directory inside
the checkout and runs the real CLI, `python -m adickit run SCRIPT` with the
checkout's `src` on PYTHONPATH and default options, as one child process at
a time.  This process never imports adickit.

After one untimed warm-up process, with `--trace 0` it alternates, until
`--seconds` are spent, three set-up processes (the script with its commands
removed: interpreter start, import, parse and declarations) and a full
process, and reports

* `run_s`: wall time of a full process, from spawn to exit: the slowest
  full process of the run;
* `setup_s`: wall time of a set-up process: the upper quartile of the run's
  set-up processes;
* `peak_rss_mb`: the full process's `ru_maxrss`, from `os.wait4` (median).

The 2-vCPU Xeon VM this was built on changes speed in spells of 10 to 30 s,
by up to 1.7x, and a spell can cover most of a run.  Its slow state is the
steadier one, so the times are taken from the slow end of the run.  In two
sets of ten seeds per workload, the run-to-run spread (IQR over median) of
the slowest full process was 0.05 to 0.22, where that of the upper quartile
reached 0.28 and that of the median 0.30.  Set-up processes are many and
short, so their slowest one is a lone outlier; their upper quartile is
used.  A change to the program scales every process, so it moves these
figures as it moves the median.

With `--trace 1` it alternates, until `--seconds` are spent (at least two
of each), an untraced full process and one run under tracer.py, and reports
per-layer calls, self and total seconds, the work counters, and the tracing
overhead (slowest traced over slowest untraced process, minus 1).

Every full process's reports are checked: a command fails when it errors,
when its outcome contradicts what its family guarantees, or when its report
differs from the first run's.  `attempted` and `failed` count commands over
all full processes (failed / attempted is the fail share); `correct` is
false when a command fails other than by giving the known wrong outcome
named in workloads.py, or when a set-up process does not produce an empty
report.

A fixed pure-Python calibration loop is timed before and after the run and
printed to stderr (and reported as `host.calibration_s` when tracing) as a
diagnostic of host speed; no metric is rescaled by it.

The last line of stdout is the JSON result.  The exit code is 0 when a
result is printed, and 2 when the checkout holds no adickit sources or a
child process cannot produce a report at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 3
MIN_TRACED = 2              # per-layer figures have no bound: keep runs short
SETUPS_PER_SAMPLE = 3       # set-up processes are short and noisy: take more
CHILD_TIMEOUT_S = 170.0     # a run must exit within 180 s


class BenchmarkError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, deadline: float) -> tuple:
    """Run one child to completion; (wall seconds, max RSS in MB, exit code,
    stdout bytes)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise BenchmarkError(f"{argv[1:]} did not finish in time")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out


def upper_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop in this process."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class Checker:
    """Gates every full process's reports against the workload's outcomes
    and against the first process's report bytes."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []      # failures not due to a known defect

    def setup(self, code: int, out: bytes) -> None:
        try:
            empty = json.loads(out) == []
        except ValueError:
            empty = False
        if code != 0 or not empty:
            self.unexpected.append(f"set-up process: exit {code}, "
                                   f"{out[:200]!r}")

    def full(self, out: bytes) -> None:
        commands = self.workload.commands
        try:
            reports = json.loads(out)
        except ValueError:
            reports = None
        if not isinstance(reports, list):
            raise BenchmarkError(f"no report from adic-kit: {out[:200]!r}")
        canon = [json.dumps(r, sort_keys=True) for r in reports]
        if self.first is None:
            self.first = canon
        self.attempted += len(commands)
        for i, cmd in enumerate(commands):
            if i >= len(reports):
                why = "no report"
            elif canon[i] != self.first[i]:
                why = "report differs from the first run"
            else:
                why = workloads.outcome_failure(cmd, reports[i])
            if why:
                self.failed += 1
                if not (i < len(reports) and canon[i] == self.first[i]
                        and workloads.is_known_defect(cmd, reports[i])):
                    self.unexpected.append(f"{cmd.text}: {why}")
        if len(reports) != len(commands):
            self.unexpected.append(
                f"{len(reports)} reports for {len(commands)} commands")


def measure(workload: workloads.Workload, seconds: float, trace: bool,
            workdir: Path, deadline: float) -> tuple:
    script = workdir / f"{workload.name}.adk"
    script.write_text(workload.script(), encoding="utf-8")
    setup = workdir / f"{workload.name}-setup.adk"
    setup.write_text(workload.setup_script(), encoding="utf-8")
    spans = workdir / "spans.json"
    full_argv = [sys.executable, "-m", "adickit", "run", str(script)]
    setup_argv = [sys.executable, "-m", "adickit", "run", str(setup)]
    traced_argv = [sys.executable, str(Path(__file__).parent / "tracer.py"),
                   str(spans), str(script)]

    # untimed: compiles the .pyc files of a fresh checkout and warms the
    # file cache, which users do not pay on every run
    spawn(setup_argv, deadline)
    checker = Checker(workload)
    setups, traced, fulls, rss, layers = [], [], [], [], []
    start = time.perf_counter()
    while True:
        if trace:
            wall, _, _, out = spawn(traced_argv, deadline)
            traced.append(wall)
            checker.full(out)
            layers.append(tracer.aggregate(
                json.loads(spans.read_text(encoding="utf-8"))))
        else:
            for _ in range(SETUPS_PER_SAMPLE):
                wall, _, code, out = spawn(setup_argv, deadline)
                setups.append(wall)
                checker.setup(code, out)
        wall, peak, _, out = spawn(full_argv, deadline)
        checker.full(out)
        fulls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if len(fulls) >= (MIN_TRACED if trace else MIN_SAMPLES) and \
                elapsed * (len(fulls) + 1) / len(fulls) > seconds:
            break

    if not trace:
        metrics = {"run_s": (max(fulls), "s"),
                   "setup_s": (upper_quartile(setups), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
    else:
        metrics = {}
        for key in layers[0]:
            unit = "s" if key.endswith("_s") else "count"
            middle = statistics.median if unit == "s" else statistics.median_low
            metrics[key] = (middle([m[key] for m in layers]), unit)
        calls = metrics["differentials.cotangent_calls"][0]
        metrics["groebner.syzygy_per_cotangent"] = (
            metrics["groebner.syzygy_calls"][0] / calls if calls else 0.0,
            "ratio")
        metrics["trace.overhead_share"] = (
            max(traced) / max(fulls) - 1.0,
            "share")
    print(f"perfbench: {len(fulls)} full processes, wall s: "
          + " ".join(f"{w:.3f}" for w in fulls), file=sys.stderr)
    return metrics, checker


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begun = time.perf_counter()
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "adickit" / "cli.py").is_file():
        print(f"perfbench: no adickit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed)
    calibration = [calibrate()]
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as tmp:
            metrics, checker = measure(workload, args.seconds,
                                       bool(args.trace), Path(tmp),
                                       begun + CHILD_TIMEOUT_S)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    calibration.append(calibrate())
    if args.trace:
        metrics["host.calibration_s"] = (statistics.median(calibration), "s")

    for line in checker.unexpected[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{checker.failed}/{checker.attempted} commands failed; "
          f"calibration loop {calibration[0]:.3f} s before, "
          f"{calibration[1]:.3f} s after", file=sys.stderr)
    result = {
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
