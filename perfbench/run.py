#!/usr/bin/env python3
"""The gisieve benchmark: three workloads, timed from outside the package.

    python3 perfbench/run.py --workload {transforms,kernel,sieve} \\
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source tree; the package is imported from its
``src/``.  Every workload run is a fresh interpreter (perfbench/workloads.py)
so the package's caches start cold, as for a command-line or script user.

``--trace 0`` repeats the workload in fresh interpreters until about
``--seconds`` have passed (at least once) and reports the medians of the
end-to-end metrics:

  wall_s       the timed section of one run
  cpu_s        user plus sys CPU of the run's process, up to the end of
               the timed section
  setup_s      interpreter start, ``import gisieve`` and input generation,
               from several start-ups
  peak_rss_mb  peak resident memory of the run's process

``--trace 1`` makes one untraced and one traced run and reports the
per-layer numbers of the traced one (see tracer.py) with the tracing
overhead against the untraced wall time.  Spans and per-layer numbers are
written to ``.perfbench/`` at the root.

Every run checks the program's outputs; a failed check counts in
``failed`` and turns ``correct`` false.  The sieve's output files must
be byte-identical in every run with one seed, so it runs at least twice.
Each sample, with the machine and software it ran on and the load
average before it, is printed as a ``sample`` line and appended to
``.perfbench/samples.jsonl``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("transforms", "kernel", "sieve")
DEFAULT_SEED = 1
MIN_SETUPS = 7
#: Workloads whose output bytes are compared between runs need two.
MIN_RUNS = {"sieve": 2}
CHILD_TIMEOUT_S = 170

from tracer import LAYER_METRICS  # noqa: E402  (perfbench/ is sys.path[0])

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    pass


def _source_digest() -> str:
    """sha256 over the package and script sources, in path order."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
    }


class Runner:
    """Starts workload interpreters one at a time and collects their results."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.env = dict(os.environ)
        # One sievelab worker.  With the default two, the workers hand the
        # GIL back and forth across both vCPUs, and on a shared host the
        # sieve's wall time followed the host's load: its median moved 24%
        # between two sets of ten seeds and spread 30% within one.
        self.env["SIEVE_LAB_THREADS"] = "1"
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.machine = machine()
        self.count = 0

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        a = self.args
        self.count += 1
        out = WORK / f"result-{os.getpid()}-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "workloads.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--mode", mode, "--out", str(out),
        ]
        if a.smoke:
            cmd.append("--smoke")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        load = os.getloadavg()
        with open(WORK / "workload-stdout.log", "a") as log:
            t_spawn = time.monotonic()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=log, timeout=CHILD_TIMEOUT_S
            )
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{a.workload} {mode} run exited with {proc.returncode}")
        result = json.loads(out.read_text())
        out.unlink()
        result["setup_s"] = result.pop("ready") - t_spawn
        result["loadavg_before"] = list(load)
        if mode != "setup":
            self._record(mode, result)
        return result

    def _record(self, mode: str, result: dict) -> None:
        sample = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "smoke": self.args.smoke,
            "mode": mode,
            **self.machine,
            **{k: v for k, v in result.items() if k not in ("layers", "messages")},
        }
        line = json.dumps(sample, sort_keys=True)
        print("sample", line)
        with open(WORK / "samples.jsonl", "a") as fh:
            fh.write(line + "\n")


def compare_outputs(runs: list[dict]) -> None:
    """The output bytes of every run with this seed must agree."""
    digests = [r["digest"] for r in runs if r.get("digest")]
    if len(digests) > 1:
        runs[0]["attempted"] += 1
        if len(set(digests)) > 1:
            runs[0]["failed"] += 1
            runs[0]["messages"].append("outputs differ between runs with one seed")


def measure(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    """Fresh-interpreter runs for about `seconds`; medians of the metrics."""
    runner.spawn("setup")  # warm-up: byte-compiles the sources, not recorded
    min_runs = MIN_RUNS.get(runner.args.workload, 1)
    runs, setups = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(runner.spawn("run"))
        setups.append(runs[-1]["setup_s"])
        if len(runs) >= min_runs and time.monotonic() - start + (time.monotonic() - t0) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup")["setup_s"])
    compare_outputs(runs)
    metrics = {
        name: statistics.median(r[name] for r in runs)
        for name, _ in END_TO_END
        if name != "setup_s"
    }
    metrics["setup_s"] = statistics.median(setups)
    return runs, metrics


def trace(runner: Runner) -> tuple[list[dict], dict]:
    """One untraced and one traced run; the traced one gives the layers."""
    runner.spawn("setup")
    tag = f"{runner.args.workload}-seed{runner.args.seed}"
    plain = runner.spawn("run")
    traced = runner.spawn("trace", spans=WORK / f"spans-{tag}.json")
    compare_outputs([plain, traced])
    layers = dict(traced["layers"])
    layers["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    (WORK / f"layers-{tag}.json").write_text(
        json.dumps(
            {
                "workload": runner.args.workload,
                "seed": runner.args.seed,
                **runner.machine,
                "numpy": traced["numpy"],
                "untraced_wall_s": plain["wall_s"],
                "traced_wall_s": traced["wall_s"],
                "layers": layers,
            },
            indent=1,
        )
        + "\n"
    )
    return [plain, traced], layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "gisieve" / "__init__.py", ROOT / "scripts" / "run_experiments.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a gisieve source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        if args.trace:
            runs, values = trace(runner)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            runs, values = measure(runner, args.seconds)
            units = dict(END_TO_END)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = {name: values[name] for name in units}  # report order, all present
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for message in r["messages"]:
            print(f"check failed: {message}")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
