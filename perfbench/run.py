"""lobfluid benchmark: the command that runs one workload and prints its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each worker is a fresh interpreter
(worker.py) that imports lobfluid from the checkout's src/, generates its
inputs from the seed, and runs one batch of operations, one worker at a
time; a worker runs its batch inputs.PASSES times, timing a fixed
reference kernel between operations, and an operation counts with its
fastest pass. With --trace 0 the run measures the end-to-end
metrics: one worker runs the batch and SETUP_SAMPLES - 1 more only set up,
and setup_s is the median set-up time. With --trace 1 the batch runs in two
workers, untraced and then traced, and the run reports the per-layer
metrics and the tracing overhead.

The last line of stdout is the result as one JSON object; the line before
it is a fuller report, also written with the machine facts to
.perfbench/results/. Every CLI output goes to a temporary directory under
.perfbench/ that is removed when the run ends. README.md in this directory
explains the workloads, metrics and failure classes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PREFIX = "PERFBENCH "
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, all workers included
# the end-to-end metrics of the result line, as BENCHMARK.json lists them;
# wall_s and op_s.p50 stay in the report only: wall_s moves with the
# machine's speed, and on solver-range the median falls where neighbouring
# operation times differ twofold, so it jumps between runs
UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, scratch: Path, deadline: float,
          *, setup_only: bool = False, traced: bool = False,
          spans: Path | None = None) -> tuple[float, dict]:
    """Run one worker to completion; returns (setup_s, messages by kind).

    setup_s runs from just before the interpreter is spawned until its
    `ready` line arrives."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(traced)), "--scratch", str(scratch)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("run deadline reached before the worker started")
    messages: dict[str, dict] = {}
    setup_s = math.nan
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            msg = json.loads(line[len(PREFIX):])
            if msg["kind"] == "ready":
                setup_s = time.perf_counter() - t0
            messages[msg["kind"]] = msg
    except BaseException:  # interrupted or terminated: take the worker down too
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        rc = proc.wait()
    want = "ready" if setup_only else "result"
    if rc != 0 or want not in messages:
        raise WorkerFailed(f"worker exited with code {rc} without a {want} message")
    return setup_s, messages


def tail(times: list[float]) -> dict | None:
    """Highest whole percentile with at least ten operations beyond it
    (nearest-rank), or None below twenty operations."""
    n = len(times)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return {"percentile": pct, "value": sorted(times)[rank - 1],
            "beyond": n - rank, "n_ops": n}


def summarize(records: list[dict], known: frozenset) -> dict:
    """Run metrics from the worker's records; an operation's time is its
    fastest pass, in seconds or, for wall_ref, in units of the reference
    kernel's time around that execution."""
    times = [min(r["seconds"]) for r in records]
    rel = [min(t / ref for t, ref in zip(r["seconds"], r["ref"])) for r in records]
    failures = Counter(r["failure"] for r in records if r["failure"])
    summary = {
        "attempted": len(records),
        "failed": sum(failures.values()),
        "correct": set(failures) <= known,
        "wall_ref": sum(rel),
        "wall_s": sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times),
        "fail_frac": sum(failures.values()) / len(records),
        "failures": dict(sorted(failures.items())),
        "known_defects": sorted(known),
        "ref_s": statistics.median(ref for r in records for ref in r["ref"]),
    }
    events = [r["events"] for r in records if "events" in r]  # per execution
    if events:
        summary["events_per_s"] = sum(events) / summary["wall_s"]
    return summary


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": git_commit()}


def measure(args: argparse.Namespace, scratch: Path, deadline: float) -> tuple[dict, dict]:
    """Untraced run: returns (final result, full report)."""
    known = WORKLOADS[args.workload].known_defects
    setup_s, msgs = spawn(args, scratch, deadline)
    result = msgs["result"]
    setups = [setup_s] + [spawn(args, scratch, deadline, setup_only=True)[0]
                          for _ in range(SETUP_SAMPLES - 1)]
    summary = summarize(result["records"], known)
    summary.update(setup_s=statistics.median(setups), setup_samples=setups,
                   peak_rss_mb=result["peak_rss_mb"], ops=result["records"])
    metrics = {name: {"value": summary[name], "unit": unit}
               for name, unit in UNITS.items()}
    final = {"correct": summary["correct"], "attempted": summary["attempted"],
             "failed": summary["failed"], "metrics": metrics}
    return final, summary


def measure_traced(args: argparse.Namespace, scratch: Path, deadline: float,
                   spans: Path) -> tuple[dict, dict]:
    """Traced run: the batch untraced, then traced; returns (final, report)."""
    from tracing import LAYER_UNITS

    known = WORKLOADS[args.workload].known_defects
    _, plain = spawn(args, scratch, deadline)
    _, traced = spawn(args, scratch, deadline, traced=True, spans=spans)
    plain_sum = summarize(plain["result"]["records"], known)
    summary = summarize(traced["result"]["records"], known)
    layers = {"setup.import_s": traced["ready"]["import_s"],
              "setup.inputs_s": traced["ready"]["inputs_s"],
              **traced["result"]["layers"],
              "trace.overhead_s": summary["wall_s"] - plain_sum["wall_s"]}
    summary["layers"] = layers
    summary["untraced_wall_s"] = plain_sum["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    final = {"correct": summary["correct"] and plain_sum["correct"],
             "attempted": summary["attempted"], "failed": summary["failed"],
             "metrics": metrics}
    return final, summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like Ctrl-C, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.trace:
            final, report = measure_traced(args, scratch, deadline,
                                           results / f"{stem}.spans.jsonl")
        else:
            final, report = measure(args, scratch, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), **report}
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("report " + json.dumps({k: v for k, v in report.items() if k != "ops"}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
