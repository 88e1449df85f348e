"""One benchmark worker: a fresh interpreter that sets up and runs a batch.

Started by run.py, one at a time. Set-up is importing the workload's
lobfluid modules from the checkout's src/ and generating the inputs; the
worker then prints a `ready` message, and unless --setup-only runs the
batch inputs.PASSES times, timing each call and checking its output
afterwards, and timing a fixed reference kernel between operations.
Messages go to stdout as lines starting with PREFIX; anything else the
program prints there is swallowed by the CLI wrapper or ignored by run.py.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

PREFIX = "PERFBENCH "
ROOT = Path(__file__).resolve().parent.parent
REF_EVERY_S = 0.25  # operation time per reference-kernel sample (~20 ms each)


def emit(kind: str, **payload) -> None:
    sys.__stdout__.write(PREFIX + json.dumps({"kind": kind, **payload}) + "\n")
    sys.__stdout__.flush()


def setup(workload: str, seed: int, seconds: float):
    """Import the program and generate the inputs; returns (ops, timings)."""
    from workloads import WORKLOADS

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    for name in WORKLOADS[workload].modules:
        importlib.import_module(name)
    lobfluid = sys.modules["lobfluid"]
    if not Path(lobfluid.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lobfluid imported from {lobfluid.__file__}, not {src}")
    t_import = time.perf_counter()
    from inputs import make_inputs

    ops = make_inputs(workload, seed, seconds)
    t_inputs = time.perf_counter()
    return ops, {"import_s": t_import - T_START, "inputs_s": t_inputs - t_import}


def reference_s() -> float:
    """Time one run of a fixed kernel of pure-Python arithmetic and small
    numpy operations, the instruction mix lobfluid's hot loops have. The
    machine's speed drifts by tens of percent over minutes; the kernel
    drifts with it, so operation times divided by it do not."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.zeros(8)
    for _ in range(1500):
        a = np.minimum(a + 1.0, 3.0) * 0.5
    return time.perf_counter() - start


def _references(work_s: float) -> list[float]:
    """One kernel sample per REF_EVERY_S of operation time, at least one."""
    return [reference_s() for _ in range(max(1, int(work_s / REF_EVERY_S)))]


def run_ops(workload: str, ops: list[dict], scratch: Path, tracer) -> list[dict]:
    """Run the batch PASSES times. Each record holds an operation's times
    over the passes, the reference-kernel time around each of them, and the
    first failure class any pass showed.

    Kernel samples come in blocks between operations, one sample per
    REF_EVERY_S of operation time since the previous block; an execution's
    reference is the median of the blocks just before and just after it.
    """
    from inputs import PASSES
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    records = [{"seconds": [], "ref": [], "failure": None} for _ in ops]
    before = _references(8 * REF_EVERY_S)
    waiting: list[dict] = []  # executions since the last block
    work = 0.0

    def close_block() -> None:
        nonlocal before, work
        after = _references(work)
        ref = statistics.median(before + after)
        for rec in waiting:
            rec["ref"].append(ref)
        waiting.clear()
        before, work = after, 0.0

    for p in range(PASSES):
        for i, (op, rec) in enumerate(zip(ops, records)):
            if work >= REF_EVERY_S:
                close_block()
            # CLI workloads create this directory themselves; the others never do
            out_dir = scratch / f"op{i}"
            if tracer:
                tracer.begin(p * len(ops) + i)
            start = time.perf_counter()
            try:
                raw, error = wl.call(op, str(out_dir)), None
            except Exception as exc:  # one failed operation must not end the run
                raw, error = None, exc
            seconds = time.perf_counter() - start
            if tracer:
                tracer.end()
            rec["seconds"].append(seconds)
            waiting.append(rec)
            work += seconds
            if error is None:
                try:
                    failure, extra = wl.check(op, raw, str(out_dir))
                except Exception as exc:  # output missing or unreadable
                    error, kind = exc, "check"
            else:
                kind = "error"
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                failure, extra = f"{kind}.{type(error).__name__}", {}
            shutil.rmtree(out_dir, ignore_errors=True)
            rec["failure"] = rec["failure"] or failure
            rec.update(extra)
    close_block()
    return records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True,
                    help="directory for the operations' CLI outputs")
    ap.add_argument("--spans", type=Path, help="where the traced run's spans go")
    args = ap.parse_args(argv)

    ops, timings = setup(args.workload, args.seed, args.seconds)
    emit("ready", **timings)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = run_ops(args.workload, ops, args.scratch, tracer)
    layers = None
    if tracer:
        tracer.write(args.spans)
        layers = tracer.layer_metrics()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("result", records=records, peak_rss_mb=peak_kib / 1024.0, layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
