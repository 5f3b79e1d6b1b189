"""One measured run of one workload, in this process and on one thread.

Started by ``run.py``, which passes the monotonic time at which it started
this process, so that ``setup_s`` covers interpreter start, importing
``votectrl`` and building the workload's inputs.  The run is a closed loop:
each operation starts when the one before it has been checked.  Only
``Op.run`` is timed.

A run makes whole passes over the workload's input sequence, until the
passes add up to ``--seconds`` and at least ``MIN_PASSES`` are done.  Each
operation's time is the 90th percentile (nearest rank) of its times across
the passes: the slowest of up to nine passes, the second slowest of ten to
nineteen.  The host this was tuned on speeds a process up by a quarter or
more for tens of seconds at a time; a high percentile keeps the speed the
machine falls back to between such episodes, where a mean over the run
moves with each of them.  The end-to-end timings are taken over these
per-operation times, so each input sequence holds at least ``MIN_OPS``
operations, leaving ten or more beyond the 99th percentile.  The traced run
(``--trace 1``) runs each operation traced and untraced instead, for the
per-layer metrics and the tracing overhead.

An operation is checked in the first pass; in later passes it must give an
output equal to its first.  The last line printed is the run's result as
JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 1000
MIN_PASSES = 4
RECORD_OPS = 20   # operations whose spans go whole into the trace file


def import_votectrl():
    """Import the checkout's ``votectrl``, never an installed copy."""
    if not (SRC / "votectrl" / "__init__.py").is_file():
        sys.exit(f"error: no votectrl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import votectrl
    if Path(votectrl.__file__).resolve().parent != SRC / "votectrl":
        sys.exit(f"error: imported votectrl from {votectrl.__file__}")


class Loop:
    """Runs operations from a cyclic input sequence and checks each."""

    def __init__(self, ops: list):
        self.ops = ops
        self.first: dict[int, int] = {}   # op index -> hash of its first output
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []

    def step(self, i: int, tracer=None) -> float:
        """Run and check operation ``i`` (mod the sequence); return its time."""
        j = i % len(self.ops)
        op = self.ops[j]
        self.attempted += 1
        if tracer is not None:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = op.run()
            t1 = time.perf_counter()
        except Exception:  # a run must finish; the failure is counted
            t1 = time.perf_counter()
            self._fail(j, traceback.format_exc())
            return t1 - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest = hash(out)
        if j not in self.first:
            try:
                problem = op.check(out)
            except Exception:  # output so malformed that the check broke
                problem = traceback.format_exc()
            if problem:
                self.wrong += 1
                self._fail(j, problem)
                return t1 - t0
            self.first[j] = digest
        elif self.first[j] != digest:
            self.wrong += 1
            self._fail(j, "output differs from the first run of this input")
        return t1 - t0

    def _fail(self, j: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"input {j}: {why}")

    def run_pass(self) -> array:
        """Run the whole input sequence once; return each operation's time."""
        return array("d", (self.step(j) for j in range(len(self.ops))))

    def run_traced(self, tracer, seconds: float) -> tuple[int, float, float]:
        """Run each operation twice, traced and untraced, in alternating
        order, until all the runs add up to ``seconds``.  Both sides see the
        same machine, so their ratio is the tracing overhead even while the
        machine's speed drifts.  Returns (operations, traced s, untraced s)."""
        traced = untraced = 0.0
        i = 0
        while traced + untraced < seconds:
            if i % 2:
                untraced += self.step(i)
                traced += self.step(i, tracer)
            else:
                traced += self.step(i, tracer)
                untraced += self.step(i)
            i += 1
        return i, traced, untraced


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when this process was started")
    parser.add_argument("--spans", default=None, help="trace file to write")
    args = parser.parse_args(argv)

    import_votectrl()
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    loop = Loop(ops)
    tracer = tracing.Tracer(RECORD_OPS) if args.trace else None

    setup_s = time.monotonic() - args.launched
    if tracer is None:
        if len(ops) < MIN_OPS:
            sys.exit(f"error: {len(ops)} inputs leave too few beyond the 99th percentile")
        passes = [loop.run_pass()]
        # later passes repeat the same work, so the program's peak is reached
        # by now, and the times stored for them do not count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while sum(map(sum, passes)) < args.seconds or len(passes) < MIN_PASSES:
            passes.append(loop.run_pass())
        ordered = sorted(percentile(sorted(p[j] for p in passes), 90)
                         for j in range(len(ops)))
        metrics = {
            "setup_s": (setup_s, "s"),
            "decisions_per_s": (len(ordered) / sum(ordered), "1/s"),
            "decision_ms_p50": (percentile(ordered, 50) * 1e3, "ms"),
            "decision_ms_p99": (percentile(ordered, 99) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        n, traced, untraced = loop.run_traced(tracer, args.seconds)
        metrics = tracer.metrics(n)
        metrics["trace.overhead"] = (traced / untraced - 1, "ratio")
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(
                {"fields": ["id", "parent", "op", "name", "start", "end"],
                 "spans": tracer.spans}) + "\n")

    for problem in loop.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
