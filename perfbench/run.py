"""votectrl benchmark: decide one workload's control instances, print metrics.

    python3 perfbench/run.py --workload x3c-voter --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; ``votectrl`` is imported from its ``src``.
The workload runs in one child process (``worker.py``) on one thread; this
launcher times that process's set-up from its start, stops it if it
overruns, writes the result under ``perfbench/results/`` and prints the
result as the last line: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run, plus a trace file of its first spans.
Exit status 0 means a result was printed; anything else means none was.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="x3c-voter, vc-candidate or random-mix")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"{stem}-spans.json")]
    launched = time.monotonic()
    with subprocess.Popen(cmd + ["--launched", repr(launched)],
                          stdout=subprocess.PIPE, text=True) as worker:
        try:
            out, _ = worker.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            print(f"error: the run overran {TIMEOUT_S} s", file=sys.stderr)
            return 1
    lines = out.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: the run failed (exit {worker.returncode})", file=sys.stderr)
        return worker.returncode or 1
    result = json.loads(lines[-1])
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
