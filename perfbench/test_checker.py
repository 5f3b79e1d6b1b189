"""The benchmark's checks can fail: a flipped answer and an unsound witness
are each counted as a failed operation, on every workload.

    python3 -m pytest perfbench/test_checker.py
"""

from dataclasses import replace

import pytest

import worker

worker.import_votectrl()

import oracles      # noqa: E402  (needs votectrl on the path)
import workloads    # noqa: E402
from votectrl import control                # noqa: E402
from votectrl.solvers import Decision       # noqa: E402


class Tampered:
    """An operation whose output has its brute-force Decision replaced."""

    def __init__(self, op, decision_of):
        self.op, self.decision_of = op, decision_of

    def run(self):
        out = self.op.run()
        # the Decision is the second item of every workload's output
        return (out[0], self.decision_of(out[0], out[1])) + tuple(out[2:])

    def check(self, out):
        return self.op.check(out)


def failed_count(op) -> int:
    loop = worker.Loop([op])
    loop.step(0)
    assert loop.attempted == 1
    return loop.failed


def first_op(workload: str, answer: bool):
    for op in workloads.WORKLOADS[workload](seed=7)[:400]:
        if op.run()[1].answer == answer:
            return op
    raise AssertionError(f"no {answer} operation in the first inputs")


def losing_action(inst):
    return next(a for a in oracles.canonical_actions(inst)
                if not control.goal_met(inst, a))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untouched_outputs_pass(workload):
    assert failed_count(first_op(workload, True)) == 0
    assert failed_count(first_op(workload, False)) == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_flipped_answers_fail(workload):
    yes, no = first_op(workload, True), first_op(workload, False)
    assert failed_count(Tampered(yes, lambda inst, d: Decision(False, None))) == 1
    assert failed_count(Tampered(
        no, lambda inst, d: Decision(True, next(oracles.canonical_actions(inst))))) == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_unsound_witnesses_fail(workload):
    yes = first_op(workload, True)
    assert failed_count(Tampered(
        yes, lambda inst, d: replace(d, witness=losing_action(inst)))) == 1


def test_a_changed_repeat_fails():
    op = first_op("random-mix", True)
    loop = worker.Loop([op])
    loop.step(0)
    loop.ops = [Tampered(op, lambda inst, d: Decision(False, None))]
    loop.step(1)
    assert (loop.attempted, loop.failed) == (2, 1)
