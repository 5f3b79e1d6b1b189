"""Command-line front end.

Exit codes: 0 computation done (YES and NO both count), 1 a verification
suite reported FAIL, 2 usage or parse error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import harness, reductions, solvers
from .control import (
    AddSet, AddVoterSet, CandidatePartition, DeleteSet, DeleteVoterSet,
    VoterPartition, ALL_TYPE_CODES, CONSTRUCTIVE, DESTRUCTIVE, SHAPES, SPECS, TE, TP,
    format_instance, parse_instance,
)
from .core import parse_election
from .errors import BudgetExceeded, ParseError, ReplayMismatch, VotectrlError
from .solvers import poly_decide
from .systems import RULES, atomic, parse_system, winners

DEFAULT_SEED = 2024


def _render_ids(ids) -> str:
    return "{" + ",".join(str(i) for i in sorted(ids)) + "}"


_ACTION_FORMATS = {
    AddSet: "add {added}",
    DeleteSet: "delete {deleted}",
    CandidatePartition: "partition {side1} | {side2}",
    VoterPartition: "voter-partition side1 {side1}",
    AddVoterSet: "add-voters {added}",
    DeleteVoterSet: "delete-voters {deleted}",
}


def render_action(action) -> str:
    return _ACTION_FORMATS[type(action)].format_map(
        {name: _render_ids(ids) for name, ids in vars(action).items()})


def _natural(text: str) -> int:
    """argparse type for a count that may not be negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {n}")
    return n


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def cmd_winners(args) -> int:
    election = parse_election(_read(args.election))
    ws = winners(parse_system(args.system), election)
    print("winners:" + "".join(f" {c}" for c in sorted(ws)))
    return 0


def cmd_decide(args) -> int:
    instance = parse_instance(_read(args.instance))
    if args.solver == "brute":
        decision = solvers.brute_force_decide(instance, budget=args.budget)
    else:
        decision = poly_decide(instance)
    if decision.answer:
        print(f"YES witness {render_action(decision.witness)}")
    else:
        print("NO")
    return 0


def _build_reduction(args):
    """Parse ``--input`` and build the ``--to`` target, or the source's first.
    A partition target, built under TE, may also be spelled ``<T>-TE``."""
    rows = [g for g in reductions.GADGETS.values() if g.source == args.source]
    spellings = {g.code: g for g in rows}
    spellings.update((g.code + "-TE", g) for g in rows if SPECS[g.code[2:]].has_tie)
    to = rows[0].code if args.to is None else args.to.upper()
    if to not in spellings:
        raise ParseError(f"{args.source} reduces to one of {', '.join(spellings)}")
    source = reductions.PARSERS[rows[0].kind](_read(args.input))
    if (args.k is None) == (args.source == "vc"):  # only vc takes --k, and vc needs it
        raise ParseError("vc reduction needs a cover bound k (--k)" if args.k is None
                         else "only vc takes a cover bound k (--k)")
    return source, spellings[to].build(source, args.k)


def cmd_reduce(args) -> int:
    _, instance = _build_reduction(args)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_instance(instance))
    except OSError as exc:
        raise VotectrlError(f"cannot write {args.output}: {exc}") from exc
    print(f"wrote {instance.type_code} instance to {args.output}")
    return 0


def cmd_verify(args) -> int:
    source, instance = _build_reduction(args)
    report = reductions.verify_reduction(source, instance)
    verdict = "PASS" if report.equivalent else "FAIL"
    src = "YES" if report.source_answer else "NO"
    tgt = "YES" if report.target_answer else "NO"
    print(f"{instance.type_code} source={src} target={tgt} {verdict}")
    return 0 if report.equivalent else 1


def cmd_anonymity(args) -> int:
    sid = parse_system(args.system)
    witness = harness.anonymity_falsify(sid, args.trials, seed=args.seed)
    if witness is None:
        print(f"no violation found in {args.trials} trials")
    else:
        print("violation witness:")
        print(f"  candidates {_render_ids(witness.election.candidates)}")
        for b in witness.election.ballots:
            print("  ballot " + " > ".join(map(str, b)))
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(witness.mapping.items()))
        print(f"  renaming {pairs}")
        print(f"  expected {_render_ids(witness.expected)}"
              f" actual {_render_ids(witness.actual)}")
    return 0


# suite agreement checks every polynomial decider on instances drawn with
# these systems for the hybrid tags, of at most (candidates, voters) by tag
_AGREEMENT_SYSTEMS = {"hybrid": "hybrid:e_first,e_last",
                      "hybrid_base": "hybrid_base:e_first,e_last;default=plurality"}
_AGREEMENT_SIZES = {"e1_prefix": (5, 4), "e1_tri": (4, 4), "e1_tri_even": (4, 2)}


def cmd_suite(args) -> int:
    if args.suite == "replay":
        try:
            results = harness.replay_recorded_scenarios()
        except ReplayMismatch as exc:
            print(f"replay mismatch: {exc}")
            print("FAIL 0/4")
            return 1
        for r in results:
            print(f"ok {r.name}: {r.detail}")
        print(f"PASS {len(results)}/{len(results)}")
        return 0

    rng = random.Random(args.seed)
    if args.suite == "inheritance":
        constituents = tuple(atomic(t) for t in ("plurality", "condorcet", "not_all_one"))
        bad = 0
        for _ in range(args.trials):
            shape = rng.choice(SHAPES)
            goal = rng.choice((CONSTRUCTIVE, DESTRUCTIVE))
            tie = rng.choice((TE, TP))
            index = rng.randrange(len(constituents))
            inst = harness.random_instance(rng, shape, goal, constituents[index], tie)
            if not harness.inheritance_check(constituents, index, inst).equal:
                bad += 1
                print(f"mismatch on {inst!r}")
        verdict = "PASS" if bad == 0 else "FAIL"
        print(f"{verdict} inheritance {args.trials - bad}/{args.trials}")
        return 0 if bad == 0 else 1

    bad = checked = 0
    for _ in range(args.trials):
        for (shape, goal, tag), decider in solvers.POLY_DECIDERS.items():
            max_candidates, max_voters = _AGREEMENT_SIZES.get(tag, (4, 3))
            inst = harness.random_instance(
                rng, shape, goal, parse_system(_AGREEMENT_SYSTEMS.get(tag, tag)),
                max_candidates=max_candidates, max_voters=max_voters)
            checked += 1
            if decider(inst).answer != solvers.brute_force_decide(inst).answer:
                bad += 1
                print(f"disagreement on {inst!r}")
    verdict = "PASS" if bad == 0 else "FAIL"
    print(f"{verdict} agreement {checked - bad}/{checked}")
    return 0 if bad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    systems_help = ("system ids: " + ", ".join(RULES)
                    + ", hybrid:<a>,<b>,..., hybrid_base:<a>,<b>;default=<c>")
    parser = argparse.ArgumentParser(
        prog="votectrl",
        description="Election systems, electoral control, and hardness gadgets.",
        epilog=systems_help
        + " | control types: " + " ".join(ALL_TYPE_CODES)
        + "; partition types take 'tie TE|TP'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for randomized suites (default {DEFAULT_SEED})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winners", help="evaluate a system on an election file")
    p.add_argument("--system", required=True)
    p.add_argument("--election", required=True)
    p.set_defaults(func=cmd_winners)

    p = sub.add_parser("decide", help="decide a control instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", choices=("brute", "poly"), default="brute")
    p.add_argument("--budget", type=_natural, default=solvers.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_decide)

    for name, func in (("reduce", cmd_reduce), ("verify", cmd_verify)):
        p = sub.add_parser(name, help=f"{name} a source instance")
        p.add_argument("--from", dest="source", required=True,
                       choices=tuple(dict.fromkeys(s for s, _ in reductions.GADGETS)))
        p.add_argument("--to", required=(name == "reduce"))
        p.add_argument("--input", required=True)
        p.add_argument("--k", type=int, default=None)
        if name == "reduce":
            p.add_argument("--output", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("anonymity", help="search for a candidate-renaming violation")
    p.add_argument("--system", required=True)
    p.add_argument("--trials", type=_natural, default=10000)
    p.set_defaults(func=cmd_anonymity)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("suite", choices=("replay", "inheritance", "agreement"))
    p.add_argument("--trials", type=_natural, default=50)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VotectrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
