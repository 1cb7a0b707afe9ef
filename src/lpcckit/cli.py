"""Command-line surface: build sets, run measurements and solvers, replay
protocols and theorems, classify sets, draw block diagrams.

Exit codes: 0 confirmed, 1 refuted, 2 unknown or bound-exhausted,
64 usage error, 70 failed internal self-check. Reports go to stdout as
text, or as one JSON document with --json.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .activation import (ActivationError, _SourceUndecided, classify,
                         is_m_activable, verify_activation)
from .diagram import render_ascii, render_svg
from .kets import parse_pvm
from .measurements import LocalPVM, measure
from .opsolve import enumerate_op_pvms, rank1_op_directions
from .protocols import (ProtocolError, execute_and_verify, lpcc_search,
                        tree_from_script)
from .statesets import (NAMED_SETS, Partition, StateSet, build_named_set,
                        check_mutual_orthogonality, is_locally_redundant)
from .theorems import lemma1_replay, theorem_replay

OK, REFUTED, UNKNOWN, USAGE, SOFTWARE = 0, 1, 2, 64, 70


def _load_set(args) -> StateSet:
    if getattr(args, "name", None):
        return build_named_set(args.name, m=getattr(args, "m", None))
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return StateSet.from_json(json.load(fh))
    raise ValueError("give --name or --file")


def _parse_partition(text: str, s: StateSet) -> Partition:
    """'A|BC' or '1|23'-style block string against the set's party labels."""
    p = Partition(tuple(_parse_group(chunk, s) for chunk in text.split("|")))
    p.validate(s.spec)
    return p


def _parse_group(text: str, s: StateSet) -> tuple[int, ...]:
    return tuple(s.spec.party_index(ch) if not ch.isdigit() else int(ch)
                 for ch in text.replace(",", ""))


class Report:
    def __init__(self, command: list[str]):
        self.data = {"command": command, "tool": "lpcckit",
                     "version": __version__, "verdicts": []}
        self.lines: list[str] = []
        self.started = time.perf_counter()   # monotonic, unlike the wall clock

    def say(self, text: str, **payload):
        self.lines.append(text)
        if payload:
            self.data["verdicts"].append({"text": text, **payload})
        else:
            self.data["verdicts"].append({"text": text})

    def emit(self, as_json: bool, code: int) -> int:
        self.data["elapsed_s"] = round(time.perf_counter() - self.started, 3)
        self.data["exit_code"] = code
        if as_json:
            print(json.dumps(self.data, indent=2))
        else:
            for line in self.lines:
                print(line)
        return code


def cmd_sets(args, report: Report) -> int:
    if args.action == "list":
        for name in NAMED_SETS:
            report.say(name)
        return OK
    s = _load_set(args)
    if args.action == "check":
        verdict = check_mutual_orthogonality(s)
        red = is_locally_redundant(s) if s.spec.n_parties >= 2 else None
        report.say(f"{s.provenance}: {len(s)} states in "
                   f"{'x'.join(map(str, s.spec.dims))}")
        report.say(f"mutual orthogonality: {'ok' if verdict else 'FAILED'}",
                   orthogonal=bool(verdict),
                   witness=None if verdict else
                   [verdict.witness[0], verdict.witness[1]])
        if red is not None:
            report.say(f"local redundancy: "
                       f"{'redundant ' + str(red.discarded_parties) if red else 'irredundant'}",
                       redundant=bool(red))
        return OK if verdict else REFUTED
    # export, the one action left
    report.lines = [json.dumps(s.to_json(), indent=2)]
    report.data["verdicts"] = [s.to_json()]
    return OK


def cmd_measure(args, report: Report) -> int:
    s = _load_set(args)
    group = _parse_group(args.group, s)
    dims = [s.spec.dims[p] for p in group]
    lp = LocalPVM(parse_pvm(args.pvm, dims), group)
    ov, branches = measure(s, lp)
    report.say(f"orthogonality preserving: {'yes' if ov else 'no'}",
               preserving=bool(ov))
    for outcome, br in sorted(branches.items()):
        if br.states is None:
            report.say(f"outcome {outcome}: all states annihilated",
                       outcome=outcome, states=[])
            continue
        report.say(f"outcome {outcome}: {len(br.states)} states "
                   f"({', '.join(br.states.labels())})"
                   + (f"; annihilated {list(br.annihilated)}" if br.annihilated else ""),
                   outcome=outcome, states=[l for l, _ in br.states.states],
                   annihilated=list(br.annihilated),
                   branch=br.states.to_json())
    return OK if ov else REFUTED


def cmd_solve(args, report: Report) -> int:
    s = _load_set(args)
    group = _parse_group(args.group, s)
    if args.action == "rank1":
        rep = rank1_op_directions(s, group)
        data = rep.to_json()
        report.data["verdicts"].append(data)
        if rep.is_none_found:
            report.say(f"group {args.group}: no preserving rank-1 direction "
                       f"({rep.none_found['method']})")
            return OK
        for sol in rep.solutions:
            report.say(f"direction: {sol.vector}")
        for fam in rep.families:
            report.say(f"family: {fam.kind}"
                       + (" (annihilating)" if fam.annihilating else ""))
        if rep.unresolved:
            report.say(f"unresolved patterns: {data['unresolved']}")
            return UNKNOWN
        return OK
    pvms = enumerate_op_pvms(s, group, max_outcomes=args.max_outcomes)
    report.say(f"{len(pvms)} nontrivial orthogonality-preserving PVMs")
    for lp in pvms:
        report.say("  ranks " + str([e.rank() for e in lp.pvm.elements]))
    return OK


def cmd_protocol(args, report: Report) -> int:
    if args.fixture:
        from .theorems import fixture_protocol
        s, tree = fixture_protocol(args.fixture)
    elif args.script:
        s = _load_set(args)
        with open(args.script) as fh:
            tree = tree_from_script(json.load(fh)["tree"], s.spec)
    else:
        raise ValueError("give --fixture or --script")
    try:
        verdict = execute_and_verify(s, tree)
    except ProtocolError as exc:
        report.say(f"protocol verification FAILED: {exc}")
        return REFUTED
    report.say(f"protocol verified: {verdict.status}")
    for line in verdict.trace:
        report.say("  " + line)
    report.data["verdicts"].append(verdict.to_json())
    return OK


def cmd_search(args, report: Report) -> int:
    s = _load_set(args)
    p = (_parse_partition(args.partition, s) if args.partition
         else Partition.trivial(s.spec.n_parties))
    verdict = lpcc_search(s, p, depth=args.depth)
    report.say(f"lpcc search: {verdict.status}")
    report.data["verdicts"].append(verdict.to_json())
    return {"distinguishable": OK, "indistinguishable": OK}.get(
        verdict.status, UNKNOWN)


def cmd_activate(args, report: Report) -> int:
    s = _load_set(args)
    group = _parse_group(args.group, s)
    dims = [s.spec.dims[p] for p in group]
    lp = LocalPVM(parse_pvm(args.pvm, dims), group)
    p = (_parse_partition(args.partition, s) if args.partition
         else Partition.trivial(s.spec.n_parties))
    try:
        rep = verify_activation(s, lp, p, search_depth=args.depth)
    except ActivationError as exc:
        report.say(f"activation not verified: {exc}", asserted=False,
                   reason=str(exc))
        return UNKNOWN if isinstance(exc, _SourceUndecided) else REFUTED
    report.data["verdicts"].append(rep.to_json())
    report.say(f"activation asserted: {rep.asserted}")
    for line in rep.trace:
        report.say("  " + line)
    return OK if rep.asserted else REFUTED


def cmd_classify(args, report: Report) -> int:
    s = _load_set(args)
    pairs = [_parse_group(args.joint, s)] if args.joint else None
    out = classify(s, joint_pairs=pairs, depth=args.depth)
    report.data["verdicts"].append(out.to_json())
    report.say(f"class: {out.klass}" + (" [exact]" if out.exact else ""))
    for line in out.trace:
        report.say("  " + line)
    if args.activable_m is not None:
        verdict = is_m_activable(s, args.activable_m, strong=args.strong,
                                 depth=args.depth)
        report.data["verdicts"].append(verdict.to_json())
        report.say(f"{args.activable_m}-activable: {verdict.status}"
                   + (" [exact]" if verdict.exact else ""))
        if verdict.status == "unknown":
            return UNKNOWN
    if out.klass == "unknown":
        return UNKNOWN
    return OK


def cmd_theorem(args, report: Report) -> int:
    result = theorem_replay(args.number)
    report.data["verdicts"].append(result.to_json())
    for label, ok in result.checks:
        report.say(f"{'ok  ' if ok else 'FAIL'} {label}")
    for line in result.details:
        report.say("     " + line)
    report.say(f"{result.name}: {'confirmed' if result.passed else 'REFUTED'}")
    return OK if result.passed else REFUTED


def cmd_lemma(args, report: Report) -> int:
    if args.number != 1:
        report.say("only lemma 1 is implemented")
        return USAGE
    result = lemma1_replay(samples=args.samples, seed=args.seed)
    report.data["verdicts"].append(result.to_json())
    for label, ok in result.checks:
        report.say(f"{'ok  ' if ok else 'FAIL'} {label}")
    report.say(f"{result.name}: {'confirmed' if result.passed else 'REFUTED'}")
    return OK if result.passed else REFUTED


def cmd_diagram(args, report: Report) -> int:
    s = _load_set(args)
    p = _parse_partition(args.partition, s) if args.partition else None
    if args.format == "svg":
        report.lines = [render_svg(s, p)]
        report.data["verdicts"] = [{"svg": True}]
    else:
        report.lines = [render_ascii(s, p)]
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call; its
    verbs are module functions, which look up their callees when called."""
    ap = argparse.ArgumentParser(
        prog="lpcckit",
        description="Exact verification of local distinguishability and "
                    "hidden-nonlocality activation for orthogonal state sets.")
    ap.add_argument("--json", action="store_true", help="machine-readable report")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_set_args(p):
        p.add_argument("--name", choices=NAMED_SETS)
        p.add_argument("--m", type=int, default=None,
                       help="family parameter for S1m/S2m")
        p.add_argument("--file", help="StateSet JSON file")

    p = sub.add_parser("sets", help="build and check named or user sets")
    p.add_argument("action", choices=["list", "check", "export"])
    add_set_args(p)
    p.set_defaults(fn=cmd_sets)

    p = sub.add_parser("measure", help="apply a local PVM and list branches")
    p.add_argument("action", choices=["apply"])
    add_set_args(p)
    p.add_argument("--group", required=True, help="party letters, e.g. B or BC")
    p.add_argument("--pvm", required=True, help="PVM string, e.g. '0;1' or '00,02,11;~'")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("solve", help="orthogonality-preserving measurements")
    p.add_argument("action", choices=["rank1", "pvms"])
    add_set_args(p)
    p.add_argument("--group", required=True)
    p.add_argument("--max-outcomes", type=int, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("protocol", help="run and verify a protocol tree")
    add_set_args(p)
    p.add_argument("--fixture", choices=["s1_discrimination", "s2_discrimination"])
    p.add_argument("--script", help="protocol JSON file")
    p.set_defaults(fn=cmd_protocol)

    p = sub.add_parser("search", help="bounded distinguishability decision")
    add_set_args(p)
    p.add_argument("--partition", help="e.g. 'A|BC'")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("activate", help="verify an activation claim")
    add_set_args(p)
    p.add_argument("--group", required=True)
    p.add_argument("--pvm", required=True)
    p.add_argument("--partition", help="e.g. 'A|BC'")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_activate)

    p = sub.add_parser("classify", help="place a set on the locality line")
    add_set_args(p)
    p.add_argument("--joint", help="restrict joint pairs, e.g. 'BC'")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--activable-m", type=int, default=None, dest="activable_m",
                   help="also decide m-activability for this m")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("theorem", help="replay a headline claim (1-5)")
    p.add_argument("number", type=int)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("lemma", help="replay the constructive lemma (1)")
    p.add_argument("number", type=int)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_lemma)

    p = sub.add_parser("diagram", help="block-structure occupancy grid")
    add_set_args(p)
    p.add_argument("--partition", help="two blocks, e.g. 'A|BC'")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.set_defaults(fn=cmd_diagram)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0,) else 0
    report = Report(argv)
    try:
        code = args.fn(args, report)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        print(f"internal self-check failed: {exc}", file=sys.stderr)
        return SOFTWARE
    return report.emit(args.json, code)


if __name__ == "__main__":
    sys.exit(main())
