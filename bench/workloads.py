"""The benchmark's workloads as fixed, seeded query lists.

A round is one fresh interpreter running one query list from cold caches.
``build_round`` is the round's set-up: it builds the named sets, draws the
seeded inputs and writes the re-posed input files. Each query then calls
lpcckit's public API or ``lpcckit.cli.main`` under the timer; after the
timer stops its judge reduces the result to a canonical verdict (JSON
data, no timings), compares it with the known answer and re-checks every
returned rank-1 direction in plain Fraction arithmetic (``checks``).

Workloads, and why each was chosen:

* ``solve-named``: every party group of Domino, S2 and S1, rank-1
  directions on a cold cache then PVM enumeration, ending with the
  irreducibility certificate of Domino. The solver and exact elimination do
  nearly all the work. S1 AC and S2 AC are left out: each takes 15-25 s
  alone, which would push a run of this workload past a minute.
* ``sweep-random``: unique small instances, 4:3:2:1 lemma-structured
  protocols, planted directions, dimension-2 no-go checks and n x 2
  classifications. Per-query overhead, dense embed-and-apply and the
  no-go's separability rank tests dominate; no input repeats, so caches
  never hit.
* ``replay-session``: one in-process CLI session with ``--json`` (theorem
  replays, classification, search, activation, a protocol fixture), with
  re-queries on re-posed copies that must give the same verdicts, so the
  caches' hit path is measured. ``classify --name S2 --joint BC``
  stands in for the full ``classify --name S2`` so the S2 AC solve is not
  counted twice, and the tier-1 suite is not a workload: it overlaps all
  three and takes about two minutes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from checks import expect_equal, preserves, ray_key

WORKLOADS = ("solve-named", "sweep-random", "replay-session")
# workloads whose rounds draw new inputs; the others repeat one input set,
# so every round of a run must give the same verdict digest
ROUND_VARIES = {"sweep-random"}

PARTY = "ABC"


@dataclass
class Judgement:
    verdict: Any                      # canonical JSON data, no timings
    problems: list[str] = field(default_factory=list)
    unknown: bool = False


@dataclass
class Query:
    qid: str
    call: Callable[[], Any]
    judge: Callable[[Any], Judgement]


def build_round(workload: str, seed: int, round_index: int, size: str,
                oracle: dict, work_dir: Path) -> list[Query]:
    if workload == "solve-named":
        return _solve_named(seed, size, oracle)
    if workload == "sweep-random":
        return _sweep_random(seed, round_index, size, oracle)
    if workload == "replay-session":
        return _replay_session(seed, size, oracle, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _groups(n_parties: int) -> list[tuple[int, ...]]:
    singles = [(p,) for p in range(n_parties)]
    pairs = [(p, q) for p in range(n_parties) for q in range(p + 1, n_parties)]
    return singles + pairs


def _label(group) -> str:
    return "".join(PARTY[p] for p in group)


def _states(s):
    return [v.entries for v in s.vectors()]


def _rank1_verdict(rep, dims, states, group) -> Judgement:
    """Canonical rank-1 report; every direction and family member is
    re-checked as orthogonality preserving in Fraction arithmetic."""
    problems = []
    rays = sorted(ray_key(sol.vector.entries) for sol in rep.solutions if sol.exact)
    if any(not sol.exact for sol in rep.solutions):
        problems.append("numeric solution in an exact report")
    members = [sol.vector.entries for sol in rep.solutions if sol.exact]
    members += [m.entries for fam in rep.families for m in fam.members()]
    for theta in members:
        if not preserves(dims, states, group, theta):
            problems.append(f"direction {ray_key(theta)} breaks orthogonality")
    verdict = {"none_found": rep.is_none_found,
               "rays": [list(r) for r in rays],
               "families": sorted(_sha(f.to_json()) for f in rep.families),
               "unresolved": len(rep.unresolved)}
    return Judgement(verdict, problems, unknown=bool(rep.unresolved))


def _check_expected(label: str, verdict: dict, want: dict | None,
                    problems: list[str]) -> None:
    for key, value in (want or {}).items():
        got = verdict.get(key)
        if key == "rays":
            got, value = sorted(map(list, got or [])), sorted(map(list, value))
        expect_equal(f"{label} {key}", got, value, problems)


# ---------------------------------------------------------------------------
# solve-named

SOLVE_SETS = ("Domino", "S2", "S1")
# S1 AC and S2 AC take 15-25 s each; with them a run of this workload would
# take over a minute on a loaded host. Domino AB stays as the headline solve.
SOLVE_SKIP = {("S1", (0, 2)), ("S2", (0, 2))}
TINY_SOLVE = {("Domino", (0,)), ("Domino", (1,)), ("S2", (2,))}


def _resigned(s, rng):
    """The set with every state multiplied by a seeded sign. The rays, the
    verdicts and the arithmetic cost stay the same; a factor of i would
    make real amplitudes complex and the solver measurably slower."""
    from lpcckit import Scalar
    return s.with_states([(label, v.scale(Scalar(rng.choice((1, -1)))))
                          for label, v in s.states])


def _solve_named(seed: int, size: str, oracle: dict) -> list[Query]:
    from lpcckit import Partition, build_named_set
    from lpcckit.opsolve import (enumerate_op_pvms, is_pvm_irreducible,
                                 rank1_op_directions)
    rng = random.Random(seed)
    sets = {name: _resigned(build_named_set(name), rng) for name in SOLVE_SETS}
    queries = []
    for name in SOLVE_SETS:
        s = sets[name]
        dims, states = s.spec.dims, _states(s)
        for group in _groups(s.spec.n_parties):
            if (name, group) in SOLVE_SKIP:
                continue
            if size == "tiny" and (name, group) not in TINY_SOLVE:
                continue
            tag = f"{name} {_label(group)}"

            def judge_rank1(rep, tag=tag, dims=dims, states=states, group=group):
                j = _rank1_verdict(rep, dims, states, group)
                _check_expected(f"rank1 {tag}", j.verdict,
                                oracle.get(f"rank1 {tag}"), j.problems)
                return j

            def judge_pvms(pvms, tag=tag):
                verdict = {"count": len(pvms),
                           "pvms": _sha(sorted(sorted(json.dumps(e.to_json())
                                                      for e in lp.pvm.elements)
                                               for lp in pvms))}
                j = Judgement(verdict)
                _check_expected(f"pvms {tag}", verdict,
                                oracle.get(f"pvms {tag}"), j.problems)
                return j

            queries.append(Query(f"rank1 {tag}",
                                 lambda s=s, g=group: rank1_op_directions(s, g),
                                 judge_rank1))
            queries.append(Query(f"pvms {tag}",
                                 lambda s=s, g=group: enumerate_op_pvms(s, g),
                                 judge_pvms))
    tag = "irreducible Domino A|B"

    def judge_irreducible(v):
        verdict = {"status": v.status,
                   "block_levels": {_label(b): lvl for b, lvl in v.block_levels.items()}}
        j = Judgement(verdict, unknown=v.status == "unknown")
        _check_expected(tag, verdict, oracle.get(tag), j.problems)
        return j

    queries.append(Query(tag, lambda: is_pvm_irreducible(
        sets["Domino"], Partition(((0,), (1,)))), judge_irreducible))
    return queries


# ---------------------------------------------------------------------------
# sweep-random

# one lemma (L), planted (P), no-go (N) or classify (C) query per slot:
# 4:3:2:1, interleaved so that any prefix keeps roughly the same mix
MIX = "LPLNLPCLPN"
# Instance sizes cycle through fixed lists instead of being drawn, so every
# round has the same size mix and only the amplitudes come from the seed:
# cost then varies little from seed to seed.
LEMMA_SIZES = [(wide, classes) for wide in range(2, 7) for classes in range(1, wide // 2 + 1)]
SWEEP_SIZE = {"full": 100, "tiny": 10}


def _sweep_random(seed: int, round_index: int, size: str, oracle: dict) -> list[Query]:
    from lpcckit.activation import check_dim2_nogo, classify
    from lpcckit.generators import (planted_direction_set, random_biseparable_322,
                                    random_lemma_structured_set, random_product_set)
    from lpcckit.opsolve import rank1_op_directions
    from lpcckit.protocols import Leaf, execute_and_verify, lemma1_protocol

    rng = random.Random(seed * 1_000_003 + round_index)
    queries = []
    seen = {kind: 0 for kind in MIX}
    for i in range(SWEEP_SIZE[size]):
        kind = MIX[i % len(MIX)]
        nth = seen[kind]
        seen[kind] += 1
        qid = f"{kind}{i}"
        if kind == "L":
            s = random_lemma_structured_set(rng, *LEMMA_SIZES[nth % len(LEMMA_SIZES)])

            def call(s=s):
                tree = lemma1_protocol(s)
                if isinstance(tree, Leaf):
                    return {"status": "distinguishable", "leaf": tree.claim}
                return {"status": execute_and_verify(s, tree).status}

            def judge(v):
                j = Judgement(v)
                _check_expected("lemma", v, oracle["lemma"], j.problems)
                return j
        elif kind == "P":
            s, theta = planted_direction_set(rng, group_dim=3, rest_dim=3,
                                             n_states=2 + nth % 2)

            def call(s=s):
                return rank1_op_directions(s, (0,))

            def judge(rep, s=s, theta=theta):
                j = _rank1_verdict(rep, s.spec.dims, _states(s), (0,))
                if not preserves(s.spec.dims, _states(s), (0,), theta.entries):
                    j.problems.append("planted ray is not orthogonality preserving")
                found = (ray_key(theta.entries) in map(tuple, j.verdict["rays"])
                         or any(f.contains(theta) for f in rep.families))
                j.verdict["contains_planted"] = found
                _check_expected("planted", j.verdict, oracle["planted"], j.problems)
                return j
        elif kind == "N":
            s = random_biseparable_322(rng, n_states=4 + nth % 5)
            probe_seed = rng.randint(0, 10 ** 6)

            def call(s=s, probe_seed=probe_seed):
                return check_dim2_nogo(s, probes=6, seed=probe_seed)

            def judge(rep):
                v = {"confirmed": rep.confirmed,
                     "parties_checked": list(rep.parties_checked)}
                j = Judgement(v)
                _check_expected("nogo", v, oracle["nogo"], j.problems)
                return j
        else:
            n = 2 + nth % 3
            s = random_product_set(rng, (n, 2), min(2 * n, n + 2))

            def call(s=s):
                return classify(s)

            def judge(out):
                v = {"class": out.klass, "exact": out.exact}
                j = Judgement(v, unknown=out.klass == "unknown")
                _check_expected("classify", v, oracle["classify"], j.problems)
                return j
        queries.append(Query(qid, call, judge))
    return queries


# ---------------------------------------------------------------------------
# replay-session

# The verbs whose verdicts and cache entries the re-queries reuse come first
# (theorem 3 solves S2 C); each later verb is followed by one re-posed copy's
# re-queries, so the copies spread over the session instead of sharing one
# few-second window of the host's speed.
SESSION = (
    ("theorem 3", ["theorem", "3"]),
    ("classify S1", ["classify", "--name", "S1"]),
    ("classify S2 --joint BC", ["classify", "--name", "S2", "--joint", "BC"]),
    ("search Domino", ["search", "--name", "Domino", "--depth", "2"]),
    ("activate S1 B 0;1", ["activate", "--name", "S1", "--group", "B", "--pvm", "0;1"]),
    ("protocol s2_discrimination", ["protocol", "--fixture", "s2_discrimination"]),
    ("theorem 1", ["theorem", "1"]),
    ("theorem 2", ["theorem", "2"]),
    ("theorem 4", ["theorem", "4"]),
    ("theorem 5", ["theorem", "5"]),
)
ORIGINALS = 4
TINY_SESSION = {"theorem 2", "theorem 4", "search Domino", "activate S1 B 0;1",
                "protocol s2_discrimination"}
# re-query verbs on re-posed copies: (query id, set, argv, known answer,
# first-pass query whose verdict it must repeat)
FILE = "{file}"
REQUERY = (
    ("classify S1", "S1", ["classify", "--file", FILE], "classify S1", "classify S1"),
    ("classify S2 --joint BC", "S2", ["classify", "--file", FILE, "--joint", "BC"],
     "classify S2 --joint BC", "classify S2 --joint BC"),
    ("search Domino", "Domino", ["search", "--file", FILE, "--depth", "2"],
     "search Domino", "search Domino"),
    ("solve rank1 S2 C", "S2", ["solve", "rank1", "--file", FILE, "--group", "C"],
     "rank1 S2 C", None),
)
REQUERY_COPIES = {"full": 4, "tiny": 1}
TINY_REQUERY = {"search Domino", "solve rank1 S2 C"}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with --json; returns (exit code, stdout)."""
    from lpcckit.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json", *argv])
    return code, buf.getvalue()


def _cli_verdict(verb: str, code: int, text: str, problems: list[str]) -> tuple[dict, dict]:
    """Canonical verdict of one --json report, the exit code plus the
    fields that carry the answer (timings and the command echo dropped),
    and the report's first structured verdict."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{verb}: output is not JSON")
        return {"exit_code": code}, {}
    found = [v for v in data.get("verdicts", []) if set(v) - {"text"}]
    head = found[0] if found else {}
    out: dict[str, Any] = {"exit_code": code}
    if verb == "theorem":
        out["passed"] = head.get("passed")
        out["checks"] = [[c["label"], c["ok"]] for c in head.get("checks", [])]
    elif verb == "classify":
        out["class"], out["exact"] = head.get("class"), head.get("exact")
    elif verb in ("search", "protocol"):
        out["status"] = head.get("status")
    elif verb == "activate":
        out["asserted"] = head.get("asserted")
    elif verb == "solve":
        out["none_found"] = head.get("none_found") is not None
        out["rays"] = sorted(list(ray_key(sol["vector"]))
                             for sol in head.get("solutions", []) if sol["exact"])
        out["unresolved"] = len(head.get("unresolved", []))
    return out, head


# Gaussian integers of norm 5: every factor costs the same arithmetic, so
# the re-queries cost the same on every seed
NORM5 = [(a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2) if a * a + b * b == 5]


def _repose(s, rng):
    """A copy with its states shuffled and each rescaled by a seeded
    nonzero Gaussian integer: the same set, with different bytes."""
    from lpcckit import Scalar
    states = list(s.states)
    rng.shuffle(states)
    out = []
    for label, v in states:
        out.append((label, v.scale(Scalar(*rng.choice(NORM5)))))
    return s.with_states(out)


def _replay_session(seed: int, size: str, oracle: dict, work_dir: Path) -> list[Query]:
    from lpcckit import build_named_set
    first_pass: dict[str, dict] = {}

    def cli_query(qid, argv, expect, match=None, recheck=None):
        def judge(result):
            code, text = result
            problems: list[str] = []
            verdict, head = _cli_verdict(argv[0], code, text, problems)
            _check_expected(qid, verdict, expect, problems)
            if match is None:
                first_pass[qid] = verdict
            elif match in first_pass:
                expect_equal(f"{qid} vs first pass", verdict, first_pass[match],
                             problems)
            if recheck is not None:
                dims, states, group = recheck
                for sol in head.get("solutions", []):
                    if sol["exact"] and not preserves(dims, states, group, sol["vector"]):
                        problems.append(f"{qid}: direction {ray_key(sol['vector'])} "
                                        f"breaks orthogonality")
            unknown = code == 2 or verdict.get("unresolved", 0) > 0
            return Judgement(verdict, problems, unknown=unknown)
        return Query(qid, lambda: run_cli(argv), judge)

    session = [cli_query(qid, argv, oracle.get(qid)) for qid, argv in SESSION
               if size == "full" or qid in TINY_SESSION]

    rng = random.Random(seed)
    base = {name: build_named_set(name) for name in ("S1", "S2", "Domino")}
    work_dir.mkdir(parents=True, exist_ok=True)
    requeries = []
    for copy in range(REQUERY_COPIES[size]):
        copies = {name: _repose(s, rng) for name, s in base.items()}
        for name, c in copies.items():
            (work_dir / f"{name}-{copy}.json").write_text(json.dumps(c.to_json()))
        batch = []
        for qid, name, template, known, match in REQUERY:
            if size == "tiny" and qid not in TINY_REQUERY:
                continue
            c = copies[name]
            path = str(work_dir / f"{name}-{copy}.json")
            argv = [path if a == FILE else a for a in template]
            recheck = (c.spec.dims, _states(c), (2,)) if template[0] == "solve" else None
            batch.append(cli_query(f"{qid} (re-posed {copy})", argv,
                                   oracle.get(known), match=match, recheck=recheck))
        requeries.append(batch)

    originals = ORIGINALS if size == "full" else 1
    queries = session[:originals]
    for k, verb in enumerate(session[originals:]):
        queries.append(verb)
        if k < len(requeries):
            queries.extend(requeries[k])
    for batch in requeries[len(session) - originals:]:
        queries.extend(batch)
    return queries
