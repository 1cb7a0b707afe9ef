"""One activation walk: classify and is_m_activable against the
previous implementation, kept below as the reference with its logic
verbatim (it ran its own branch walk and its own candidate gathering; the
supplied-candidate table it read is always empty here, its bounds are the
module constants, and it keeps its own cap of 24 first rounds per block,
which classify no longer has), and the sets on which the previous one
raised."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest

import lpcckit
from lpcckit import activation
from lpcckit.activation import (ActivationError, LocalityClass,
                                MActivabilityVerdict, _activation_order,
                                _cached_redundancy, _structural_strong_local,
                                classify, is_m_activable, iter_m_partitions,
                                verify_activation)
from lpcckit.cli import main
from lpcckit.exact import Vec, tensor
from lpcckit.generators import random_product_set
from lpcckit.indexing import embed_with_offsets
from lpcckit.measurements import LocalPVM, apply
from lpcckit.opsolve import (MAX_EXACT_DIM, clear_caches, enumerate_op_pvms,
                             is_pvm_irreducible)
from lpcckit.protocols import lpcc_search
from lpcckit.statesets import (Partition, PartySpec, StateSet,
                               build_named_set, group_support)


# ---------------------------------------------------------------------------
# reference: the previous classify and is_m_activable

# first rounds the reference classify tried on each block, most promising first
MAX_FIRST_ROUNDS = 24


def ref_classify(s: StateSet, joint_pairs: Sequence[tuple[int, int]] | None = None,
                 depth: int = 3) -> tuple[LocalityClass, bool]:
    """Place a set on the locality line: already indistinguishable, a
    single party can hide the information (TYPE-I), only a joint pair can
    (TYPE-II), or no activation was found (strong-local evidence; labeled
    exact only for the structurally recognized theorem cases). Returned
    with whether the cap of MAX_FIRST_ROUNDS bit on some block."""
    n = s.spec.n_parties
    trace: list[str] = []
    capped = False

    if len(s) <= 2:
        return LocalityClass(
            "strong-local-evidence", exact=True,
            trace=["at most two orthogonal states: distinguishable in every "
                   "partition, activation impossible"]), capped
    structural = _structural_strong_local(s)
    if structural:
        return LocalityClass("strong-local-evidence", exact=True,
                             trace=[structural]), capped

    singles = Partition.trivial(n)
    verdict = lpcc_search(s, singles, depth=depth)
    if verdict.status == "indistinguishable":
        return LocalityClass(
            "indistinguishable-already",
            trace=["set is already locally indistinguishable"]), capped
    if verdict.status != "distinguishable":
        trace.append(f"distinguishability search: {verdict.status}")
        return LocalityClass("unknown", trace=trace), capped
    # distinguishability in the finest partition carries to every
    # coarsening, so activation checks below need not re-search
    assume = "distinguishable (finest partition)"

    exhaustive = True
    for party in range(n):
        try:
            candidates = enumerate_op_pvms(s, (party,))
        except ValueError:
            exhaustive = False
            continue
        candidates = _activation_order(s, candidates)
        for lp in candidates[:MAX_FIRST_ROUNDS]:
            try:
                report = verify_activation(s, lp, singles,
                                           assume_distinguishable=assume,
                                           search_depth=depth, fail_fast=True)
            except ActivationError:
                continue
            if report.asserted:
                trace.append(f"party {party} activates")
                return LocalityClass("TYPE-I", witness=report, trace=trace), capped
        if len(candidates) > MAX_FIRST_ROUNDS:
            exhaustive = False
            capped = True
    trace.append("no single party activates"
                 + ("" if exhaustive else " (bounded search)"))

    pairs = list(joint_pairs) if joint_pairs else list(itertools.combinations(range(n), 2))
    for pair in pairs:
        others = tuple((q,) for q in range(n) if q not in pair)
        part = Partition((tuple(pair),) + others)
        candidates = []
        supplied = (None or {}).get(tuple(pair), [])
        candidates.extend(supplied)
        eff = len(group_support(s, pair)[2])
        if eff <= MAX_EXACT_DIM:
            candidates.extend(_activation_order(s, enumerate_op_pvms(
                s, tuple(pair))))
        else:
            exhaustive = False
            trace.append(f"pair {pair}: effective dimension {eff} beyond "
                         f"enumeration bound, verifying supplied candidates only")
        for lp in candidates[:MAX_FIRST_ROUNDS]:
            try:
                report = verify_activation(s, lp, part,
                                           assume_distinguishable=assume,
                                           search_depth=depth, fail_fast=True)
            except ActivationError:
                continue
            if report.asserted:
                trace.append(f"joint pair {pair} activates")
                return LocalityClass("TYPE-II", witness=report, trace=trace), capped
        if len(candidates) > MAX_FIRST_ROUNDS:
            exhaustive = False
            capped = True
    trace.append("no joint pair activates"
                 + ("" if exhaustive else " (bounded search)"))
    return LocalityClass("strong-local-evidence", exact=False, trace=trace), capped


def ref_is_m_activable(s: StateSet, m: int, strong: bool = False,
                       depth: int = 3) -> MActivabilityVerdict:
    """Search all m-partitions for a first-round OP-PVM on one block that
    leaves every branch certified irreducible within that partition; the
    strong variant additionally needs every branch irreducible in some
    (m-1)-partition. Negative verdicts are exact only when every branch
    of every candidate was refuted by an explicit discrimination tree;
    bounded gaps surface as unknown, never as a silent negative."""
    n = s.spec.n_parties
    if m < 2 or m > n:
        raise ValueError(f"m must be between 2 and {n}")
    exhaustive = True
    any_unknown = False
    trace: list[str] = []
    finest = lpcc_search(s, Partition.trivial(n), depth=depth)
    assume = ("distinguishable (finest partition)"
              if finest.status == "distinguishable" else None)
    for part in iter_m_partitions(n, m):
        candidates: list[LocalPVM] = []
        for block in part.blocks:
            supplied = (None or {}).get(tuple(block), [])
            candidates.extend(supplied)
            if len(group_support(s, block)[2]) <= MAX_EXACT_DIM:
                candidates.extend(enumerate_op_pvms(s, block))
            else:
                exhaustive = False
                trace.append(f"{part.describe(s.spec)}: block {block} beyond "
                             f"enumeration bound")
        candidates = _activation_order(s, candidates)
        for lp in candidates:
            outcome_reports = []
            all_irreducible = True
            refuted = False
            for outcome, br in sorted(apply(s, lp).items()):
                if br.states is None:
                    continue
                if len(br.states) < 2:
                    all_irreducible = False
                    refuted = True
                    break
                cert = is_pvm_irreducible(br.states, part)
                outcome_reports.append((outcome, br.states, cert))
                if not cert.irreducible:
                    all_irreducible = False
                    sub = lpcc_search(br.states, part, depth=depth)
                    if sub.status == "distinguishable":
                        refuted = True
                    else:
                        any_unknown = True
                    break
            if not all_irreducible:
                if not refuted:
                    any_unknown = True
                continue
            red = _cached_redundancy(s)
            if red.redundant:
                trace.append("activation found but set is locally redundant")
                continue
            weaker = None
            if strong:
                for q in iter_m_partitions(n, m - 1):
                    if all(is_pvm_irreducible(st, q).irreducible
                           for _, st, _ in outcome_reports):
                        weaker = q
                        break
                if weaker is None:
                    continue
            report = verify_activation(s, lp, part,
                                       assume_distinguishable=assume,
                                       search_depth=depth)
            if report.asserted:
                trace.append(f"activation in {part.describe(s.spec)} via "
                             f"group {lp.group}")
                return MActivabilityVerdict(
                    "activable", m, strong, witness=report,
                    witness_partition=part, weaker_partition=weaker,
                    exact=True, trace=trace)
    if exhaustive and not any_unknown:
        return MActivabilityVerdict(
            "not-activable", m, strong, exact=True,
            trace=trace + ["every candidate first round leaves some branch "
                           "distinguishable"])
    return MActivabilityVerdict("unknown", m, strong, exact=False,
                                trace=trace + ["bounded search exhausted"])


# ---------------------------------------------------------------------------
# differential: same verdicts, witnesses and traces

NAMED_CASES = [(name, m, strong) for name, ms in
               (("S1", (2, 3)), ("S2", (2, 3)), ("Domino", (2,)))
               for m in ms for strong in (False, True)
               if (name, m, strong) != ("S1", 2, True)]      # reference: 5-10 s

STRONG_2_TRACE = ("strong 2-activation needs branches irreducible as one "
                  "block, and the projector onto one state reduces any two "
                  "or more orthogonal states",)


def _random_sets():
    rng = random.Random(2024)
    return [random_product_set(rng, dims, rng.randint(3, min(6, math.prod(dims))))
            for dims in [(2, 2), (3, 2), (4, 2), (3, 2, 2), (3, 2, 2)]]


def side_by_side(name):
    """Two copies of a named set side by side on A (A's dimension doubled)."""
    base = build_named_set(name)
    dims = base.spec.dims
    wide = (2 * dims[0],) + dims[1:]
    return StateSet(PartySpec(wide), [
        (tag + label, embed_with_offsets(v, dims, wide,
                                         (offset,) + (0,) * (len(dims) - 1)))
        for offset, tag in ((0, "a"), (dims[0], "b")) for label, v in base.states],
        provenance=f"{name}+{name}")


def _witness(report):
    return None if report is None else report.to_json()


def _same_class(got: LocalityClass, want: LocalityClass, capped: bool):
    # the intended trace changes: with no supplied candidates, a pair
    # beyond the enumeration bound is only skipped; and classify walks
    # every first round, so where the reference's cap bit, its search was
    # bounded and classify's is not, unless an earlier line puts a block
    # beyond the enumeration bound
    want_trace = tuple(line.replace(", verifying supplied candidates only", "")
                       for line in want.trace)
    if capped:
        lines, beyond = [], False
        for line in want_trace:
            lines.append(line if beyond else line.removesuffix(" (bounded search)"))
            beyond = beyond or line.endswith("beyond enumeration bound")
        want_trace = tuple(lines)
    assert (got.klass, got.exact, got.trace) == (want.klass, want.exact,
                                                 want_trace)
    assert _witness(got.witness) == _witness(want.witness)


def _same_m_verdict(got: MActivabilityVerdict, want: MActivabilityVerdict):
    if got.strong and got.m == 2:
        # decided up front now; the reference walked every candidate to
        # the same verdict wherever it decided one
        assert (got.status, got.exact, got.trace) == ("not-activable", True,
                                                      STRONG_2_TRACE)
        if want.status != "unknown":
            assert (want.status, want.exact) == ("not-activable", True)
    else:
        assert (got.status, got.exact, got.trace) == (want.status, want.exact,
                                                      tuple(want.trace))
    assert _witness(got.witness) == _witness(want.witness)
    assert got.witness_partition == want.witness_partition
    assert got.weaker_partition == want.weaker_partition


@pytest.mark.parametrize("name,m,strong", NAMED_CASES)
def test_m_activable_matches_reference_on_named_sets(name, m, strong):
    s = build_named_set(name)
    _same_m_verdict(is_m_activable(s, m, strong), ref_is_m_activable(s, m, strong))


def test_strong_2_activability_runs_no_search(monkeypatch):
    # the reference took 5-10 s to walk every candidate of S1 to the same
    # not-activable [exact]
    def no_search(*args, **kwargs):
        raise AssertionError("lpcc_search ran")

    monkeypatch.setattr(activation, "lpcc_search", no_search)
    got = is_m_activable(build_named_set("S1"), 2, strong=True)
    assert (got.status, got.exact, got.trace) == ("not-activable", True,
                                                  STRONG_2_TRACE)
    assert got.witness is None and got.witness_partition is None


def test_undecided_source_is_one_search_per_partition(monkeypatch):
    # at depth 0 the finest search and each 2-partition's search stay
    # unknown: one search per partition decides that, and no candidate of
    # an undecided source is walked
    clear_caches()
    searched, walked = [], []

    def spy_search(s, p, depth=4):
        searched.append(p.blocks)
        return lpcc_search(s, p, depth=depth)

    monkeypatch.setattr(activation, "lpcc_search", spy_search)
    monkeypatch.setattr(activation, "_walk", lambda *a, **k: walked.append(a))
    got = is_m_activable(build_named_set("S2"), 2, depth=0)
    assert (got.status, got.exact) == ("unknown", False)
    partitions = [p.blocks for p in iter_m_partitions(3, 2)]
    assert searched == [((0,), (1,), (2,))] + partitions
    assert walked == []


def test_enumerated_candidates_are_walked_without_refusal_checks(monkeypatch):
    # classify hands the walk only candidates from enumerate_op_pvms, which
    # are nontrivial, preserving, in one block and on an orthogonal source
    def refused(*args):
        raise AssertionError("a refusal check ran")

    clear_caches()
    for name in ("is_trivial_for_set", "preserves_orthogonality",
                 "check_mutual_orthogonality"):
        monkeypatch.setattr(activation, name, refused)
    got = classify(build_named_set("S2"), joint_pairs=[(1, 2)])
    assert got.klass == "TYPE-II" and got.witness.asserted
    clear_caches()


def test_search_verdict_does_not_depend_on_call_history():
    # a stored verdict is reused only at a depth from which a fresh search
    # reaches it: classify's depth-3 trees do not answer a depth-0 search,
    # and that search's unknown does not replace them
    s = build_named_set("S2")
    singles = Partition.trivial(3)
    clear_caches()
    cold = is_m_activable(s, 2, depth=0)
    assert (cold.status, cold.exact) == ("unknown", False)
    clear_caches()
    assert classify(s).klass == "TYPE-II"
    deep = lpcc_search(s, singles, depth=3)
    assert deep.status == "distinguishable"
    assert is_m_activable(s, 2, depth=0).to_json() == cold.to_json()
    assert lpcc_search(s, singles, depth=0).status == "unknown"
    assert lpcc_search(s, singles, depth=3) is deep


@pytest.mark.parametrize("name", ["S1", "S2", "Domino"])
def test_classify_matches_reference_on_named_sets(name):
    s = build_named_set(name)
    _same_class(classify(s), *ref_classify(s))
    if name == "S2":
        _same_class(classify(s, joint_pairs=[(1, 2)]),
                    *ref_classify(s, joint_pairs=[(1, 2)]))


def test_walk_matches_reference_on_random_product_sets():
    compared = 0
    for s in _random_sets():
        n = s.spec.n_parties
        _same_class(classify(s), *ref_classify(s))
        for m in range(2, n + 1):
            for strong in (False, True):
                _same_m_verdict(is_m_activable(s, m, strong),
                                ref_is_m_activable(s, m, strong))
                compared += 1
    assert compared == 3 * 2 + 2 * 4


@pytest.mark.parametrize("strong", [False, True])
def test_walk_matches_reference_when_a_branch_stays_undecided(strong):
    # each copy of S1 is distinguishable, so the source is; the first
    # round "0;1" on B leaves a branch made of two Domino-like halves,
    # reducible (A tells the halves apart) but not separated by the
    # search, so that candidate is neither refuted nor an activation
    s = side_by_side("S1")
    _same_class(classify(s), *ref_classify(s))
    got = is_m_activable(s, 3, strong)
    _same_m_verdict(got, ref_is_m_activable(s, 3, strong))
    assert got.status == "unknown"


# ---------------------------------------------------------------------------
# sets on which the previous walk exited 64 or raised

def _ket(i, d):
    return Vec([1 if j == i else 0 for j in range(d)])


def inert_pair_set():
    """{|i>|0>|0> : i < 4} in 4x2x2: BC's joint support is one-dimensional."""
    return StateSet(PartySpec((4, 2, 2)),
                    [(str(i), tensor(_ket(i, 4), _ket(0, 2), _ket(0, 2)))
                     for i in range(4)], provenance="inert-BC")


def _cli(tmp_path, s, *argv):
    path = tmp_path / "set.json"
    path.write_text(s.dumps())
    return main([*argv, "--file", str(path)])


def test_inert_block_has_no_candidates(tmp_path, capsys):
    s = inert_pair_set()
    assert enumerate_op_pvms(s, (1, 2)) == ()
    assert enumerate_op_pvms(s, (1,)) == ()
    out = classify(s)
    assert out.klass == "strong-local-evidence"
    assert out.trace == ("no single party activates", "no joint pair activates")
    verdict = is_m_activable(s, 2)
    assert verdict.status == "not-activable" and verdict.exact
    assert _cli(tmp_path, s, "classify") == 0
    assert _cli(tmp_path, s, "classify", "--activable-m", "2") == 0
    assert _cli(tmp_path, s, "solve", "pvms", "--group", "BC",
                "--max-outcomes", "1") == 64
    capsys.readouterr()


def test_undecided_source_makes_candidates_unknown(tmp_path, capsys):
    s = side_by_side("Domino")
    verdict = is_m_activable(s, 2)
    assert verdict.status == "unknown" and not verdict.exact
    assert _cli(tmp_path, s, "classify", "--activable-m", "2") == 2
    # the same source through `activate`: undecided, not refuted
    assert _cli(tmp_path, s, "activate", "--group", "A",
                "--pvm", "0,1,2;3,4,5") == 2
    assert "could not establish" in capsys.readouterr().out


def test_activate_refutes_invalid_first_round_without_traceback():
    env = dict(os.environ,
               PYTHONPATH=str(Path(lpcckit.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "lpcckit.cli", "--json", "activate",
         "--name", "S2", "--group", "A", "--pvm", "0;1;2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    verdict = json.loads(done.stdout)["verdicts"][0]
    assert verdict["asserted"] is False
    assert "breaks orthogonality" in verdict["reason"]
