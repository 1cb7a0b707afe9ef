"""Each block's first rounds are ranked once per set: `_first_rounds` keeps
the candidates with their survival counts in the result store, keyed on
the rays, so a re-posed copy counts nothing; `branch_survivals` reads each
group's slices once per call; and the walk's Domino cross-check merges
only nine-state branches and abandons a relabeling at its first miss.

The reference order is the previous `_activation_order` body, a sort of
fresh `branch_survivals` counts. The Domino record in
`corpus/domino_match.json` holds the previous `domino_match`'s output
(commit 696c98c) on every branch that the walks of the named sets,
`is_m_activable` and theorems 1-5 reached, and on seeded per-party
coordinate permutations and Gaussian-integer rescalings of Domino embedded
into larger local spaces (some with one entry of one state tripled, or
two states on one ray)."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest

from lpcckit import activation
from lpcckit.activation import (_activation_order, _first_rounds, classify,
                                domino_match, is_m_activable, iter_m_partitions)
from lpcckit.exact import Scalar, Vec
from lpcckit.generators import random_product_set
from lpcckit.kets import parse_pvm
from lpcckit.measurements import LocalPVM, apply, branch_survivals
from lpcckit.opsolve import MAX_EXACT_DIM, clear_caches, enumerate_op_pvms
from lpcckit.statesets import PartySpec, StateSet, build_named_set, group_support
from lpcckit.theorems import theorem_replay

CORPUS = Path(__file__).parent / "corpus" / "domino_match.json"


def fresh_order(s, candidates):
    keyed = sorted(zip(candidates, branch_survivals(s, candidates)),
                   key=lambda t: (-t[1], len(t[0].pvm)))
    return [lp for lp, _ in keyed]


def recount(s, lp):
    """`apply`'s survivors of one candidate, counted on its branches."""
    return sum(len(br.states) for br in apply(s, lp).values() if br.states is not None)


def reposed(s, seed):
    """The set with its states shuffled and each one rescaled by a
    Gaussian integer of norm 5: the same rays."""
    rng = random.Random(seed)
    states = []
    for label, v in s.states:
        c = Scalar(*rng.choice([(1, 2), (2, -1), (-2, 1), (1, -2)]))
        states.append((label, Vec([c * x for x in v.entries])))
    rng.shuffle(states)
    return StateSet(s.spec, states, provenance=f"{s.provenance}~{seed}")


def _sets():
    for name in ("S1", "S2", "S2prime", "S2doubleprime", "Domino"):
        yield build_named_set(name)
    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    for _, br in sorted(apply(build_named_set("UnionS"), coarse).items()):
        yield br.states
    rng = random.Random(34)
    for _ in range(20):
        dims = rng.choice([(2, 2), (3, 2), (3, 3), (4, 2), (2, 2, 2)])
        yield random_product_set(rng, dims, rng.randint(3, min(7, math.prod(dims))))


def _blocks(n):
    return [g for size in range(1, n) for g in itertools.combinations(range(n), size)]


def _check_orders(s) -> list:
    """Per block, and per concatenation over a 2-partition's blocks, the
    stored ranking walks candidates in the fresh order; the candidates of
    every block are returned."""
    n = s.spec.n_parties
    every = []
    for block in _blocks(n):
        ranked = _first_rounds(s, block)
        if ranked is None:
            assert len(group_support(s, block)[2]) > MAX_EXACT_DIM
            continue
        candidates = enumerate_op_pvms(s, block)
        assert [lp for lp, _ in ranked] == list(candidates)
        assert _activation_order(ranked) == fresh_order(s, candidates), (s, block)
        every += candidates
    for part in iter_m_partitions(n, 2):
        ranked = [t for b in part.blocks for t in (_first_rounds(s, b) or ())]
        assert _activation_order(ranked) == fresh_order(s, [lp for lp, _ in ranked])
    return every


def test_stored_order_equals_fresh_order_cold_and_on_a_reposed_copy():
    """Each set is checked from an empty store and again on a re-posed
    copy, whose rankings come from the store; on both, the hoisted
    `branch_survivals` equals a per-candidate recount."""
    checked = counted = 0
    for i, s in enumerate(_sets()):
        clear_caches()
        copy = reposed(s, i)
        assert copy.ray_key == s.ray_key
        for t in (s, copy):
            candidates = _check_orders(t)
            assert branch_survivals(t, candidates) == [recount(t, lp) for lp in candidates]
            counted += len(candidates)
        checked += 1
    assert checked == 28 and counted > 2000


def _spy(monkeypatch, name):
    calls = []
    real = getattr(activation, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(activation, name, spy)
    return calls


def _summary(verdict, answer):
    w = verdict.witness
    return (answer, verdict.exact, w.first.group, w.first.pvm,
            [b.n_states for b in w.branches])


@pytest.mark.parametrize("name, run", [
    ("S2", lambda s: (v := classify(s, [(1, 2)]), v.klass)),
    ("S1", lambda s: (v := is_m_activable(s, 2), v.status))])
def test_a_reposed_copy_counts_no_survivals(monkeypatch, name, run):
    clear_caches()
    s = build_named_set(name)
    cold = _summary(*run(s))
    calls = _spy(monkeypatch, "branch_survivals")
    warm = _summary(*run(reposed(s, 7)))
    assert calls == []
    assert warm == cold
    assert cold[:2] == (("TYPE-II", False) if name == "S2" else ("activable", True))


def test_domino_cross_check_merges_only_nine_state_branches(monkeypatch):
    clear_caches()
    merged = _spy(monkeypatch, "merge_parties")
    s2 = build_named_set("S2")
    assert classify(s2).klass == "TYPE-II"
    assert is_m_activable(s2, 2).status == "activable"
    assert theorem_replay(5).passed
    assert merged and all(len(branch) == 9 for branch, _ in merged)


def _corpus_set(entry):
    dims = tuple(entry["dims"])
    size = math.prod(dims)
    states = []
    for label, cells in entry["states"]:
        amps = [Scalar(0)] * size
        for i, *quad in cells:
            amps[i] = Scalar.from_quad(quad)
        states.append((label, Vec(amps)))
    return StateSet(PartySpec(dims), states)


def test_domino_match_repeats_the_recorded_answers(monkeypatch):
    entries = json.loads(CORPUS.read_text())
    assert len(entries) == 163
    assert sum(e["match"] is not None for e in entries) == 36
    domino_match(build_named_set("Domino"))
    built = _spy(monkeypatch, "build_named_set")       # target rays are kept
    for entry in entries:
        got = domino_match(_corpus_set(entry))
        assert (got.to_json() if got else None) == entry["match"], entry["source"]
    assert built == []
