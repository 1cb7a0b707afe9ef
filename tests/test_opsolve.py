"""Orthogonality-preserving measurement solver."""

import dataclasses
import itertools
import random
from collections import Counter, OrderedDict
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from types import MappingProxyType

import pytest

from lpcckit.exact import (Mat, Scalar, Vec, ZERO, inner, nullspace_with_free,
                           rank, tensor)
from lpcckit.generators import (planted_direction_set, random_orthogonal_set,
                                random_product_set)
from lpcckit.indexing import GroupIndexer, indexer
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (LocalPVM, PVM, Projector, apply,
                                  branch_survivals, complement,
                                  preserves_orthogonality)
from lpcckit import activation, opsolve
from lpcckit.opsolve import (clear_caches, diagonal_op_subsets,
                             enumerate_op_pvms, is_pvm_irreducible,
                             rank1_op_directions)
from lpcckit.protocols import lpcc_search
from lpcckit.statesets import (Partition, PartySpec, StateSet,
                               group_support,
                               sets_equal_up_to_relabeling)


def ray(*xs):
    return Vec(list(xs)).normalized_leading()


def ray_of(e):
    """The ray of a rank-1 projector: a nonzero column of its matrix."""
    return e.mat.col(e.mat.first_nonzero()[1]).normalized_leading()


def _pair_den(s, group) -> int:
    """The denominator of `_pair_rows`: lcm(F_i)^2 over the states' int
    slices."""
    idx = indexer(s.spec.dims, group)
    return lcm(*(idx.int_slices(v)[0] for v in s.vectors())) ** 2


def _pair_matrices(s, group) -> dict:
    """Each pair form of `_pair_rows` as its exact matrix, keyed by the
    pair: its integer rows divided by `_pair_den`."""
    den, d = _pair_den(s, group), indexer(s.spec.dims, group).group_dim
    out = {}
    for pair, rows in zip(itertools.combinations(range(len(s)), 2),
                          opsolve._pair_rows(s, group)):
        m = [[ZERO] * d for _ in range(d)]
        for a, row in rows:
            for b, x, y in row:
                m[a][b] = Scalar(Fraction(x, den), Fraction(y, den))
        out[pair] = Mat(m)
    return out


def test_constraint_matrix_forcing_pattern(s2):
    cmats = _pair_matrices(s2, (0,))
    c13 = cmats[(0, 2)]
    # the only coupling between these two states is through levels 0 and 1
    for a in range(3):
        for b in range(3):
            want = Scalar(2) if (a, b) == (0, 1) else Scalar(0)
            assert c13.entries[a][b] == want


def test_constraint_matrix_zero_for_locally_orthogonal():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("a", tensor(Vec([1, 0]), Vec([1, 1]))),
                        ("b", tensor(Vec([0, 1]), Vec([1, -1])))])
    c = _pair_matrices(s, (0,))[0, 1]
    assert c.is_zero()


def test_constraint_matrix_product_structure_oracle():
    # for product states the matrices factor as conj(alpha_i) alpha_j^T
    # times the overlap of the rest factors
    rng = random.Random(2)
    from lpcckit.exact import sc
    from lpcckit.indexing import GroupIndexer
    for _ in range(10):
        s = random_product_set(rng, (3, 3), 4, domino_moves=0)
        idx = GroupIndexer(s.spec.dims, (0,))
        factors = []
        for v in s.vectors():
            slices = idx.local_vectors(v)
            alpha = next(u for u in slices if not u.is_zero())
            # exact rest factor by contracting with alpha
            rest = Vec([inner(alpha, u) for u in slices]).scale(
                sc(1) / sc(alpha.norm2()))
            factors.append((alpha, rest))
        for (i, j), m in _pair_matrices(s, (0,)).items():
            ai, ri = factors[i]
            aj, rj = factors[j]
            overlap = inner(ri, rj)
            for a in range(3):
                for b in range(3):
                    want = ai.entries[a].conj() * aj.entries[b] * overlap
                    assert m.entries[a][b] == want


def test_form_value_matches_preservation():
    rng = random.Random(4)
    s = random_orthogonal_set(rng, (3, 3), 3, complex_amps=True)
    theta = Vec([1, 2, -1])
    p = Projector.from_ray(theta)
    lp = LocalPVM(PVM([p, complement([p], p.dim)]), (0,))
    all_zero = opsolve._form_vanishes(opsolve._pair_rows(s, (0,)), theta)
    assert all_zero == bool(preserves_orthogonality(s, lp))


def test_s2_first_party_none_found(s2):
    rep = rank1_op_directions(s2, (0,))
    assert rep.is_none_found
    assert rep.none_found["method"] == "exact-case-split"


def test_s2_second_party_none_found(s2):
    rep = rank1_op_directions(s2, (1,))
    assert rep.is_none_found


def test_s2_third_party_three_directions(s2):
    rep = rank1_op_directions(s2, (2,))
    got = {v.entries for v in rep.nontrivial_directions()}
    want = {ray(0, 0, 1).entries, ray(1, -1, 0).entries, ray(1, 1, 0).entries}
    assert got == want
    assert not rep.unresolved


def test_domino_none_found_both_parties(domino):
    for party in (0, 1):
        rep = rank1_op_directions(domino, (party,))
        assert rep.is_none_found


def test_solutions_reverify(s2):
    rep = rank1_op_directions(s2, (2,))
    for sol in rep.solutions:
        p = Projector.from_ray(sol.vector)
        lp = LocalPVM(PVM([p, complement([p], p.dim)]), (2,))
        assert preserves_orthogonality(s2, lp)


def _two_qubit_set(*states):
    return StateSet(PartySpec((2, 2)),
                    [(str(i), Vec(v)) for i, v in enumerate(states)])


def _assert_members_preserve(s, fam):
    for theta in fam.members():
        assert fam.contains(theta)
        p = Projector.from_ray(theta)
        assert preserves_orthogonality(
            s, LocalPVM(PVM([p, complement([p], p.dim)]), (0,)))


def test_circle_family_members_and_membership():
    # {|00>+|11>, |00>-|11>}: (1, tau) preserves exactly when |tau| = 1
    s = _two_qubit_set([1, 0, 0, 1], [1, 0, 0, -1])
    rep = rank1_op_directions(s, (0,))
    assert not rep.solutions and not rep.unresolved
    (fam,) = rep.families
    assert (fam.kind, fam.center, fam.radius2, fam.annihilating) == (
        "circle", Scalar(0), 1, False)
    assert fam.members() == [ray(1, 1), ray(1, -1), ray(1, Scalar(0, 1)),
                             ray(1, Scalar(0, -1))]
    assert fam.contains(Vec([5, Scalar(3, 4)]))
    assert not fam.contains(Vec([1, 2]))
    _assert_members_preserve(s, fam)


def test_real_line_family_members_and_membership():
    # {|00>+|11>, |01>+|10>}: (1, i*t) preserves for every real t
    s = _two_qubit_set([1, 0, 0, 1], [0, 1, 1, 0])
    rep = rank1_op_directions(s, (0,))
    assert [sol.vector for sol in rep.solutions] == [ray(1, 0), ray(0, 1)]
    assert not rep.unresolved
    (fam,) = rep.families
    assert (fam.kind, fam.base, fam.step, fam.annihilating) == (
        "real-line", ray(1, 0), Vec([0, Scalar(0, 1)]), False)
    assert fam.members() == [ray(1, 0), ray(1, Scalar(0, 1)),
                             ray(1, Scalar(0, -1)), ray(1, Scalar(0, 2))]
    assert fam.contains(Vec([1, Scalar(0, 2)]))
    assert not fam.contains(Vec([1, 1]))
    _assert_members_preserve(s, fam)


def test_scaling_state_leaves_solutions_unchanged(s2):
    scaled = s2.with_states(
        [(l, v.scale(Scalar(3, 2)) if l == "4" else v) for l, v in s2.states])
    rep = rank1_op_directions(scaled, (2,))
    got = {v.entries for v in rep.nontrivial_directions()}
    want = {ray(0, 0, 1).entries, ray(1, -1, 0).entries, ray(1, 1, 0).entries}
    assert got == want


def test_planted_direction_recovery_sample():
    rng = random.Random(99)
    for _ in range(100):
        s, theta = planted_direction_set(rng, group_dim=3, rest_dim=3,
                                         n_states=3)
        rep = rank1_op_directions(s, (0,))
        assert rep.contains_ray(theta), f"missed planted direction {theta}"
        assert not rep.unresolved


def test_dim2_groups_always_exact():
    rng = random.Random(41)
    for _ in range(40):
        s, _theta = planted_direction_set(rng, group_dim=2, rest_dim=3,
                                          n_states=3)
        rep = rank1_op_directions(s, (0,))
        assert all(sol.exact for sol in rep.solutions)
        assert not rep.unresolved
    for _ in range(20):
        s = random_product_set(rng, (2, 4), 4)
        rep = rank1_op_directions(s, (0,))
        assert all(sol.exact for sol in rep.solutions)
        assert not rep.unresolved


def test_diagonal_subsets_find_joint_elements(s2):
    subs = diagonal_op_subsets(s2, (1, 2))
    assert (0, 2, 4) in subs          # |00>, |02>, |11>
    assert (1, 3, 5) in subs          # |01>, |10>, |12>


def test_enumerate_charlie_pvms(s2):
    pvms = enumerate_op_pvms(s2, (2,), max_outcomes=3)
    ranks = sorted(tuple(sorted(e.rank() for e in lp.pvm.elements))
                   for lp in pvms)
    assert ranks == [(1, 1, 1), (1, 2), (1, 2), (1, 2)]
    rank1_triple = [lp for lp in pvms if len(lp.pvm) == 3][0]
    dirs = {ray_of(e).entries for e in rank1_triple.pvm.elements}
    assert dirs == {ray(0, 0, 1).entries, ray(1, -1, 0).entries,
                    ray(1, 1, 0).entries}


def test_enumerate_bob_on_type1(s1):
    pvms = enumerate_op_pvms(s1, (1,))
    keys = {frozenset(ray_of(e).entries
                      for e in lp.pvm.elements if e.rank() == 1)
            for lp in pvms}
    assert frozenset({ray(1, 0).entries, ray(0, 1).entries}) in keys


def test_enumerate_empty_for_dim2_none_found(s2):
    assert enumerate_op_pvms(s2, (1,)) == ()


def test_domino_irreducible(domino):
    verdict = is_pvm_irreducible(domino, Partition(((0,), (1,))))
    assert verdict.irreducible
    assert all(level == "complete" for level in verdict.block_levels.values())


def test_s2_reducible_via_third_party(s2):
    verdict = is_pvm_irreducible(s2, Partition.trivial(3))
    assert verdict.status == "reducible"
    assert verdict.witness is not None
    assert verdict.witness.group == (2,)


def test_two_state_never_irreducible():
    rng = random.Random(5)
    from lpcckit.generators import random_two_state_set
    s = random_two_state_set(rng, (2, 2))
    verdict = is_pvm_irreducible(s, Partition.trivial(2))
    assert verdict.status == "two-state"
    assert not verdict.irreducible


def test_annihilating_family_reported():
    # states confined to two levels of a qutrit: the third level's ray
    # annihilates everything and shows up as an annihilating family
    spec = PartySpec((3, 2))
    s = StateSet(spec, [("a", tensor(Vec([1, 0, 0]), Vec([1, 0]))),
                        ("b", tensor(Vec([0, 1, 0]), Vec([0, 1]))),
                        ("c", tensor(Vec([1, 0, 0]), Vec([0, 1])))])
    rep = rank1_op_directions(s, (0,))
    assert any(f.annihilating for f in rep.families)


def test_irrational_endgame_roots_are_unresolved(irrational_2x3):
    rep = rank1_op_directions(irrational_2x3, (1,))
    assert rep.solutions == ()
    assert rep.none_found is None
    assert [u["reason"] for u in rep.unresolved] == ["irrational endgame roots"]
    split = Partition(((0,), (1,)))
    assert is_pvm_irreducible(irrational_2x3, split).status == "unknown"
    assert lpcc_search(irrational_2x3, split).status == "unknown"


def test_runs_without_numpy():
    import os
    import subprocess
    import sys
    import lpcckit
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lpcckit.__file__)))
    code = ('import sys; sys.modules["numpy"] = None\n'
            'from lpcckit.cli import main\n'
            'sys.exit(main(["--json", "solve", "rank1", "--name", "S2", '
            '"--group", "C"]))\n')
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def _count_solves(monkeypatch) -> list:
    """Record every rank-1 solve (each one walks the support patterns);
    a call served from the result store records nothing."""
    solves = []
    real_live = opsolve._live_patterns

    def spy(cmats, k):
        solves.append(k)
        return real_live(cmats, k)

    monkeypatch.setattr(opsolve, "_live_patterns", spy)
    return solves


def test_relabelled_rescaled_copy_reuses_stored_report(monkeypatch, s2):
    rng = random.Random(11)
    states = list(s2.states)
    rng.shuffle(states)
    scalars = [Scalar(1, 1), Scalar(-2), Scalar(0, 3), Scalar(2, -1)]
    copy = StateSet(s2.spec, [(label, v.scale(rng.choice(scalars)))
                              for label, v in states])
    assert sets_equal_up_to_relabeling(copy, s2)
    original = rank1_op_directions(s2, (2,))
    solves = _count_solves(monkeypatch)
    assert rank1_op_directions(copy, (2,)) == original
    assert solves == []


def test_result_store_is_one_bounded_lru(monkeypatch):
    monkeypatch.setattr(opsolve, "_CACHE_CAP", 2)
    monkeypatch.setattr(opsolve, "_RESULTS", OrderedDict())
    solves = _count_solves(monkeypatch)
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("a", tensor(Vec([1, 0]), Vec([1, 0]))),
                        ("b", tensor(Vec([1, 0]), Vec([0, 1]))),
                        ("c", tensor(Vec([0, 1]), Vec([1, 1])))])
    on_a = rank1_op_directions(s, (0,))
    on_b = rank1_op_directions(s, (1,))
    assert len(solves) == 2
    assert rank1_op_directions(s, (0,)) == on_a     # on_b is now the oldest
    assert len(solves) == 2
    verdict = is_pvm_irreducible(s, Partition.trivial(2))
    assert verdict.status == "reducible"
    assert len(opsolve._RESULTS) == 2
    assert is_pvm_irreducible(s, Partition.trivial(2)) == verdict
    assert len(solves) == 2
    assert rank1_op_directions(s, (0,)) == on_a
    assert len(solves) == 2
    assert rank1_op_directions(s, (1,)) == on_b     # evicted, so solved again
    assert len(solves) == 3
    clear_caches()
    assert len(opsolve._RESULTS) == 0


def _assert_frozen(result) -> set[str]:
    """Assigning any field of result, or of a dataclass, tuple or mapping
    reachable from it, raises, and no list, dict or set is reachable;
    returns the names of the dataclasses met."""
    met, todo = set(), [result]
    while todo:
        x = todo.pop()
        if dataclasses.is_dataclass(x):
            met.add(type(x).__name__)
            for f in dataclasses.fields(x):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, f.name, None)
                todo.append(getattr(x, f.name))
        elif isinstance(x, Mapping):
            assert isinstance(x, MappingProxyType), type(x)
            with pytest.raises(TypeError):
                x["changed by the caller"] = None
            todo.extend(x.items())
        elif isinstance(x, tuple):
            with pytest.raises(TypeError):
                x[0] = None
            todo.extend(x)
        else:
            assert not isinstance(x, (list, dict, set)), type(x)
    return met


def _assert_frozen_and_equal_on_the_next_call(calls, stored) -> set[str]:
    """Each call returns a frozen, non-empty result; a second call returns
    the stored object itself (names in stored) or an equal result; returns
    the names of the dataclasses met."""
    met = set()
    for name, call in calls.items():
        got = call()
        assert got is not None and got != (), name
        met |= _assert_frozen(got)
        again = call()
        if name in stored:
            assert again is got, name
        elif hasattr(got, "to_json"):
            assert again.to_json() == got.to_json(), name
        else:
            assert again == got, name
    return met


def test_stored_results_are_not_shared_with_callers(s2):
    clear_caches()
    calls = {
        "rank1": lambda: rank1_op_directions(s2, (2,)),
        "pvms": lambda: enumerate_op_pvms(s2, (2,)),
    }
    met = _assert_frozen_and_equal_on_the_next_call(calls, set(calls))
    assert "SolutionReport" in met


def test_stored_verdicts_are_not_shared_with_callers(s2, domino):
    clear_caches()
    both = Partition.trivial(2)
    levels = [Vec([1, 0, 0]), Vec([0, 1, 0]), Vec([0, 0, 1])]
    grid = StateSet(PartySpec((3, 3)), [(f"{i}{j}", tensor(levels[i], levels[j]))
                                        for i in range(3) for j in range(3)])
    bits = [Vec([1, 0]), Vec([0, 1])]
    nogo = StateSet(PartySpec((2, 2, 2)), [(f"{a}{a}{a}", tensor(*[bits[a]] * 3))
                                           for a in (0, 1)])
    witness = activation.classify(s2, joint_pairs=[(1, 2)]).witness
    calls = {
        "irreducibility": lambda: is_pvm_irreducible(domino, both),
        "certificate": lambda: lpcc_search(domino, both, depth=2),
        "tree": lambda: lpcc_search(grid, both, depth=2),
        "redundancy": lambda: activation._cached_redundancy(domino),
        "activation": lambda: activation.verify_activation(
            s2, witness.first, witness.partition, assume_distinguishable="given"),
        "class": lambda: activation.classify(s2, joint_pairs=[(1, 2)]),
        "m-activability": lambda: activation.is_m_activable(s2, 2),
        "dim-2 no-go": lambda: activation.check_dim2_nogo(nogo),
    }
    stored = {"irreducibility", "certificate", "tree", "redundancy"}
    met = _assert_frozen_and_equal_on_the_next_call(calls, stored)
    assert {"IrreducibilityVerdict", "Verdict", "BranchReport",
            "ActivationReport", "LocalityClass", "MActivabilityVerdict",
            "Dim2NogoReport", "Node", "RedundancyVerdict"} <= met


def _pruned_matches_unpruned(monkeypatch, s, group):
    """Solve with operator-space pruning and with every pattern open (the
    reference); the reports must agree, and every pattern whose case split
    ends in anything but a contradiction must have been left open."""
    clear_caches()
    pruned = rank1_op_directions(s, group)
    real_live, real_recurse = opsolve._live_patterns, opsolve._recurse
    walked = {}
    top_outcomes = []

    def every_pattern(cmats, k):
        walked["live"], walked["k"] = real_live(cmats, k), k
        return set(opsolve._support_patterns(k))

    def recurse(cmats, k, lin_rows):
        out = real_recurse(cmats, k, lin_rows)
        if not lin_rows:                  # one top-level call per pattern
            top_outcomes.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(opsolve, "_live_patterns", every_pattern)
        m.setattr(opsolve, "_recurse", recurse)
        clear_caches()
        reference = rank1_op_directions(s, group)
    clear_caches()
    assert pruned.to_json() == reference.to_json()
    assert pruned.unresolved == reference.unresolved
    if walked:
        patterns = list(opsolve._support_patterns(walked["k"]))
        assert len(top_outcomes) == len(patterns)
        for pattern, out in zip(patterns, top_outcomes):
            if any(tag != "contradiction" for tag, _ in out):
                assert pattern in walked["live"], pattern
    return pruned


def test_pruning_matches_unpruned_on_named_groups(monkeypatch, s1, s2, domino):
    for s in (domino, s1, s2):
        n = s.spec.n_parties
        for size in range(1, n):
            for group in itertools.combinations(range(n), size):
                _pruned_matches_unpruned(monkeypatch, s, group)


def test_pruning_matches_unpruned_on_random_sets(monkeypatch):
    rng = random.Random(2024)
    for _ in range(30):
        s, theta = planted_direction_set(rng, group_dim=3, n_states=3)
        rep = _pruned_matches_unpruned(monkeypatch, s, (0,))
        assert rep.contains_ray(theta)
    for i in range(20):
        dims, group = (((3, 3), (0,)), ((3, 2, 2), (1, 2)))[i % 2]
        s = random_product_set(rng, dims, 4)
        _pruned_matches_unpruned(monkeypatch, s, group)


def test_pruning_closes_most_domino_ab_patterns(monkeypatch, domino):
    real_live = opsolve._live_patterns
    sizes = []

    def spy(cmats, k):
        live = real_live(cmats, k)
        sizes.append((len(live), 2 ** k - 1))
        return live

    monkeypatch.setattr(opsolve, "_live_patterns", spy)
    clear_caches()
    rep = rank1_op_directions(domino, (0, 1))
    clear_caches()
    assert sizes == [(31, 511)]
    assert rep.none_found is None and not rep.unresolved


def _set_3x2():
    """{|0>|0>, |1>|1>, |0>|1>} in 3x2: A's support is levels 0 and 1."""
    return StateSet(PartySpec((3, 2)), [
        ("a", tensor(Vec([1, 0, 0]), Vec([1, 0]))),
        ("b", tensor(Vec([0, 1, 0]), Vec([0, 1]))),
        ("c", tensor(Vec([1, 0, 0]), Vec([0, 1])))])


def _restated_pvms(s, group, **kwargs):
    """Reference for a compressed group: restate the group as a two-party
    set (support coordinates x rest), enumerate its PVMs there, and
    scatter each back, appending the off-support complement."""
    coords = group_support(s, group)[2]
    idx = GroupIndexer(s.spec.dims, group)
    d = idx.group_dim
    small = StateSet(PartySpec((len(coords), idx.rest_dim)), [
        (label, Vec([v.entries[idx.flat(a, r)]
                     for a in coords for r in range(idx.rest_dim)]))
        for label, v in s.states])

    out = []
    for lp in enumerate_op_pvms(small, (0,), **kwargs):
        lifted = []
        for e in lp.pvm.elements:
            rows = [[ZERO] * d for _ in range(d)]
            for i, a in enumerate(coords):
                for j, b in enumerate(coords):
                    rows[a][b] = e.mat.entries[i][j]
            lifted.append(Projector(Mat(tuple(tuple(r) for r in rows)),
                                    _validated=True))
        rest = complement(lifted, d)
        if not rest.is_zero():
            lifted.append(rest)
        out.append(LocalPVM(PVM(lifted), group))
    return out


def _pvm_cells(enumerate_fn, s, group, kwargs):
    """Every PVM's group and element matrices, in order; or the error the
    enumeration raised."""
    clear_caches()
    try:
        pvms = enumerate_fn(s, group, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [(lp.group, [e.mat.entries for e in lp.pvm.elements])
            for lp in pvms]


def _compressed_groups(s):
    n = s.spec.n_parties
    for size in range(1, n):
        for group in itertools.combinations(range(n), size):
            if (len(group_support(s, group)[2])
                    < GroupIndexer(s.spec.dims, group).group_dim):
                yield group


def _random_compressed_sets():
    # the first 20 seeds of this sweep whose support compresses on some group
    for seed in (57, 98, 107, 143, 182, 292, 353, 357, 358, 401, 442, 622,
                 641, 754, 774, 899, 1006, 1056, 1063, 1131):
        rng = random.Random(seed)
        dims = ((3, 2), (3, 3), (4, 2), (3, 2, 2), (4, 3))[seed % 5]
        yield random_product_set(rng, dims, rng.randrange(3, 6))


def test_compressed_pvms_match_restated_reference(s1, s2):
    sets = [_set_3x2()]
    for s, group, text in ((s1, (1,), "0;1"), (s2, (2,), "2;0,1"),
                           (s2, (2,), "0-1;0+1,2"), (s2, (2,), "0+1;0-1,2")):
        lp = LocalPVM(parse_pvm(text, [s.spec.dims[p] for p in group]), group)
        sets += [br.states for _, br in sorted(apply(s, lp).items())
                 if br.states is not None]
    sets += list(_random_compressed_sets())
    variants = ({}, {"max_outcomes": 2}, {"max_pvms": 3})
    problems = nonempty = 0
    for s in sets:
        for group in _compressed_groups(s):
            problems += 1
            for kwargs in variants:
                got = _pvm_cells(enumerate_op_pvms, s, group, kwargs)
                assert got == _pvm_cells(_restated_pvms, s, group, kwargs), \
                    (s.provenance, group, kwargs)
                nonempty += bool(got) and got[0] != "ValueError"
    clear_caches()
    assert problems == 40 and nonempty >= 78


def test_compressed_pvms_reuse_the_stored_rank1_report():
    s = _set_3x2()
    clear_caches()
    report = rank1_op_directions(s, (0,))
    assert any(f.annihilating for f in report.families)
    assert enumerate_op_pvms(s, (0,))
    assert sum(1 for key in opsolve._RESULTS if key[0] == "rank1") == 1
    clear_caches()


def _scanned_subsets(s, group, max_support=12):
    """Reference: the subset scan diagonal_op_subsets ran before it walked
    the 0/1 points of L restricted to the diagonal (kept verbatim, on the
    exact pair matrices)."""
    group = tuple(group)
    cmats = _pair_matrices(s, group).values()
    occupied = sorted({a for u in group_support(s, group)[0]
                       for a in u.support()})
    if len(occupied) > max_support:
        return []
    group_dim = GroupIndexer(s.spec.dims, group).group_dim
    diags = [[c.entries[a][a] for a in occupied] for c in cmats]
    out = []
    for size in range(1, len(occupied) + 1):
        for pick in itertools.combinations(range(len(occupied)), size):
            ok = True
            for dg in diags:
                acc = ZERO
                for a in pick:
                    acc = acc + dg[a]
                if not acc.is_zero():
                    ok = False
                    break
            if ok:
                sub = tuple(occupied[a] for a in pick)
                if len(sub) < group_dim:
                    out.append(sub)
    return out


def _proper_groups(s):
    n = s.spec.n_parties
    for size in range(1, n):
        yield from itertools.combinations(range(n), size)


def test_diagonal_subsets_match_scanned_reference(s1, s2, domino, union_s):
    problems = [(s, g) for s in (domino, s1, s2) for g in _proper_groups(s)]
    problems += [(union_s, (p,)) for p in range(union_s.spec.n_parties)]
    for s, group, text in ((s1, (1,), "0;1"), (s2, (2,), "2;0,1"),
                           (s2, (2,), "0-1;0+1,2"), (s2, (2,), "0+1;0-1,2")):
        lp = LocalPVM(parse_pvm(text, [s.spec.dims[p] for p in group]), group)
        problems += [(br.states, g) for _, br in sorted(apply(s, lp).items())
                     if br.states is not None for g in _proper_groups(br.states)]
    rng = random.Random(7)
    for i in range(40):
        if i % 2:
            dims, group = (((3, 3), (0,)), ((3, 2, 2), (1, 2)),
                           ((2, 2, 2), (0, 1)))[i % 3]
            problems.append((random_product_set(rng, dims, 4), group))
        else:
            s, _theta = planted_direction_set(rng, group_dim=3, n_states=3)
            problems.append((s, (0,)))
    found = 0
    for s, group in problems:
        d = GroupIndexer(s.spec.dims, group).group_dim
        assert len({a for u in group_support(s, group)[0]
                    for a in u.support()}) <= 12
        got = diagonal_op_subsets(s, group)
        assert got == _scanned_subsets(s, group), (s.provenance, group)
        for sub in got:
            p = Projector.diagonal(sub, d)
            assert preserves_orthogonality(
                s, LocalPVM(PVM([p, complement([p], p.dim)]), group))
        found += len(got)
    assert len(problems) == 105 and found >= 700


def test_diagonal_subsets_have_no_index_cap():
    # 13 x 2 computational product set {|a>|0>}: every proper nonempty
    # subset of A's levels is a diagonal orthogonality-preserving projector
    s = StateSet(PartySpec((13, 2)), [
        (str(a), tensor(Vec([int(b == a) for b in range(13)]), Vec([1, 0])))
        for a in range(13)])
    subs = diagonal_op_subsets(s, (0,))
    assert len(subs) == 2 ** 13 - 2
    assert subs[:2] == [(0,), (1,)] and subs[-1] == tuple(range(1, 13))
    verdict = is_pvm_irreducible(s, Partition(((0,), (1,))))
    assert verdict.status == "reducible"
    assert verdict.witness.group == (0,)


def test_irreducibility_stops_at_the_first_diagonal_witness():
    # 16 x 2 {|a>|0>} has 2^16 - 2 diagonal subsets; they are walked
    # lazily, so the first witness comes without listing the rest
    s = StateSet(PartySpec((16, 2)), [
        (str(a), tensor(Vec([int(b == a) for b in range(16)]), Vec([1, 0])))
        for a in range(16)])
    walk = opsolve._diagonal_subsets(s, (0,))
    assert 0 < len(next(walk)) < 16
    verdict = is_pvm_irreducible(s, Partition(((0,), (1,))))
    assert verdict.status == "reducible"
    assert verdict.witness.group == (0,)


def test_assembled_pvm_failing_reverification_is_a_self_check(monkeypatch, s2):
    # a ray outside L handed to the PVM assembly must not be dropped
    # silently: the re-verification raises, and the CLI exits 70
    from lpcckit.cli import main
    from lpcckit.opsolve import RaySolution, SolutionReport

    def broken(s, group, **kwargs):
        return SolutionReport(group=tuple(group),
                              solutions=[RaySolution(vector=ray(1, 2, 0))])

    monkeypatch.setattr(opsolve, "rank1_op_directions", broken)
    clear_caches()
    with pytest.raises(AssertionError, match="re-verification"):
        enumerate_op_pvms(s2, (2,))
    assert main(["--json", "solve", "pvms", "--name", "S2", "--group", "C"]) == 70
    clear_caches()


def _reference_reduced_form(c: Mat, basis: list[Vec]) -> Mat:
    """The per-entry reduced form the solver used before it formed C N^dagger
    (kept verbatim as the reference)."""
    f = len(basis)
    rows = []
    for kk in range(f):
        row = []
        nk = basis[kk]
        for ll in range(f):
            nl = basis[ll]
            acc = ZERO
            for a, na in enumerate(nk.entries):
                if na.is_zero():
                    continue
                crow = c.entries[a]
                for b, nb in enumerate(nl.entries):
                    if not nb.is_zero() and not crow[b].is_zero():
                        acc = acc + na * crow[b] * nb.conj()
            row.append(acc)
        rows.append(tuple(row))
    return Mat(rows)


def _den(mats) -> int:
    """The lcm of the matrices' entry denominators."""
    return lcm(*(q.denominator for m in mats for row in m.entries for x in row
                 for q in (x.re, x.im)))


def _rows_over(m: Mat, den: int) -> tuple:
    """m's nonzero rows as the case split takes them, (a, ((b, re, im),
    ...)): the integer numerators over den of each row's nonzero entries."""
    return tuple((a, nz) for a, row in enumerate(m.entries)
                 if (nz := tuple((b, int(x.re * den), int(x.im * den))
                                 for b, x in enumerate(row) if not x.is_zero())))


def _restrict(c: Mat, coords) -> Mat:
    return Mat([[c.entries[a][b] for b in coords] for a in coords])


def _top_level_solves(monkeypatch, s, group):
    """(restricted pair matrices as built, integer rows as handed to
    _recurse) for every live pattern of the group, the pair forms' shared
    denominator lcm(F_i)^2, and every reduced form the solve computed
    recorded as (exact pair matrix, basis, basis denominator, integer
    form)."""
    real_recurse, real_reduced = opsolve._recurse, opsolve._reduced_form
    real_read = opsolve._basis_numerators
    handed, reads, forms = [], [], []

    def recurse(cmats, k, lin_rows):
        if not lin_rows:                  # one top-level call per pattern
            handed.append(cmats)
        return real_recurse(cmats, k, lin_rows)

    def read(basis):
        # a call's reduced forms all follow its one basis read
        out = real_read(basis)
        reads.append((basis, out[0]))
        return out

    def reduced(c, nums):
        out = real_reduced(c, nums)
        forms.append((c, reads[-1], out))
        return out

    with monkeypatch.context() as m:
        m.setattr(opsolve, "_recurse", recurse)
        m.setattr(opsolve, "_basis_numerators", read)
        m.setattr(opsolve, "_reduced_form", reduced)
        clear_caches()
        rank1_op_directions(s, group)
    clear_caches()
    coords = group_support(s, group)[2]
    cm_small = [_restrict(c, coords) for c in _pair_matrices(s, group).values()]
    den = _pair_den(s, group)
    live = opsolve._live_patterns([_rows_over(m, den) for m in cm_small],
                                  len(coords))
    patterns = [p for p in opsolve._support_patterns(len(coords)) if p in live]
    assert len(handed) == len(patterns)
    built = [[_restrict(c, p) for c in cm_small] for p in patterns]
    exact = {_rows_over(m, den): m for ms in built for m in ms}
    forms = [(exact[c], *read, out) for c, read, out in forms]
    return list(zip(built, handed)), den, forms


def _named_proper_groups(s1, s2, domino):
    return [(s, g) for s in (domino, s1, s2) for g in _proper_groups(s)]


def test_reduced_form_matches_reference_on_named_solves(monkeypatch, s1, s2,
                                                         domino):
    count = 0
    for s, group in _named_proper_groups(s1, s2, domino):
        _, c_den, forms = _top_level_solves(monkeypatch, s, group)
        for c, basis, den, got in forms:
            assert got == _scaled_parts(_reference_reduced_form(c, basis),
                                        c_den * den * den)
        count += len(forms)
    assert count > 1000


def _scaled_parts(m: Mat, scale: int) -> tuple[list, list]:
    """scale * m as the engine's flat real and imaginary parts."""
    return ([x.re * scale for row in m.entries for x in row],
            [x.im * scale for row in m.entries for x in row])


def _random_gaussian_rational(rng, zero_share):
    if rng.random() < zero_share:
        return ZERO
    den = rng.choice((1, 1, 2, 3, 6, 35))
    return Scalar(Fraction(rng.randint(-9, 9), den),
                  Fraction(rng.randint(-9, 9), rng.choice((1, den))))


def test_reduced_form_matches_reference_on_random_inputs():
    rng = random.Random(10)
    for _ in range(300):
        k, f = rng.randint(1, 6), rng.randint(1, 4)
        zero_share = rng.choice((0.0, 0.3, 0.6, 0.9, 1.0))
        c = Mat([[_random_gaussian_rational(rng, zero_share) for _ in range(k)]
                 for _ in range(k)])
        basis = [Vec([_random_gaussian_rational(rng, zero_share)
                      for _ in range(k)]) for _ in range(f)]
        rows = _rows_over(c, _den([c]))
        den, nums = opsolve._basis_numerators(basis)
        assert (opsolve._reduced_form(rows, nums)
                == _scaled_parts(_reference_reduced_form(c, basis), _den([c]) * den * den))


def test_recurse_gets_each_distinct_nonzero_pair_matrix_once(monkeypatch, s1,
                                                            s2, domino):
    dropped = 0
    for s, group in _named_proper_groups(s1, s2, domino):
        solves, den, _ = _top_level_solves(monkeypatch, s, group)
        for built, handed in solves:
            kept = [m for i, m in enumerate(built)
                    if not m.is_zero() and m not in built[:i]]
            assert handed == [_rows_over(m, den) for m in kept]
            k = built[0].rows
            assert (opsolve._recurse([_rows_over(m, den) for m in built], k, [])
                    == opsolve._recurse(handed, k, []))
            dropped += len(built) - len(handed)
    assert dropped > 0


def test_case_split_drops_one_free_parameter_per_level(monkeypatch, s1, s2,
                                                      domino):
    # the invariant that makes a depth bound on _recurse unnecessary: a
    # call at nesting depth t of a k-coordinate pattern has k - t free
    # parameters, never 0, and only calls with two or more of them recurse
    real_recurse = opsolve._recurse
    calls, stack = [], []

    def recurse(cmats, k, lin_rows):
        f = len(nullspace_with_free(Mat(lin_rows or [[ZERO] * k]))[0])
        assert f == (stack[-1]["f"] - 1 if stack else k)
        if stack:
            stack[-1]["recursed"] = True
        call = {"k": k, "depth": len(stack), "f": f, "recursed": False}
        calls.append(call)
        stack.append(call)
        try:
            return real_recurse(cmats, k, lin_rows)
        finally:
            stack.pop()

    problems = _named_proper_groups(s1, s2, domino)
    rng = random.Random(99)
    problems += [(planted_direction_set(rng, group_dim=gd, rest_dim=3,
                                        n_states=3)[0], (0,))
                 for gd in (3, 4) for _ in range(15)]
    monkeypatch.setattr(opsolve, "_recurse", recurse)
    for s, group in problems:
        clear_caches()
        rank1_op_directions(s, group)
    clear_caches()
    for call in calls:
        assert call["f"] == call["k"] - call["depth"] >= 1
        if call["recursed"]:
            assert call["depth"] <= call["k"] - 2
    assert max(call["depth"] for call in calls) >= 3


def _affine_rank(rows, width):
    return rank(Mat([r[:width] for r in rows])) if rows else 0


def _solves(rows, x, y):
    return all(a * x + b * y + c == 0 for a, b, c in rows)


def test_solve_affine_points_satisfy_every_row():
    # parallel and duplicate rows included: the two rows the solve divides
    # by are always independent, and what it returns solves the system
    rng = random.Random(11)
    seen = Counter()
    for _ in range(3000):
        rows = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if rows and roll < 0.25:
                rows.append(rng.choice(rows))
            elif rows and roll < 0.5:
                a, b, _c = rng.choice(rows)
                m = rng.choice((-2, -1, 2, 3))
                rows.append((m * a, m * b, rng.randint(-3, 3)))
            else:
                rows.append(tuple(rng.randint(-2, 2) for _ in range(3)))
        sol = opsolve._solve_affine(rows)
        if isinstance(sol, tuple):
            seen["point"] += 1
            assert _solves(rows, *sol)
            assert _affine_rank(rows, 2) == 2
        elif isinstance(sol, list):
            seen["line"] += 1
            (bx, by), (dx, dy) = sol
            assert (dx, dy) != (0, 0)
            assert all(_solves(rows, bx + t * dx, by + t * dy) for t in (0, 1, -3))
        elif sol == "plane":
            seen["plane"] += 1
            assert all(r == (0, 0, 0) for r in rows)
        else:
            assert sol == "inconsistent"
            seen["inconsistent"] += 1
            assert _affine_rank(rows, 2) < _affine_rank(rows, 3)
    assert min(seen[kind] for kind in ("point", "line", "plane",
                                        "inconsistent")) >= 50


def test_empty_state_list_is_refused_on_the_group():
    # the working support is empty only when there are no states at all;
    # such a set is refused where it is built, before any group is read
    with pytest.raises(ValueError, match="no states"):
        StateSet(PartySpec((2, 2)), [])


def _solve_affine_reference(affine):
    """`_solve_affine` as a two-unknown elimination, before it was one
    rref: a point (x, y), 'line', 'plane' or 'inconsistent'."""
    rows = list(affine)
    if not rows:
        return "plane"
    r1 = next((r for r in rows if r[0] != 0 or r[1] != 0), None)
    if r1 is None:
        return "inconsistent" if any(r[2] != 0 for r in rows) else "plane"
    rest = []
    for r in rows:
        if r is r1:
            continue
        if r1[0] != 0:
            f = Fraction(r[0], r1[0])
        elif r[0] != 0:
            rest.append(r)
            continue
        else:
            f = Fraction(r[1], r1[1])
        rr = tuple(r[i] - f * r1[i] for i in range(3))
        if rr[0] != 0 or rr[1] != 0:
            rest.append(rr)
        elif rr[2] != 0:
            return "inconsistent"
    r2 = next((r for r in rest if r[0] != 0 or r[1] != 0), None)
    if r2 is None:
        return "line"
    det = r1[0] * r2[1] - r1[1] * r2[0]
    x = Fraction(-r1[2] * r2[1] + r1[1] * r2[2], det)
    y = Fraction(-r1[0] * r2[2] + r2[0] * r1[2], det)
    if any(r[0] * x + r[1] * y + r[2] != 0 for r in affine):
        return "inconsistent"
    return (x, y)


def _affine_line_reference(affine):
    """The line's (base, direction) as `_affine_line` gave it: x is the
    parameter when the first nonzero row has a y coefficient."""
    a, b, c = next(row for row in affine if row[0] != 0 or row[1] != 0)
    if b != 0:
        return (Fraction(0), Fraction(-c, b)), (Fraction(1), Fraction(-a, b))
    return (Fraction(-c, a), Fraction(0)), (Fraction(0), Fraction(1))


def test_solve_affine_matches_restated_elimination():
    # rational coefficients, as the endgame builds them, with repeated
    # and proportional rows
    rng = random.Random(29)
    seen = Counter()
    for _ in range(3000):
        rows = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if rows and roll < 0.3:
                a, b, c = rng.choice(rows)
                m = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                rows.append((m * a, m * b, m * c if roll < 0.2 else c + 1))
            else:
                rows.append(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                  for _ in range(3)))
        old = _solve_affine_reference(rows)
        new = opsolve._solve_affine(rows)
        if old == "line":
            assert new == list(_affine_line_reference(rows))
        else:
            assert new == old
        seen[old if isinstance(old, str) else "point"] += 1
    assert min(seen[kind] for kind in ("point", "line", "plane",
                                        "inconsistent")) >= 50


def _contains_reference(fam, theta):
    """`Family.contains` for a real-line or circle family as it read
    before `_ray_as_combo` was one nullspace: a tau candidate from every
    coordinate pair, kept when base + tau*step is proportional to theta."""
    ray = theta.normalized_leading()
    for i, j in itertools.combinations(range(theta.dim), 2):
        a1, b1, t1 = fam.base[i], fam.step[i], theta[i]
        a2, b2, t2 = fam.base[j], fam.step[j], theta[j]
        lin = t2 * b1 - t1 * b2
        if lin.is_zero():
            continue
        tau = (t1 * a2 - t2 * a1) / lin
        cand = fam.base + fam.step.scale(tau)
        if cand.is_zero() or cand.normalized_leading() != ray:
            continue
        if fam.kind == "real-line" and tau.is_real():
            return True
        if fam.kind == "circle" and (tau - fam.center).norm2() == fam.radius2:
            return True
    return False


def test_family_contains_matches_restated_reference():
    rng = random.Random(41)
    gauss = lambda: Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
    units = (Scalar(1), Scalar(0, -1), Scalar(Fraction(3, 5), Fraction(4, 5)),
             Scalar(Fraction(-5, 13), Fraction(12, 13)))
    seen = Counter()
    for _ in range(300):
        dim = rng.randint(2, 4)
        base, step = (Vec([gauss() for _ in range(dim)]) for _ in range(2))
        if rank(Mat([base.entries, step.entries])) < 2:
            continue
        w = gauss()
        if w.is_zero():
            w = Scalar(1)
        if rng.random() < 0.5:
            fam = opsolve.Family(kind="real-line", base=base, step=step)
            taus = (Scalar(rng.randint(-3, 3)), w, Scalar(0, 1) * w)
        else:
            center = gauss() * Scalar(Fraction(1, 2))
            fam = opsolve.Family(kind="circle", base=base, step=step,
                                 center=center, radius2=w.norm2())
            taus = (center + w * rng.choice(units), center + w + w,
                    center)
        thetas = [base + step.scale(t) for t in taus]
        thetas += [step, base, Vec([gauss() for _ in range(dim)])]
        for theta in thetas:
            if theta.is_zero():
                continue
            theta = theta.scale(gauss() + Scalar(3))
            got = fam.contains(theta)
            assert got == _contains_reference(fam, theta)
            seen[fam.kind, got] += 1
    assert min(seen[kind, got] for kind in ("real-line", "circle")
               for got in (True, False)) >= 50


def test_dedupe_keeps_real_lines_that_differ_by_a_phase():
    # {(1, s)} and {(1, i s)} for real s: only the second holds (1, i)
    i = Scalar(0, 1)
    a = opsolve.Family(kind="real-line", base=Vec([1, 0]), step=Vec([0, 1]))
    b = opsolve.Family(kind="real-line", base=Vec([1, 0]), step=Vec([0, i]))
    kept = opsolve._dedupe_families([a, b])
    assert kept == [a, b]
    assert [f.contains(Vec([1, i])) for f in kept] == [False, True]


# ---------------------------------------------------------------------------
# per-element decisions against the assembly-and-filter reference

def _parent_lift_pvm(pvm: PVM, coords: tuple[int, ...], d: int) -> PVM:
    """Reference: the lift that completed every lifted PVM by a dense
    re-sum (kept verbatim)."""
    from lpcckit.exact import _wrap
    if len(coords) == d:
        return pvm
    lifted: list[Projector] = []
    for e in pvm.elements:
        rows = [[ZERO] * d for _ in range(d)]
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                rows[a][b] = e.mat.entries[i][j]
        lifted.append(Projector(_wrap(Mat, tuple(map(tuple, rows))),
                                _validated=True))
    return PVM.completed(lifted, d)


def _assembled_reference(s, group, max_outcomes=None, *, max_pvms=64):
    """Reference: the enumeration that lifted, filtered and re-verified
    every assembly (kept verbatim apart from the store, which it skips,
    the solver inputs, which it takes from the current builders, and the
    projector orthogonality test, a local copy of the method it called)."""
    from lpcckit.exact import sort_keys
    from lpcckit.indexing import total_dim
    from lpcckit.measurements import acts_as_scalar_on
    from lpcckit.opsolve import _by_size, _diagonal_subsets
    from lpcckit.statesets import require_orthogonal

    def orthogonal_to(self, other: "Projector") -> bool:
        """PQ = 0, tested as tr(PQ) = sum P_ij conj(Q_ij) = 0: for
        projectors that sum is ||QP||_F^2, zero exactly when QP = 0."""
        acc = ZERO
        for row_p, row_q in zip(self.mat.entries, other.mat.entries):
            for x, y in zip(row_p, row_q):
                if (x._a or x._b) and (y._a or y._b):
                    acc = acc + x * y.conj()
        return acc.is_zero()

    group = tuple(group)
    require_orthogonal(s)
    report = rank1_op_directions(s, group)
    support, support_rank, coords = group_support(s, group)
    k = len(coords)
    d = total_dim([s.spec.dims[p] for p in group])
    if max_outcomes is not None and max_outcomes < 2:
        raise ValueError("max_outcomes must be at least 2")
    if support_rank < 2:
        return ()                   # a one-dimensional support is inert
    cap = max_outcomes if max_outcomes is not None else k

    # every candidate lies in L already: solver rays were re-verified,
    # family members solve every pair form, diagonals are points of L
    at = {a: i for i, a in enumerate(coords)}
    candidates = [Projector.from_ray(Vec([theta.entries[a] for a in coords]))
                  for theta in report.nontrivial_directions()]
    diagonals = sorted(_diagonal_subsets(s, group), key=_by_size)
    candidates += [Projector.diagonal([at[a] for a in sub], k) for sub in diagonals]
    pool: list[Projector] = []
    pooled: set = set()
    for p in candidates:
        if not (p.is_zero() or p.is_identity() or p.mat.entries in pooled):
            pooled.add(p.mat.entries)
            pool.append(p)

    ranks = [p.rank() for p in pool]
    # assembled PVMs in emit order, keyed by their element matrices
    assemblies: dict[frozenset, PVM] = {}

    def emit(pvm: PVM):
        assemblies.setdefault(frozenset(e.mat.entries for e in pvm), pvm)

    # two-outcome completions first, so every pool element is represented
    # even when the deeper search hits its budget
    for p in pool:
        emit(PVM.completed([p], k))

    def extend(chosen: list[Projector], total_rank: int, start: int):
        if len(assemblies) >= max_pvms:
            return
        # the completion adds an element exactly when the rank falls short
        if chosen and len(chosen) + (total_rank < k) <= cap:
            emit(PVM.completed(chosen, k))
        if len(chosen) >= cap:
            return
        for i in range(start, len(pool)):
            p = pool[i]
            if total_rank + ranks[i] > k:
                continue
            if all(orthogonal_to(p, q) for q in chosen):
                extend(chosen + [p], total_rank + ranks[i], i + 1)

    extend([], 0, 0)

    # is_trivial_for_set, on the support built above; every assembly holds
    # a pool element, which is neither 0 nor 1, so none is a trivial PVM
    kept = []
    for pvm in assemblies.values():
        lp = LocalPVM(_parent_lift_pvm(pvm, coords, d), group)
        if all(acts_as_scalar_on(e, support) for e in lp.pvm.elements):
            continue
        if not preserves_orthogonality(s, lp):
            raise AssertionError("assembled PVM failed re-verification")
        kept.append((pvm, lp))
    # order by outcome count, then by the sorted element matrices
    keys = iter(sort_keys([e.mat for pvm, _ in kept for e in pvm.elements]))
    keyed = [((len(pvm), tuple(sorted(next(keys) for _ in pvm.elements))), lp)
             for pvm, lp in kept]
    keyed.sort(key=lambda t: t[0])
    return tuple(lp for _, lp in keyed)


def _per_pvm_survivals(s, lp):
    """Reference: the survivor count of one PVM, every element counted
    (kept verbatim)."""
    from lpcckit.indexing import indexer
    from lpcckit.measurements import _image, _int_rows
    lp.validate(s.spec)
    idx = indexer(s.spec.dims, lp.group)
    _, mats = _int_rows(lp)
    slices = [idx.int_slices(v)[1] for v in s.vectors()]
    return sum(1 for rows in mats for sl in slices
               if any(_image(rows, u) for u in sl.values()))


def _element_inputs(s1, s2, domino, union_s):
    """(set, group) for the differential: each party of the three branch
    sets of theorem 5's coarse measurement on UnionS (the groups the
    replay enumerates; a pair there is 64-dimensional), every proper group
    of Domino, S1, S2 and 20 seeded random product sets, and the compressed
    groups of the compressed branch sets."""
    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    for _, br in sorted(apply(union_s, coarse).items()):
        for party in range(3):
            yield br.states, (party,)
    sets = [_set_3x2()]
    for s, group, text in ((s1, (1,), "0;1"), (s2, (2,), "2;0,1"),
                           (s2, (2,), "0-1;0+1,2"), (s2, (2,), "0+1;0-1,2")):
        lp = LocalPVM(parse_pvm(text, [s.spec.dims[p] for p in group]), group)
        sets += [br.states for _, br in sorted(apply(s, lp).items())
                 if br.states is not None]
    for s in (domino, s1, s2, *_random_compressed_sets()):
        n = s.spec.n_parties
        for size in range(1, n):
            for group in itertools.combinations(range(n), size):
                yield s, group
    for s in sets:
        for group in _compressed_groups(s):
            yield s, group


def _outcome(fn, s, group, kwargs):
    """Every PVM's group and element matrices, in order; or the error."""
    try:
        pvms = fn(s, group, **kwargs)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return [(lp.group, [e.mat.entries for e in lp.pvm.elements]) for lp in pvms]


def test_element_decisions_match_assembly_reference(s1, s2, domino, union_s):
    variants = ({}, {"max_outcomes": 2}, {"max_outcomes": 3},
                {"max_pvms": 8}, {"max_pvms": 32})
    clear_caches()
    cases = capped = counted = 0
    for s, group in _element_inputs(s1, s2, domino, union_s):
        cases += 1
        for kwargs in variants:
            want = _outcome(_assembled_reference, s, group, kwargs)
            assert _outcome(enumerate_op_pvms, s, group, kwargs) == want, \
                (s.provenance, group, kwargs)
            if isinstance(want, tuple):
                continue
            pvms = enumerate_op_pvms(s, group, **kwargs)
            assert branch_survivals(s, pvms) == [_per_pvm_survivals(s, lp)
                                                 for lp in pvms]
            counted += len(pvms)
            capped += not kwargs and len(pvms) >= 64
    clear_caches()
    # the cap binds on 9 groups, S1 AC among them (73 PVMs)
    assert (cases, capped, counted) == (97, 9, 5831)


def test_each_pool_element_is_reverified_at_most_once(monkeypatch, s2):
    # S2 BC's pool holds 42 elements, 21 complementary pairs; the 64
    # assemblies used to be re-verified one by one
    clear_caches()
    rank1_op_directions(s2, (1, 2))
    checked = []
    real = opsolve.preserves_orthogonality
    monkeypatch.setattr(opsolve, "preserves_orthogonality",
                        lambda s, lp: checked.append(lp) or real(s, lp))
    assert len(enumerate_op_pvms(s2, (1, 2))) == 64
    assert 0 < len(checked) <= 42
    assert all(len(lp.pvm) == 2 for lp in checked)
    clear_caches()


def test_only_kept_pvms_are_completed(monkeypatch, s1, s2):
    # the assembly runs on integer keys; a completion is built as a matrix
    # once per kept PVM, not once per visited family
    from lpcckit import measurements
    real = measurements.complement
    for s, group in ((s2, (1, 2)), (s1, (0, 2))):
        clear_caches()
        rank1_op_directions(s, group)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(measurements, "complement",
                      lambda elements, dim: calls.append(dim)
                      or real(elements, dim))
            pvms = enumerate_op_pvms(s, group)
        assert 0 < len(calls) <= len(pvms)
    clear_caches()


def test_bad_max_outcomes_is_refused_before_any_solve(monkeypatch, domino):
    clear_caches()
    calls = []
    real = opsolve._live_patterns
    monkeypatch.setattr(opsolve, "_live_patterns",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ValueError, match="max_outcomes must be at least 2"):
        enumerate_op_pvms(domino, (0, 1), max_outcomes=1)
    assert calls == []
    clear_caches()


def test_lift_appends_one_off_support_outcome(monkeypatch, union_s):
    # every PVM an enumeration lifts equals the dense completion of the
    # previous lift, element by element and in order, on the compressed
    # groups of theorem 3's residues and of theorem 5's UnionS branches
    # (single parties); the off-support outcome is one object per call
    from lpcckit.theorems import _type2_case_residue
    lifts = []
    real = opsolve._lift_pvm

    def spy(pvm, coords, off):
        lifts.append((pvm, coords, off, real(pvm, coords, off)))
        return lifts[-1][-1]

    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    problems = [(br.states, (p,)) for _, br in sorted(apply(union_s, coarse).items())
                for p in range(3)]
    for text in ("2;0,1", "0-1;0+1,2", "0+1;0-1,2"):
        branch = _type2_case_residue(text, 1)
        problems += [(branch, g) for g in _compressed_groups(branch)]
    monkeypatch.setattr(opsolve, "_lift_pvm", spy)
    clear_caches()
    offs = set()
    for s, group in problems:
        start = len(lifts)
        enumerate_op_pvms(s, group)
        offs |= {id(off) for _, _, off, _ in lifts[start:]}
        assert len({id(off) for _, _, off, _ in lifts[start:]}) <= 1
    clear_caches()
    for pvm, coords, off, got in lifts:
        want = _parent_lift_pvm(pvm, coords, off.dim)
        assert ([e.mat.entries for e in got.elements]
                == [e.mat.entries for e in want.elements])
        assert got.dim == want.dim
    # UnionS: three single parties with 4 PVMs each; residue 1: C with 1
    # and BC with 20 (the other residues compress on no group)
    assert (len(offs), len(lifts)) == (5, 33)
