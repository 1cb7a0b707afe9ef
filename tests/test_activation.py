"""Activation verification, domino recognition, locality classification."""

import random

import pytest

from lpcckit.activation import (ActivationError, _structural_strong_local,
                                classify, check_dim2_nogo, domino_match,
                                is_m_activable, verify_activation)
from lpcckit.exact import Scalar, Vec, basis_vec, tensor
from lpcckit.generators import (random_biseparable_322,
                                random_orthogonal_basis, random_orthogonal_set,
                                random_product_set, random_two_state_set)
from lpcckit.indexing import indexer
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (PVM, LocalPVM, Projector, apply,
                                  complement)
from lpcckit.opsolve import (enumerate_op_pvms, is_pvm_irreducible,
                             rank1_op_directions)
from lpcckit.protocols import ProtocolError, lpcc_search
from lpcckit.statesets import (Partition, PartySpec, StateSet, build_named_set,
                               group_support, merge_parties,
                               separability_degree)
from lpcckit.theorems import fixture_activation, fixture_protocol


def test_domino_match_identity(domino):
    match = domino_match(domino)
    assert match is not None
    assert match.row_basis == (0, 1, 2)
    assert match.col_basis == (0, 1, 2)


def test_domino_match_rejects_wrong_sets(s2):
    merged = merge_parties(s2, Partition(((0,), (1, 2))))
    assert domino_match(merged) is None


def test_domino_match_type1_branch(s1):
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    branch = apply(s1, lp)[0].states
    merged = merge_parties(branch, Partition(((0,), (1, 2))))
    match = domino_match(merged)
    assert match is not None
    assert match.col_basis == (0, 1, 2)


def test_domino_match_joint_branch(s2):
    s, first, p = fixture_activation("s2_joint_activation")
    branch = apply(s, first)[0].states
    merged = merge_parties(branch, p)
    match = domino_match(merged)
    assert match is not None
    assert match.col_basis == (0, 2, 4)


def test_verify_activation_type1(s1):
    first = LocalPVM(parse_pvm("0;1", [2]), (1,))
    report = verify_activation(s1, first, Partition.trivial(3))
    assert report.asserted and report.genuine
    assert [b.domino.col_basis for b in report.branches] == [(0, 1, 2), (3, 4, 5)]
    assert all(b.certified for b in report.branches)


def test_verify_activation_joint(s2):
    s, first, p = fixture_activation("s2_joint_activation")
    _, tree = fixture_protocol("s2_discrimination")
    report = verify_activation(s, first, p, protocol=tree)
    assert report.asserted
    assert [b.domino.col_basis for b in report.branches] == [(0, 2, 4), (1, 5, 3)]


def test_supplied_protocol_must_stay_inside_the_partition(s1):
    # a joint B-C measurement is not LOCC in A|B|C
    tree = lpcc_search(s1, Partition(((0,), (1, 2))), depth=3).tree
    first = LocalPVM(parse_pvm("0;1", [2]), (1,))
    with pytest.raises(ProtocolError, match="crosses the blocks"):
        verify_activation(s1, first, Partition.trivial(3), protocol=tree)


def test_single_party_cannot_activate_type2(s2):
    from lpcckit.opsolve import enumerate_op_pvms
    for party in range(3):
        for lp in enumerate_op_pvms(s2, (party,)):
            report = verify_activation(
                s2, lp, Partition.trivial(3),
                assume_distinguishable="verified elsewhere")
            assert not report.asserted


def test_activation_requires_op_first(s2):
    bad = LocalPVM(parse_pvm("0;1,2", [3]), (0,))
    with pytest.raises(ActivationError):
        verify_activation(s2, bad, Partition.trivial(3),
                          assume_distinguishable="n/a")


def test_activation_never_asserted_on_redundant_sets():
    # orthogonality is carried entirely by the first two parties, so the
    # third is redundant; activation must be refused on genuineness
    spec = PartySpec((3, 3, 2))
    states = []
    for i in range(3):
        a = Vec([1 if j == i else 0 for j in range(3)])
        states.append((str(i), tensor(a, a, Vec([1, 0]))))
    s = StateSet(spec, states)
    first = LocalPVM(parse_pvm("0;1;2", [3]), (0,))
    report = verify_activation(s, first, Partition.trivial(3),
                               assume_distinguishable="product set")
    assert not report.genuine
    assert not report.asserted


def test_classify_type1(s1):
    out = classify(s1)
    assert out.klass == "TYPE-I"
    assert out.witness.first.group == (1,)


def test_classify_type2(s2):
    out = classify(s2)
    assert out.klass == "TYPE-II"
    assert out.witness.first.group == (1, 2)


def test_classify_two_state_exact():
    rng = random.Random(3)
    for _ in range(3):
        s = random_two_state_set(rng, (2, 3))
        out = classify(s)
        assert out.klass == "strong-local-evidence" and out.exact


def test_classify_product_nx2_exact():
    rng = random.Random(9)
    for _ in range(3):
        s = random_product_set(rng, (rng.randint(2, 4), 2), 4)
        out = classify(s)
        assert out.klass == "strong-local-evidence" and out.exact


def test_classify_domino_indistinguishable(domino):
    out = classify(domino)
    assert out.klass == "indistinguishable-already"


def test_classify_invariant_under_scaling_and_relabeling(s1):
    rng = random.Random(12)
    scaled = [(f"x{i}", v.scale(Scalar(rng.randint(1, 5), rng.randint(0, 3))))
              for i, (l, v) in enumerate(s1.states)]
    rng.shuffle(scaled)
    s = StateSet(s1.spec, scaled, provenance="scrambled")
    out = classify(s)
    assert out.klass == "TYPE-I"


def test_dim2_nogo_on_random_biseparable():
    rng = random.Random(31)
    for _ in range(5):
        s = random_biseparable_322(rng, n_states=5)
        rep = check_dim2_nogo(s)
        assert rep.confirmed and rep.parties_checked == (1, 2)


def _biseparable_nx22(rng, n):
    """Orthogonal a (x) w states in n x 2 x 2, with generically entangled
    two-qubit factors w."""
    a_basis = random_orthogonal_basis(rng, n)
    w_basis = random_orthogonal_basis(rng, 4, complex_amps=True)
    pairs = rng.sample([(f, g) for f in range(n) for g in range(4)], n + 2)
    return StateSet(PartySpec((n, 2, 2)),
                    [(str(i), tensor(a_basis[f], w_basis[g]))
                     for i, (f, g) in enumerate(pairs)])


def test_dim2_nogo_oracle_product_degree():
    # independent oracle for the factor-test proof: apply rank-1 PVMs on
    # each qubit party and check full separability of every branch state
    rng = random.Random(8)
    directions = [Vec([1, 0]), Vec([0, 1]), Vec([1, 1]), Vec([1, -1]),
                  Vec([Scalar(1), Scalar(0, 1)]),
                  Vec([Scalar(1), Scalar(0, -1)])]
    while len(directions) < 9:
        v = Vec([Scalar(rng.randint(-3, 3), rng.randint(-3, 3)),
                 Scalar(rng.randint(-3, 3), rng.randint(-3, 3))])
        if not v.is_zero():
            directions.append(v)
    for n in (2, 3, 4):
        s = _biseparable_nx22(rng, n)
        assert check_dim2_nogo(s).confirmed
        assert any(separability_degree(v, s.spec)[0] == 2 for _, v in s.states)
        for party in (1, 2):
            for theta in directions:
                p = Projector.from_ray(theta)
                lp = LocalPVM(PVM([p, complement([p], p.dim)]), (party,))
                for br in apply(s, lp).values():
                    if br.states is None:
                        continue
                    for _, v in br.states.states:
                        if not v.is_zero():
                            assert separability_degree(v, s.spec)[0] == 3


def test_dim2_nogo_requires_biseparable():
    spec = PartySpec((3, 2, 2))
    entangled = StateSet(spec, [("a", Vec([1] + [0] * 10 + [1])),
                                ("b", Vec([1] + [0] * 10 + [-1]))])
    wrong_dims = [StateSet(PartySpec(dims), [("a", basis_vec(prod, 0)),
                                             ("b", basis_vec(prod, 1))])
                  for dims, prod in (((3, 3, 2), 18), ((2, 2), 4),
                                     ((3, 2, 3), 18), ((2, 2, 2, 2), 16))]
    for s in [entangled] + wrong_dims:
        with pytest.raises(ValueError):
            check_dim2_nogo(s)


def test_dim2_nogo_refuses_non_orthogonal_input():
    # both states factor across A | BC, but they are not orthogonal, and
    # the no-go says nothing about such sets
    s = StateSet(PartySpec((2, 2, 2)),
                 [("a", basis_vec(8, 0)), ("b", basis_vec(8, 0) + basis_vec(8, 1))])
    with pytest.raises(ValueError, match="orthogonal"):
        check_dim2_nogo(s)


def non_orthogonal_set():
    """{|000>, |000>+|001>, |111>} in 2x2x2: 'a' and 'b' overlap."""
    return StateSet(PartySpec((2, 2, 2)),
                    [("a", basis_vec(8, 0)), ("b", basis_vec(8, 0) + basis_vec(8, 1)),
                     ("c", basis_vec(8, 7))])


GATED_ENTRIES = {
    "rank1_op_directions": lambda s: rank1_op_directions(s, (2,)),
    "enumerate_op_pvms": lambda s: enumerate_op_pvms(s, (2,)),
    "is_pvm_irreducible": lambda s: is_pvm_irreducible(s, Partition.trivial(3)),
    "lpcc_search": lambda s: lpcc_search(s, Partition.trivial(3)),
    "classify": classify,
    "is_m_activable": lambda s: is_m_activable(s, 2),
    "check_dim2_nogo": check_dim2_nogo,
}


@pytest.mark.parametrize("entry", sorted(GATED_ENTRIES))
def test_verdict_entries_refuse_non_orthogonal_input(entry):
    # user input, so neither a failed re-verification (AssertionError,
    # exit 70) nor a verdict
    with pytest.raises(ValueError,
                       match="^states 'a' and 'b' are not orthogonal$"):
        GATED_ENTRIES[entry](non_orthogonal_set())


DEPTH_ENTRIES = {
    # each would answer without searching, so the refusal must be at entry
    "classify-two-state": lambda s1, s2: classify(
        StateSet(PartySpec((2, 2)), [("a", basis_vec(4, 0)), ("b", basis_vec(4, 3))]),
        depth=-1),
    "classify-structural": lambda s1, s2: classify(
        StateSet(PartySpec((2, 2)), [("a", basis_vec(4, 0)), ("b", basis_vec(4, 1)),
                                     ("c", basis_vec(4, 3))]), depth=-1),
    "is_m_activable-strong-2": lambda s1, s2: is_m_activable(s2, 2, strong=True,
                                                             depth=-1),
    "is_m_activable": lambda s1, s2: is_m_activable(s2, 2, depth=-1),
    "verify_activation-with-protocol": lambda s1, s2: verify_activation(
        *fixture_activation("s2_joint_activation"),
        protocol=fixture_protocol("s2_discrimination")[1], search_depth=-1),
}


@pytest.mark.parametrize("entry", sorted(DEPTH_ENTRIES))
def test_entries_refuse_negative_depth(s1, s2, entry):
    with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
        DEPTH_ENTRIES[entry](s1, s2)


def test_fully_product_422_nogo():
    rng = random.Random(77)
    s = random_product_set(rng, (4, 2, 2), 6, domino_moves=2)
    rep = check_dim2_nogo(s)
    assert rep.confirmed


def test_m_activability_type1(s1):
    assert is_m_activable(s1, 3).status == "activable"
    assert is_m_activable(s1, 2).status == "activable"


def test_m_activability_type2(s2):
    v3 = is_m_activable(s2, 3)
    assert v3.status == "not-activable" and v3.exact
    v2 = is_m_activable(s2, 2)
    assert v2.status == "activable"
    assert v2.witness_partition.blocks == ((0,), (1, 2))


def test_proposition2_consistency(s1, s2):
    strong3 = is_m_activable(s1, 3, strong=True)
    two = is_m_activable(s1, 2)
    if strong3.status == "activable":
        assert two.status != "not-activable"
    s2_strong3 = is_m_activable(s2, 3, strong=True)
    s2_two = is_m_activable(s2, 2)
    if s2_strong3.status == "activable":
        assert s2_two.status != "not-activable"


def test_m_validation(s1):
    with pytest.raises(ValueError):
        is_m_activable(s1, 1)
    with pytest.raises(ValueError):
        is_m_activable(s1, 4)


def test_domino_match_implies_irreducible(s1, s2):
    # cross-check on every match: a matched bipartite set must itself be
    # certified irreducible
    from lpcckit.opsolve import is_pvm_irreducible
    cases = []
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    for br in apply(s1, lp).values():
        cases.append(merge_parties(br.states, Partition(((0,), (1, 2)))))
    _, first, p = fixture_activation("s2_joint_activation")
    for br in apply(s2, first).values():
        cases.append(merge_parties(br.states, p))
    for merged in cases:
        match = domino_match(merged)
        assert match is not None
        verdict = is_pvm_irreducible(merged, Partition.trivial(2))
        assert verdict.irreducible


def test_dimension_bound_bites_from_the_input():
    # party A spans ten coordinates, one past the enumeration bound: the
    # solver reports the block unresolved, classify skips it and is no
    # longer exact, and m-activability cannot come out negative
    from lpcckit.opsolve import rank1_op_directions
    s = random_product_set(random.Random(1), (10, 2, 2), 5)
    assert rank1_op_directions(s, (0,)).unresolved == (
        {"reason": "dimension-bound", "effective_dim": 10, "bound": 9},)
    out = classify(s)
    assert (out.klass, out.exact) == ("strong-local-evidence", False)
    assert "party 0: effective dimension 10 beyond enumeration bound" in out.trace
    assert is_m_activable(s, 2).status == "unknown"


@pytest.mark.parametrize("source, group, pvm, blocks, why", [
    ("non-orthogonal", (0,), "0;1", ((0,), (1,)), "source set is not orthogonal"),
    ("S1", (1, 2), "00;~", ((0,), (1,), (2,)),
     "first-round group crosses partition blocks"),
    ("S1", (0,), "0,1,2", ((0,), (1,), (2,)),
     "first-round PVM is trivial for the set")])
def test_verify_activation_refusals(s1, source, group, pvm, blocks, why):
    s = s1 if source == "S1" else StateSet(PartySpec((2, 2)), [
        ("a", Vec([1, 0, 0, 0])), ("b", Vec([1, 1, 0, 0]))])
    dims = [s.spec.dims[p] for p in group]
    first = LocalPVM(parse_pvm(pvm, dims), group)
    with pytest.raises(ActivationError, match=f"^{why}$"):
        verify_activation(s, first, Partition(blocks))


def test_three_fully_product_states_are_exactly_strong_local():
    ket = lambda bits: tensor(*(Vec([1, 0]) if b == "0" else Vec([0, 1])
                                for b in bits))
    s = StateSet(PartySpec((2, 2, 2)),
                 [(bits, ket(bits)) for bits in ("000", "011", "101")])
    c = classify(s)
    assert (c.klass, c.exact) == ("strong-local-evidence", True)
    assert c.trace == ("three orthogonal fully product states are strong local",)


def ref_structural_strong_local(s: StateSet) -> str | None:
    """`_structural_strong_local` as it stood when "fully product" was
    read off the finest factorization of `separability_degree`."""
    n = s.spec.n_parties
    if n == 2:
        first = indexer(s.spec.dims, (0,))
        if all(first.factor(v) is not None for v in s.vectors()):
            for party in (0, 1):
                if group_support(s, (party,))[1] <= 2:
                    return ("orthogonal product set with a two-dimensional "
                            "side: activation impossible in n x 2")
    if len(s) == 3 and all(separability_degree(v, s.spec)[0] == n
                           for v in s.vectors()):
        return "three orthogonal fully product states are strong local"
    return None


def _three_state_sets():
    """Three-state sets of two or three parties: fully product, generic
    entangled, biseparable, and product states beside orthogonal
    combinations x + y, |y|^2 x - |x|^2 y of two more (entangled when x and
    y differ on more than one party). The 3 x 3 sets left_i (x) right_i
    have three-dimensional supports on both sides."""
    def mixed(x, y):
        return x.scale(Scalar(y.norm2())) - y.scale(Scalar(x.norm2()))

    for seed in range(30):
        rng = random.Random(seed)
        dims = rng.choice([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2)])
        yield random_product_set(rng, dims, 3)
        yield random_orthogonal_set(rng, dims, 3, complex_amps=seed % 2 == 1)
        yield random_biseparable_322(rng, 3)
        s = random_product_set(rng, dims, 4, domino_moves=0)
        (a, u), (b, v), (c, x), (d, y) = s.states
        yield StateSet(s.spec, [(a, u), (b, v), (c + d, mixed(x, y))])
        left, right = random_orthogonal_basis(rng, 3), random_orthogonal_basis(rng, 3)
        x, y, z = (tensor(left[i], right[i]) for i in range(3))
        spec = PartySpec((3, 3))
        yield StateSet(spec, [("0", x), ("1", y), ("2", z)])
        yield StateSet(spec, [("0", x), ("+", y + z), ("-", mixed(y, z))])


def test_three_product_recognition_matches_separability_degree():
    verdicts = []
    for s in _three_state_sets():
        got = _structural_strong_local(s)
        assert got == ref_structural_strong_local(s), s.provenance
        verdicts.append(got)
    three = "three orthogonal fully product states are strong local"
    assert len(verdicts) == 6 * 30
    assert verdicts.count(three) >= 40 and verdicts.count(None) >= 60


def _with_zero_party(s, d):
    z = basis_vec(d, 0)
    return StateSet(PartySpec(s.spec.dims + (d,)),
                    [(label, tensor(v, z)) for label, v in s.states])


def test_per_partition_source_search_decides_the_source(monkeypatch):
    # Domino (x) |0> is indistinguishable in the finest partition, so each
    # partition with candidates decides its source by one search
    from lpcckit import activation
    s = _with_zero_party(build_named_set("Domino"), 2)
    seen = []

    def spy(t, p, depth=4):
        verdict = lpcc_search(t, p, depth=depth)
        if t is s:
            seen.append((p.blocks, verdict.status))
        return verdict
    monkeypatch.setattr(activation, "lpcc_search", spy)
    verdict = is_m_activable(s, 2)
    assert seen[0] == (((0,), (1,), (2,)), "indistinguishable")
    assert any(status == "distinguishable" for _, status in seen[1:])
    assert verdict.status != "activable"


def test_activation_of_a_locally_redundant_set_is_skipped():
    s = _with_zero_party(build_named_set("S2"), 2)
    verdict = is_m_activable(s, 3)
    assert "activation found but set is locally redundant" in verdict.trace
    assert verdict.status != "activable"
