"""Protocol trees: construction, verification, bounded search."""

import random

import pytest

from lpcckit.exact import Scalar, Vec, gram_schmidt, inner, tensor
from lpcckit.generators import (random_lemma_structured_set,
                                random_orthogonal_set, random_product_set)
from lpcckit.indexing import indexer
from lpcckit.kets import parse_pvm
from lpcckit.measurements import PVM, LocalPVM, Projector, apply
from lpcckit.protocols import (Leaf, LemmaStructureError, Node, ProtocolError,
                               _orthocomplement_in,
                               execute_and_verify, leaf_branches,
                               lemma1_protocol, lpcc_search,
                               three_product_protocol, tree_from_script)
from lpcckit.statesets import (Partition, PartySpec, StateSet,
                               check_mutual_orthogonality, group_support)
from lpcckit.theorems import fixture_protocol


def test_s1_discrimination_fixture_verifies(s1):
    s, tree = fixture_protocol("s1_discrimination")
    verdict = execute_and_verify(s, tree)
    assert verdict.distinguishable


def test_s2_discrimination_fixture_verifies(s2):
    s, tree = fixture_protocol("s2_discrimination")
    verdict = execute_and_verify(s, tree)
    assert verdict.distinguishable


def test_single_state_leaf():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("only", Vec([1, 0, 0, 1]))])
    verdict = execute_and_verify(s, Leaf("identified"))
    assert verdict.distinguishable


def test_wrong_children_rejected(s1):
    tree = Node((2,), parse_pvm("0,1;2", [3]), {0: Leaf("identified")})
    with pytest.raises(ProtocolError):
        execute_and_verify(s1, tree)


def test_non_preserving_tree_rejected(s2):
    tree = Node((0,), parse_pvm("0;1,2", [3]),
                {0: Leaf("two-orthogonal"), 1: Leaf("two-orthogonal")})
    with pytest.raises(ProtocolError):
        execute_and_verify(s2, tree)


def test_no_label_lost_across_leaves(s1):
    s, tree = fixture_protocol("s1_discrimination")
    leaves = leaf_branches(s, tree)
    seen = set()
    for _path, branch in leaves:
        seen |= set(branch.labels())
    assert seen == set(s.labels())


def test_lemma1_on_outcome_two_leaf(s1):
    lp = LocalPVM(parse_pvm("0,1;2", [3]), (2,))
    branch = apply(s1, lp)[1].states
    tree = lemma1_protocol(branch)
    verdict = execute_and_verify(branch, tree)
    assert verdict.distinguishable


def test_lemma1_two_product_states():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("a", tensor(Vec([1, 0]), Vec([1, 0]))),
                        ("b", tensor(Vec([0, 1]), Vec([0, 1])))])
    tree = lemma1_protocol(s)
    assert execute_and_verify(s, tree).distinguishable


def test_lemma1_random_structured_sets():
    rng = random.Random(17)
    for _ in range(40):
        s = random_lemma_structured_set(rng, rng.randint(2, 5))
        tree = lemma1_protocol(s)
        if isinstance(tree, Leaf):
            continue
        assert execute_and_verify(s, tree).distinguishable


def test_lemma1_rejects_entangled():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("a", Vec([1, 0, 0, 1])),
                        ("b", Vec([1, 0, 0, -1])),
                        ("c", Vec([0, 1, 1, 0]))])
    with pytest.raises(LemmaStructureError):
        lemma1_protocol(s)


def test_three_product_small_case():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("1", tensor(Vec([1, 0]), Vec([1, 0]))),
                        ("2", tensor(Vec([0, 1]), Vec([1, 1]))),
                        ("3", tensor(Vec([0, 1]), Vec([1, -1])))])
    tree = three_product_protocol(s)
    assert execute_and_verify(s, tree).distinguishable


def test_three_product_outcome_orthogonality_identity():
    # the algebraic step behind the protocol: post-measurement survivors
    # of the separating outcome remain orthogonal
    rng = random.Random(23)
    for _ in range(15):
        s = random_product_set(rng, (3, 3, 3), 3, domino_moves=0)
        tree = three_product_protocol(s)
        branches = apply(s, LocalPVM(tree.pvm, tree.group))
        for br in branches.values():
            if br.states is not None:
                assert check_mutual_orthogonality(br.states)
        assert execute_and_verify(s, tree).distinguishable


def test_three_product_requires_products():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("1", Vec([1, 0, 0, 1])),
                        ("2", Vec([1, 0, 0, -1])),
                        ("3", Vec([0, 1, -1, 0]))])
    with pytest.raises(ValueError):
        three_product_protocol(s)


def test_three_product_input_conditions_are_structure_errors():
    zero, one, plus = Vec([1, 0]), Vec([0, 1]), Vec([1, 1])
    spec = PartySpec((2, 2))
    two = StateSet(spec, [("1", tensor(zero, zero)), ("2", tensor(one, one))])
    entangled = StateSet(spec, [("1", Vec([1, 0, 0, 1])),
                                ("2", Vec([1, 0, 0, -1])),
                                ("3", Vec([0, 1, -1, 0]))])
    # product, but the first two states share no orthogonal factor pair
    overlapping = StateSet(spec, [("1", tensor(zero, zero)),
                                  ("2", tensor(zero, plus)),
                                  ("3", tensor(one, one))])
    for s, why in ((two, "exactly three"), (entangled, "fully product"),
                   (overlapping, "no orthogonal factor pair")):
        with pytest.raises(LemmaStructureError, match=why):
            three_product_protocol(s)


@pytest.mark.parametrize("claim", ["three-product", "lemma1-2xn"])
def test_unbuildable_leaf_claim_fails_verification(s2, claim):
    with pytest.raises(ProtocolError, match=f"^leaf {claim}: "):
        execute_and_verify(s2, Leaf(claim))


def test_partition_refuses_cross_block_nodes(s1):
    tree = lpcc_search(s1, Partition(((0,), (1, 2))), depth=3).tree
    assert tree.group == (1, 2)
    assert execute_and_verify(s1, tree).distinguishable
    with pytest.raises(ProtocolError, match="crosses the blocks"):
        execute_and_verify(s1, tree, Partition.trivial(3))


@pytest.mark.parametrize("blocks", [((0,), (1, 2)), ((0,), (1,), (2,))])
def test_search_trees_verify_within_their_partition(s1, s2, blocks):
    p = Partition(blocks)
    for s in (s1, s2):
        verdict = lpcc_search(s, p, depth=3)
        assert execute_and_verify(s, verdict.tree, p).distinguishable


def test_lemma_leaf_needs_its_wide_side_inside_one_block():
    # {|0>|ab>} over a two-dimensional A and a 2x2 wide side BC: the
    # constructive protocol measures BC jointly
    zero, one = Vec([1, 0]), Vec([0, 1])
    s = StateSet(PartySpec((2, 2, 2)),
                 [("0", tensor(zero, zero, zero)), ("1", tensor(zero, one, one)),
                  ("2", tensor(one, zero, one)), ("3", tensor(one, one, zero))])
    leaf = Leaf("lemma1-2xn")
    assert execute_and_verify(s, leaf, Partition(((0,), (1, 2)))).distinguishable
    with pytest.raises(ProtocolError, match="crosses the blocks"):
        execute_and_verify(s, leaf, Partition.trivial(3))


def test_search_domino_indistinguishable(domino):
    verdict = lpcc_search(domino, Partition(((0,), (1,))), depth=1)
    assert verdict.status == "indistinguishable"
    assert verdict.certificate is not None
    assert verdict.certificate.irreducible


def test_search_s1_distinguishable(s1):
    verdict = lpcc_search(s1, Partition.trivial(3), depth=3)
    assert verdict.status == "distinguishable"
    assert execute_and_verify(s1, verdict.tree).distinguishable


def test_search_monotone_in_depth(s1):
    v3 = lpcc_search(s1, Partition.trivial(3), depth=3)
    v4 = lpcc_search(s1, Partition.trivial(3), depth=4)
    assert v3.status == "distinguishable"
    assert v4.status == "distinguishable"


def test_search_case1_residue_distinguishable(s2):
    from lpcckit.theorems import _type2_case_residue
    branch = _type2_case_residue("2;0,1", outcome=1)
    verdict = lpcc_search(branch, Partition.trivial(3), depth=3)
    assert verdict.status == "distinguishable"
    from lpcckit.opsolve import rank1_op_directions
    rep = rank1_op_directions(branch, (0,))
    assert rep.is_none_found or not rep.nontrivial_directions()


def test_script_round_trip(s1):
    s, tree = fixture_protocol("s1_discrimination")
    rebuilt = tree_from_script(tree.to_json(), s.spec)
    assert execute_and_verify(s, rebuilt).distinguishable


def test_two_state_leaf_accepts_entangled_pair():
    spec = PartySpec((2, 2))
    s = StateSet(spec, [("a", Vec([1, 0, 0, 1])), ("b", Vec([1, 0, 0, -1]))])
    verdict = execute_and_verify(s, Leaf("two-orthogonal"))
    assert verdict.distinguishable
    search = lpcc_search(s, Partition.trivial(2))
    assert search.status == "distinguishable"
    assert isinstance(search.tree, Leaf)


@pytest.mark.parametrize("claim, n, why", [
    ("identified", 2, "leaf claims one state, found 2"),
    ("two-orthogonal", 3, "leaf claims at most two states, found 3")])
def test_leaf_claim_refuses_the_wrong_state_count(s2, claim, n, why):
    s = StateSet(s2.spec, s2.states[:n])
    with pytest.raises(ProtocolError, match=why):
        execute_and_verify(s, Leaf(claim))


@pytest.mark.parametrize("tree, path", [
    (Node((0,), parse_pvm("0;1", [2]), {}), "[]"),
    (Node((2,), parse_pvm("0,1;2", [3]),
          {0: Node((1, 2), parse_pvm("0;1;2", [3]), {}),
           1: Leaf("lemma1-2xn")}), "[0]")])
def test_pvm_not_matching_its_group_is_a_protocol_error(s2, tree, path):
    with pytest.raises(ProtocolError, match=r"PVM dim \d does not match group "
                                            rf".* \(branch path \{path}\)"):
        execute_and_verify(s2, tree)


@pytest.mark.parametrize("make, least_built", [
    (lambda rng: random_product_set(
        rng, rng.choice(((2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 3, 2))),
        rng.randint(2, 4)), 40),
    (lambda rng: random_lemma_structured_set(rng, rng.randint(2, 6)), 30),
    # generic entangled states: the constructors refuse them all
    (lambda rng: random_orthogonal_set(rng, rng.choice(((2, 2), (2, 3), (2, 2, 2))),
                                       rng.randint(2, 4)), 0),
], ids=["product", "lemma-structured", "orthogonal"])
def test_constructors_refuse_or_build_a_verified_tree(make, least_built):
    # every input either fails a structure condition or yields a tree the
    # verifier accepts; no other refusal is reachable
    rng = random.Random(31)
    built = 0
    for _ in range(30):
        s = make(rng)
        for construct in (lemma1_protocol, three_product_protocol):
            try:
                tree = construct(s)
            except LemmaStructureError:
                continue
            assert execute_and_verify(s, tree).distinguishable
            built += 1
    assert built >= least_built


def test_lemma1_completes_a_lone_ray_with_its_nonzero_perpendicular():
    # the two-side ray (1, i) has no partner among the alphas; its round-2
    # PVM pairs it with (1, -i), with no all-zero element
    i = Scalar(0, 1)
    plus_i = Vec([1, i])
    perp = _orthocomplement_in(plus_i, [Vec([1, 0]), Vec([0, 1])])
    assert not perp.is_zero() and inner(plus_i, perp).is_zero()
    ket = lambda d, k: Vec([1 if j == k else 0 for j in range(d)])
    s = StateSet(PartySpec((2, 3)), [
        ("a", tensor(ket(2, 0), ket(3, 0))), ("b", tensor(ket(2, 1), ket(3, 0))),
        ("c", tensor(plus_i, ket(3, 1))), ("d", tensor(plus_i, ket(3, 2)))])
    tree = lemma1_protocol(s)
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, Node):
            assert not any(e.mat.is_zero() for e in node.pvm)
            nodes.extend(node.children.values())
    assert execute_and_verify(s, tree).distinguishable


def _ket(d, k):
    return Vec([1 if j == k else 0 for j in range(d)])


@pytest.mark.parametrize("states", [
    # one side of a direction class holds overlapping wide-side vectors
    [(_ket(2, 0), _ket(3, 0)), (_ket(2, 0), Vec([1, 1, 0])), (_ket(2, 1), _ket(3, 2))],
    # two direction classes overlap on the wide side
    [(_ket(2, 0), _ket(3, 0)), (Vec([1, 1]), _ket(3, 0)), (_ket(2, 1), _ket(3, 1))],
    # one live party, whose rays overlap
    [(_ket(2, 0), _ket(3, 0)), (Vec([1, 1]), _ket(3, 0))],
], ids=["same-side", "cross-class", "single-party"])
def test_lemma1_refuses_a_non_orthogonal_set_with_one_gate(states):
    s = StateSet(PartySpec((2, 3)), [(str(i), tensor(a, b))
                                     for i, (a, b) in enumerate(states)])
    with pytest.raises(LemmaStructureError, match="states are not mutually orthogonal"):
        lemma1_protocol(s)


def test_leaf_branches_refuses_a_non_orthogonal_set():
    s = StateSet(PartySpec((2, 2)), [("a", Vec([1, 0, 0, 0])), ("b", Vec([1, 1, 0, 0]))])
    with pytest.raises(ProtocolError, match="not orthogonal"):
        leaf_branches(s, Leaf("two-orthogonal"))


def _lemma1_inputs():
    rng = random.Random(5)
    for i in range(40):
        if i % 2:
            yield random_lemma_structured_set(rng, rng.randint(2, 6))
        else:
            yield random_product_set(rng, rng.choice(((2, 3), (2, 4), (2, 2, 2), (2, 3, 2))),
                                     rng.randint(2, 4))


def test_lemma1_trees_hold_valid_projectors_and_the_same_lone_perpendiculars():
    # PVM.completed trusts its elements, so each one is re-validated here;
    # a lone ray's perpendicular from the distinct rays is the one
    # Gram-Schmidt of all the alphas gives
    built = lone = 0
    for s in _lemma1_inputs():
        nodes = [lemma1_protocol(s)]
        while nodes:
            node = nodes.pop()
            if isinstance(node, Node):
                for e in node.pvm:
                    Projector(e.mat)
                PVM(list(node.pvm))
                nodes.extend(node.children.values())
                built += 1
        sup = [group_support(s, (p,))[1] for p in range(s.spec.n_parties)]
        live = [p for p, r in enumerate(sup) if r > 1]
        if len(live) < 2:
            continue
        narrow = next(p for p in live if sup[p] == 2)
        alphas = [indexer(s.spec.dims, (narrow,)).factor(v)[0] for v in s.vectors()]
        rays = list(dict.fromkeys(a.normalized_leading() for a in alphas))
        for r in rays:
            if not any(inner(r, q).is_zero() for q in rays):
                lone += 1
                assert _orthocomplement_in(r, rays) == \
                    _orthocomplement_in(r, gram_schmidt(alphas))
    assert built >= 40 and lone >= 10
