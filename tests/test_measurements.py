"""Local PVMs: embedding, application, orthogonality preservation."""

import itertools
import random
from fractions import Fraction

import pytest

from lpcckit.exact import (Mat, Scalar, Vec, identity, inner, mat_vec,
                           rank)
from lpcckit.generators import random_orthogonal_set
from lpcckit.indexing import GroupIndexer, index_of
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (LocalPVM, PVM, Projector, apply,
                                  branch_survivals, complement, embed,
                                  is_trivial_for_set, measure,
                                  preserves_orthogonality)
from lpcckit.opsolve import enumerate_op_pvms
from lpcckit.statesets import (Partition, check_mutual_orthogonality,
                               merge_parties)


def term_state(dims, terms):
    v = [Scalar(0)] * _total(dims)
    for coeff, digs in terms:
        v[index_of(digs, dims)] = Scalar(coeff)
    return Vec(v)


def _total(dims):
    t = 1
    for d in dims:
        t *= d
    return t


def test_projector_validation():
    with pytest.raises(ValueError):
        Projector(Mat([[1, 1], [0, 0]]))          # not Hermitian
    with pytest.raises(ValueError):
        Projector(Mat([[2, 0], [0, 0]]))          # not idempotent
    p = Projector.from_ray(Vec([1, 1]))
    assert p.rank() == 1
    assert p.mat.entries[0][0] == Scalar(Fraction(1, 2))


def test_pvm_validation():
    p = Projector.diagonal([0], 2)
    with pytest.raises(ValueError):
        PVM([p, p])
    pvm = PVM([p, complement([p], p.dim)])
    assert len(pvm) == 2


def test_embed_bob_rank(s1):
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    ops = embed(lp, s1.spec)
    assert ops[0].rows == 18
    assert rank(ops[0]) == 9


def test_embed_identity(s1):
    lp = LocalPVM(PVM([Projector.full(2)]), (1,))
    ops = embed(lp, s1.spec)
    assert ops[0] == identity(18)


def test_embed_joint_bc_rank(s2):
    lp = LocalPVM(parse_pvm("00,02,11;01,10,12", [2, 3]), (1, 2))
    ops = embed(lp, s2.spec)
    assert rank(ops[0]) == 9


def test_apply_bob_outcome_zero_matches_published_branch(s1):
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    branch = apply(s1, lp)[0].states
    dims = s1.spec.dims
    expected = [
        [(1, (0, 0, 0)), (1, (0, 0, 1))],
        [(1, (0, 0, 0)), (-1, (0, 0, 1))],
        [(1, (1, 0, 1))],
        [(1, (2, 0, 1)), (1, (2, 0, 2))],
        [(1, (2, 0, 1)), (-1, (2, 0, 2))],
        [(1, (0, 0, 2)), (1, (1, 0, 2))],
        [(1, (0, 0, 2)), (-1, (1, 0, 2))],
        [(1, (1, 0, 0)), (1, (2, 0, 0))],
        [(1, (1, 0, 0)), (-1, (2, 0, 0))],
    ]
    def key(v):
        return tuple((a.re, a.im) for a in v.normalized_leading().entries)

    got = sorted(key(v) for _, v in branch.states)
    want = sorted(key(term_state(dims, t)) for t in expected)
    assert got == want


def test_apply_charlie_outcome_two(s1):
    lp = LocalPVM(parse_pvm("0,1;2", [3]), (2,))
    branch = apply(s1, lp)[1].states
    assert len(branch) == 4
    assert sorted(branch.labels()) == ["4", "5", "6", "7"]
    assert check_mutual_orthogonality(branch)


def test_apply_identity(s1):
    lp = LocalPVM(PVM([Projector.full(3)]), (0,))
    branch = apply(s1, lp)[0].states
    assert [v for _, v in branch.states] == [v for _, v in s1.states]


def test_apply_records_annihilated(s1):
    lp = LocalPVM(parse_pvm("0,1;2", [3]), (2,))
    branches = apply(s1, lp)
    assert set(branches[1].annihilated) == {"1", "2", "3", "8", "9"}


def test_preserves_bob_computational(s1):
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    assert preserves_orthogonality(s1, lp)


def test_preserves_witness_pair(s2):
    lp = LocalPVM(parse_pvm("0;1,2", [3]), (0,))
    verdict = preserves_orthogonality(s2, lp)
    assert not verdict
    assert verdict.witness == (0, 5, 6)


def test_preserves_trivial(s2):
    lp = LocalPVM(PVM([Projector.full(3)]), (0,))
    assert preserves_orthogonality(s2, lp)


def _dense_preserves(s, lp):
    """Reference: apply each element to every whole state vector and take
    the inner product with every other state."""
    idx = GroupIndexer(s.spec.dims, lp.group)
    vecs = s.vectors()
    for outcome, e in enumerate(lp.pvm.elements):
        images = [idx.apply_operator(e.mat, v) for v in vecs]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if not inner(vecs[i], images[j]).is_zero():
                    return False, (outcome, i, j)
    return True, None


def test_preservation_matches_dense_reference(s1, s2, union_s):
    rng = random.Random(7)
    sets = [s1, s2, union_s]
    sets += [random_orthogonal_set(rng, (2, 3, 2), 4, complex_amps=True)
             for _ in range(4)]
    outcomes = set()
    for s in sets:
        n = s.spec.n_parties
        for group in [(p,) for p in range(n)] + [(0, n - 1)]:
            d = GroupIndexer(s.spec.dims, group).group_dim
            rays = [Vec([Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
                         for _ in range(d)]) for _ in range(3)]
            elements = [Projector.from_ray(v) for v in rays if not v.is_zero()]
            elements += [Projector.diagonal([a], d) for a in range(min(d, 3))]
            for p in elements:
                lp = LocalPVM(PVM([p, complement([p], p.dim)]), group)
                verdict = preserves_orthogonality(s, lp)
                fused = measure(s, lp)[0]
                want = _dense_preserves(s, lp)
                assert (verdict.ok, verdict.witness) == want, (s.provenance, group)
                assert (fused.ok, fused.witness) == want, (s.provenance, group)
                outcomes.add(verdict.ok)
    assert outcomes == {True, False}


def _dense_apply(s, lp):
    """Reference: each element embedded as a dense (P tensor 1) matrix and
    applied to every whole state; (survivors, annihilated) per outcome."""
    out = {}
    for outcome, big in enumerate(embed(lp, s.spec)):
        images = [(label, mat_vec(big, v)) for label, v in s.states]
        out[outcome] = ([(l, w) for l, w in images if not w.is_zero()],
                        tuple(l for l, w in images if w.is_zero()))
    return out


# every case but S2's (1, 2) has outcomes that annihilate states
APPLY_CASES = [
    ("S1", (0,), "0,1;2"), ("S1", (1,), "0-1;0+1"), ("S1", (2,), "0-1;0+1;2"),
    ("S1", (2, 0), "00,11;~"),
    ("S2", (0,), "0;1,2"), ("S2", (1, 2), "00,02,11;01,10,12"),
    ("S2", (2,), "1-2;1+2;0"),
    ("UnionS", (0,), "0,1,2;3,4,5;6,7"), ("UnionS", (1,), "0+1;0-1;~"),
    ("UnionS", (2,), "7;~"), ("UnionS", (0, 1), "00+11,22;34;~"),
]


@pytest.mark.parametrize("name,group,text", APPLY_CASES)
def test_apply_matches_dense_reference(s1, s2, union_s, name, group, text):
    s = {"S1": s1, "S2": s2, "UnionS": union_s}[name]
    lp = LocalPVM(parse_pvm(text, [s.spec.dims[p] for p in group]), group)
    branches = apply(s, lp)
    verdict, fused = measure(s, lp)
    assert (verdict.ok, verdict.witness) == _dense_preserves(s, lp)
    want = _dense_apply(s, lp)
    for got in (branches, fused):
        assert sorted(got) == sorted(want)
        for outcome, br in got.items():
            survivors, killed = want[outcome]
            assert br.outcome == outcome and br.annihilated == killed
            states = list(br.states.states) if br.states else []
            assert states == survivors
            # the read a branch state carries from its build is its entries' read
            assert ([v.int_read() for _, v in states]
                    == [w.int_read() for _, w in survivors])
    assert ([br.states and br.states.provenance for br in fused.values()]
            == [br.states and br.states.provenance for br in branches.values()])
    assert branch_survivals(s, [lp]) == [sum(len(v[0]) for v in want.values())]


def test_branch_survivals_counts_apply_survivors(domino, s1, s2):
    # Domino has no nontrivial OP PVM on one party; S1 and S2 have several
    checked = {}
    for s in (domino, s1, s2):
        n = s.spec.n_parties
        for k in range(1, n):
            for group in itertools.combinations(range(n), k):
                for lp in enumerate_op_pvms(s, group):
                    want = sum(len(br.states) for br in apply(s, lp).values()
                               if br.states)
                    assert branch_survivals(s, [lp]) == [want]
                    checked[s.provenance] = checked.get(s.provenance, 0) + 1
    assert len(checked) == 2


def test_is_trivial():
    assert PVM([Projector.full(2)]).is_trivial()
    assert not parse_pvm("0;1", [2]).is_trivial()
    p = Projector.diagonal([0, 1], 3)
    assert not PVM([p, complement([p], p.dim)]).is_trivial()


def test_rank2_in_dim2_is_identity():
    # the fact behind "a dimension-2 party only has rank-1 nontrivial PVMs"
    p = Projector.from_span([Vec([1, 0]), Vec([0, 1])], 2)
    assert p.is_identity()


def test_norm_conservation():
    rng = random.Random(13)
    for _ in range(8):
        s = random_orthogonal_set(rng, (2, 3), 3, complex_amps=True)
        direction = Vec([Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                         for _ in range(3)])
        if direction.is_zero():
            continue
        p = Projector.from_ray(direction)
        lp = LocalPVM(PVM([p, complement([p], p.dim)]), (1,))
        branches = apply(s, lp)
        for label, v in s.states:
            total = Fraction(0)
            for br in branches.values():
                if br.states is None:
                    continue
                try:
                    total += br.states.state(label).norm2()
                except KeyError:
                    pass
            assert total == v.norm2()


def test_op_branches_stay_orthogonal(s1):
    lp = LocalPVM(parse_pvm("0-1;0+1", [2]), (1,))
    if preserves_orthogonality(s1, lp):
        for br in apply(s1, lp).values():
            if br.states is not None:
                assert check_mutual_orthogonality(br.states)


def _kron(a, b):
    """Kronecker product of two matrices, left factor slowest."""
    return Mat([[x * y for x in ra for y in rb]
                for ra in a.entries for rb in b.entries])


def test_embed_commutes_with_merge(s2):
    # measure the middle party, then flatten A|BC; equals flattening first
    # and measuring the lifted operator on the merged block
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    merged_first = merge_parties(s2, Partition(((0,), (1, 2))))
    lifted = PVM([Projector(_kron(e.mat, identity(3)), _validated=True)
                  for e in lp.pvm.elements])
    lp_merged = LocalPVM(lifted, (1,))
    for outcome in (0, 1):
        a = merge_parties(apply(s2, lp)[outcome].states,
                          Partition(((0,), (1, 2))))
        b = apply(merged_first, lp_merged)[outcome].states
        assert [v for _, v in a.states] == [v for _, v in b.states]


def test_trivial_for_set_detects_inert(s1):
    lp = LocalPVM(parse_pvm("0;1", [2]), (1,))
    branch = apply(s1, lp)[0].states
    # any PVM on the collapsed middle party acts as a scalar on the branch
    probe = LocalPVM(parse_pvm("0-1;0+1", [2]), (1,))
    assert is_trivial_for_set(probe, branch)
    assert not is_trivial_for_set(probe, s1)


def test_pvm_json_round_trip():
    pvm = parse_pvm("0-1;0+1,2", [3])
    back = PVM.from_json(pvm.to_json())
    assert back == pvm


def test_rank_from_span_matches_dense_rank():
    from lpcckit.opsolve import _lift_pvm
    i = Scalar(0, 1)
    a, b = Vec([1, i, 0, 2]), Vec([0, 1, Fraction(1, 3), -1])
    dependent = [a, b, a + b.scale(i), Vec([0, 0, 0, 0]), b.scale(Fraction(5, 2))]
    ray = Projector.from_ray(a)
    wide = Projector.from_span(dependent, 4)
    projectors = [ray, wide, Projector.from_span([a, a.scale(i)], 4),
                  Projector.diagonal([0, 2, 2], 4), Projector.diagonal([], 4),
                  Projector.zero(4), Projector.full(4), complement([ray], ray.dim),
                  complement([wide], wide.dim),
                  complement([Projector.full(4)], 4)]
    pvm = PVM([Projector.from_ray(Vec([1, i])), Projector.from_ray(Vec([i, 1]))])
    lifted = _lift_pvm(pvm, (1, 3), Projector.diagonal([0, 2], 4))
    projectors += list(lifted.elements)
    projectors += [Projector.from_json(p.to_json()) for p in projectors]
    assert [p.rank() for p in projectors[:4]] == [1, 2, 1, 2]
    for p in projectors:
        assert p.rank() == rank(p.mat)


def test_measure_builds_every_branch_after_a_witness(s2):
    lp = LocalPVM(parse_pvm("0;1;2", [3]), (2,))
    ov, branches = measure(s2, lp)
    assert not ov and ov.witness == preserves_orthogonality(s2, lp).witness
    assert ov.witness[0] < 2 and sorted(branches) == [0, 1, 2]
    assert branches[2].states.labels() == ("1", "2", "3", "4", "5")
    assert branches[2].annihilated == ("6", "7", "8", "9")
