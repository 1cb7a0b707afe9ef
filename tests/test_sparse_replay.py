"""The replay path's sparse reads against the dense forms they replace.

`measurements.complement`, the `PVM` sum check and `_int_rows` read only
the rows of a projector whose diagonal entry is nonzero; states built by
`GroupIndexer.scatter` carry their `int_read` from the start;
`StateSet.ray_key` is read off that integer read; and `cli.main` reuses
one parser. Each is compared here with a test-local verbatim copy of the
dense form it replaced, or with a fresh parser.
"""

import itertools
import json
import random
from math import lcm

from lpcckit.cli import build_parser, main
from lpcckit.exact import Scalar, Vec, basis_vec, gram_schmidt, identity
from lpcckit.generators import random_orthogonal_set
from lpcckit.indexing import indexer
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (LocalPVM, PVM, Projector, _int_rows, apply,
                                  complement)
from lpcckit.opsolve import enumerate_op_pvms
from lpcckit.statesets import NAMED_SETS, StateSet, build_named_set
from lpcckit.theorems import UNION_PLAN


# --- verbatim copies of the dense forms -------------------------------------

def _dense_complement(elements, dim):
    total = elements[0].mat
    for e in elements[1:]:
        total = total + e.mat
    return Projector(identity(dim) - total, _validated=True)


def _dense_sum_check(elements):
    """`PVM.__init__`'s dense check, after its dimension checks."""
    dim = elements[0].dim
    total = elements[0].mat
    for e in elements[1:]:
        total = total + e.mat
    if total != identity(dim):
        raise ValueError("PVM elements do not sum to the identity")


def _dense_int_rows(lp):
    nonzeros = [[(h, [(g, x) for g, x in enumerate(row) if x._a or x._b])
                 for h, row in enumerate(e.mat.entries)] for e in lp.pvm.elements]
    den = lcm(*{x._d for m in nonzeros for _, row in m for _, x in row})
    return den, [[(h, {g: (x._a * (den // x._d), x._b * (den // x._d))
                       for g, x in row}) for h, row in m if row] for m in nonzeros]


def _dense_ray_key(s):
    rays = (tuple((i, x._a, x._b, x._d)
                  for i, x in enumerate(v.normalized_leading().entries)
                  if x._a or x._b)
            for v in s.vectors())
    return (s.spec.dims, tuple(sorted(rays)))


# --- projector sums ---------------------------------------------------------

def _verdict(check, elements):
    try:
        check(elements)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def _assert_same_sums(elements, dim, *, is_pvm):
    for k in range(1, len(elements) + 1):
        part = elements[:k]
        assert complement(part, dim) == _dense_complement(part, dim)
    want = _verdict(_dense_sum_check, elements)
    assert _verdict(PVM, elements) == want
    assert (want == "accepted") == is_pvm
    if is_pvm:
        lp = LocalPVM(PVM(elements), (0,))
        assert _int_rows(lp) == _dense_int_rows(lp)


def _union_plan_pvms():
    u = build_named_set("UnionS")
    for _, group, text, _, _ in UNION_PLAN:
        yield LocalPVM(parse_pvm(text, [u.spec.dims[p] for p in group]), group)


def test_projector_sums_match_dense_on_enumerated_and_plan_pvms(s1, s2, domino):
    pvms = []
    for s in (s1, s2, domino):
        n = s.spec.n_parties
        for size in range(1, n):
            for group in itertools.combinations(range(n), size):
                pvms += enumerate_op_pvms(s, group)
    plan = list(_union_plan_pvms())
    assert len(plan) == 3 and {lp.pvm.dim for lp in plan} == {64}
    for lp in pvms + plan:
        elements = list(lp.pvm.elements)
        _assert_same_sums(elements, lp.pvm.dim, is_pvm=True)
        # one element short of the identity, when there is more than one
        if len(elements) > 1:
            _assert_same_sums(elements[1:], lp.pvm.dim, is_pvm=False)
    assert len(pvms) > 100


def _gaussian(rng):
    """A random nonzero Gaussian integer."""
    return Scalar(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-2, 2))


def _sparse_vector(rng, dim):
    """A random Gaussian-integer vector on a random support, so projectors
    onto spans of them have zero rows."""
    support = set(rng.sample(range(dim), rng.randint(1, dim)))
    return Vec([_gaussian(rng) if i in support else 0 for i in range(dim)])


def test_projector_sums_match_dense_on_random_spans():
    rng = random.Random(2609)
    refused = accepted = 0
    for dim in range(2, 10):
        for _ in range(6):
            sparse = [_sparse_vector(rng, dim) for _ in range(rng.randint(1, dim))]
            basis = gram_schmidt(sparse + [basis_vec(dim, i) for i in range(dim)])
            assert len(basis) == dim
            rng.shuffle(basis)
            cuts = sorted(rng.sample(range(1, dim), rng.randint(0, min(3, dim - 1))))
            blocks = [basis[a:b] for a, b in zip([0, *cuts], [*cuts, dim])]
            family = [Projector.from_span(b, dim) for b in blocks]
            _assert_same_sums(family, dim, is_pvm=True)
            accepted += 1
            # a family that does not sum to 1: one element dropped, or one
            # replaced by an overlapping span
            if len(family) > 1:
                _assert_same_sums(family[:-1], dim, is_pvm=False)
                refused += 1
            overlap = Projector.from_span([sparse[0], basis_vec(dim, 0)], dim)
            if overlap != family[0]:
                _assert_same_sums([overlap, *family[1:]], dim, is_pvm=False)
                refused += 1
    assert accepted == 48 and refused > 40


# --- branch states and the set key ------------------------------------------

def _branch_states(s2, union_s):
    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    subsets = [br.states for _, br in sorted(apply(union_s, coarse).items())]
    yield from subsets
    for sub, (_, group, text, _, _) in zip(subsets, UNION_PLAN):
        lp = LocalPVM(parse_pvm(text, [8, 8]), group)
        yield from (br.states for br in apply(sub, lp).values() if br.states)
    for group, text in (((2,), "2;0,1"), ((2,), "0-1;0+1,2"),
                        ((2,), "0+1;0-1,2"), ((1, 2), "00,02,11;01,10,12;~")):
        lp = LocalPVM(parse_pvm(text, [s2.spec.dims[p] for p in group]), group)
        yield from (br.states for br in apply(s2, lp).values() if br.states)
    for group in ((0,), (1,), (2,)):
        for lp in enumerate_op_pvms(s2, group):
            yield from (br.states for br in apply(s2, lp).values() if br.states)


def _reposed(rng, s):
    """s with its states shuffled and each scaled by a nonzero Gaussian
    integer."""
    states = list(s.states)
    rng.shuffle(states)
    scaled = [(label, v.scale(_gaussian(rng))) for label, v in states]
    return StateSet(s.spec, scaled, provenance=s.provenance)


def test_branch_states_carry_their_read_and_keys_match_dense(s2, union_s):
    rng = random.Random(26)
    sets = []
    states = 0
    for branch in _branch_states(s2, union_s):
        for v in branch.vectors():
            assert v.int_read() == Vec(v.entries).int_read()
            states += 1
        sets.append(branch)
    idx = indexer(s2.spec.dims, (2,))
    op = parse_pvm("0+1;0-1,2", [s2.spec.dims[2]]).elements[0].mat
    for v in s2.vectors():
        for built in (idx.apply_operator(op, v),
                      idx.assemble(idx.local_vectors(v))):
            assert built.int_read() == Vec(built.entries).int_read()
    sets += [build_named_set(n, m=2 if n in ("S1m", "S2m") else None)
             for n in NAMED_SETS]
    shapes = [((3, 3), 4), ((2, 4), 5), ((2, 2, 2), 5), ((4, 3), 6), ((3, 2), 3),
              ((2, 5), 7)]
    sets += [random_orthogonal_set(random.Random(seed), dims, n,
                                   complex_amps=bool(seed % 2))
             for seed, (dims, n) in enumerate(shapes * 2)]
    for s in sets:
        key = s.ray_key
        assert key == _dense_ray_key(s)
        for _ in range(2):
            moved = _reposed(rng, s)
            assert moved.ray_key == _dense_ray_key(moved) == key
    assert states > 150 and len(sets) > 40


# --- one parser per process -------------------------------------------------

CALLS = (
    ["classify", "--name", "S1", "--activable-m", "2"],
    ["classify", "--name", "S1"],
    ["classify", "--name", "NoSuchSet"],                               # 64
    ["measure", "apply", "--name", "S2", "--group", "C", "--pvm", "0+1;0+2;~"],  # 64
    ["theorem", "1"],
)


def _run(capsys, argv):
    code = main(["--json", *argv])
    out, err = capsys.readouterr()
    data = json.loads(out) if out else None
    if data is not None:
        data.pop("elapsed_s")
    return code, data, err


def test_reused_parser_gives_what_a_fresh_one_gives(capsys):
    assert build_parser() is build_parser()
    reused = [_run(capsys, argv) for argv in CALLS]
    fresh = []
    for argv in CALLS:
        build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 64, 64, 0]
    assert build_parser() is build_parser()
