"""Integer slice read: measurement application, the orthogonality-
preservation test and `factor` against the Scalar-per-entry versions they
replaced, which are kept below as references."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lpcckit.exact import (Scalar, Vec, ZERO, inner, mat_vec, tensor)
from lpcckit.generators import planted_direction_set
from lpcckit.indexing import GroupIndexer as NewIndexer, total_dim
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (LocalPVM, OPVerdict, OutcomeBranch, PVM,
                                  Projector, apply, branch_survivals,
                                  complement, preserves_orthogonality)
from lpcckit.opsolve import enumerate_op_pvms
from lpcckit.statesets import PartySpec, StateSet


# ---------------------------------------------------------------------------
# references: the Scalar-per-entry slice read, factor and measurement layer,
# unchanged but for the class they hang on


def products_equal(x: Scalar, y: Scalar, z: Scalar, w: Scalar) -> bool:
    """x*y == z*w, compared on the integer numerators and denominators of
    the two products without reducing or building either of them."""
    re1, im1 = x._a * y._a - x._b * y._b, x._a * y._b + x._b * y._a
    re2, im2 = z._a * w._a - z._b * w._b, z._a * w._b + z._b * w._a
    d1, d2 = x._d * y._d, z._d * w._d
    return re1 * d2 == re2 * d1 and im1 * d2 == im2 * d1


class GroupIndexer(NewIndexer):
    def nonzero_slices(self, v: Vec) -> dict[int, Vec]:
        """The nonzero slices u^r of `local_vectors`, keyed by ascending r,
        read from v's nonzero entries alone."""
        where = self.where
        if v.dim != len(where):
            raise ValueError(f"state dimension {v.dim} does not match "
                             f"the indexer's {len(where)}")
        rows: dict[int, list] = {}
        nonzeros = [(where[i], x) for i, x in enumerate(v.entries) if x._a or x._b]
        for (r, g), x in nonzeros:
            row = rows.get(r)
            if row is None:
                row = rows[r] = [ZERO] * self.group_dim
            row[g] = x
        return {r: Vec(rows[r]) for r in sorted(rows)}

    def factor(self, v: Vec) -> tuple[Vec, Vec] | None:
        """(group factor, rest factor) when v is a product across
        group | rest, else None; their tensor product is a nonzero
        multiple of v.

        With M[g][r] = u^r[g] and (g0, r0) its first nonzero entry in
        row-major order, M has rank 1 exactly when every nonzero slice
        has u^r0's support and passes the cross-multiplication
        u^r * M[g0][r0] == u^r0 * M[g0][r] there; the factors are M's
        column r0 and row g0."""
        slices = self.nonzero_slices(v)
        if not slices:
            return None
        supports = {r: u.support() for r, u in slices.items()}
        g0 = min(sup[0] for sup in supports.values())
        r0 = next(r for r, sup in supports.items() if sup[0] == g0)
        c, nz = slices[r0].entries, supports[r0]
        p = c[g0]
        for r, u in slices.items():
            e = u.entries
            if supports[r] != nz or not all(products_equal(e[g], p, c[g], e[g0])
                                            for g in nz):
                return None
        row = [ZERO] * self.rest_dim
        for r, u in slices.items():
            row[r] = u.entries[g0]
        return slices[r0], Vec(row)


def _slice_images(s: StateSet, lp: LocalPVM, idx: GroupIndexer):
    """Per outcome, per state: the nonzero images (P u^r) of the state's
    nonzero group slices, keyed by r; empty when P annihilates it."""
    slices = [idx.nonzero_slices(v) for v in s.vectors()]
    for e in lp.pvm.elements:
        per_state = []
        for sl in slices:
            images = {}
            for r, u in sl.items():
                w = mat_vec(e.mat, u)
                if not w.is_zero():
                    images[r] = w
            per_state.append(images)
        yield per_state


def ref_apply(s: StateSet, lp: LocalPVM) -> dict[int, OutcomeBranch]:
    lp.validate(s.spec)
    idx = GroupIndexer(s.spec.dims, lp.group)
    group_name = lp.describe(s.spec)
    branches: dict[int, OutcomeBranch] = {}
    for outcome, per_state in enumerate(_slice_images(s, lp, idx)):
        survivors: list[tuple[str, Vec]] = []
        killed: list[str] = []
        for (label, _), images in zip(s.states, per_state):
            if images:
                survivors.append((label, idx.scatter(images)))
            else:
                killed.append(label)
        branch_set = None
        if survivors:
            branch_set = StateSet(
                s.spec, survivors,
                provenance=f"{s.provenance}|{group_name}:{outcome}")
        branches[outcome] = OutcomeBranch(outcome, branch_set, tuple(killed))
    return branches


def ref_preserves_orthogonality(s: StateSet, lp: LocalPVM) -> OPVerdict:
    lp.validate(s.spec)
    idx = GroupIndexer(s.spec.dims, lp.group)
    slices = [idx.nonzero_slices(v) for v in s.vectors()]
    for outcome, e in enumerate(lp.pvm.elements):
        images = [{r: mat_vec(e.mat, u) for r, u in sl.items()}
                  for sl in slices]
        for i in range(len(slices)):
            for j in range(i + 1, len(slices)):
                acc = ZERO
                for r, u in slices[i].items():
                    if r in images[j]:
                        acc = acc + inner(u, images[j][r])
                if not acc.is_zero():
                    return OPVerdict(False, (outcome, i, j))
    return OPVerdict(True)


def ref_branch_survivals(s: StateSet, lp: LocalPVM) -> int:
    lp.validate(s.spec)
    idx = GroupIndexer(s.spec.dims, lp.group)
    return sum(1 for per_state in _slice_images(s, lp, idx)
               for images in per_state if images)


# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What a comparison met, so a test can insist its cases are not all
    of one kind."""
    op: set
    factored: set
    killed: int = 0


def _branches(branches):
    return {k: (b.states.states if b.states else None, b.annihilated,
                b.states.provenance if b.states else None)
            for k, b in branches.items()}


def assert_same(s: StateSet, lp: LocalPVM, tally: Tally) -> None:
    """Every reader of the integer slice read agrees with its reference on
    (s, lp): branches, survivor counts, the verdict and its witness, the
    Vec slices, the factors and the integer slices themselves."""
    new = apply(s, lp)
    assert _branches(new) == _branches(ref_apply(s, lp))
    tally.killed += sum(len(b.annihilated) for b in new.values())
    assert branch_survivals(s, [lp]) == [ref_branch_survivals(s, lp)]
    verdict = preserves_orthogonality(s, lp)
    assert verdict == ref_preserves_orthogonality(s, lp)
    tally.op.add(verdict.ok)
    idx, ref = NewIndexer(s.spec.dims, lp.group), GroupIndexer(s.spec.dims, lp.group)
    for v in s.vectors():
        slices = ref.nonzero_slices(v)
        assert idx.nonzero_slices(v) == slices
        den, ints = idx.int_slices(v)
        assert den == lcm(*(x._d for x in v.entries if not x.is_zero()))
        assert list(ints) == list(slices)
        for r, u in slices.items():
            assert ints[r] == sorted(ints[r])
            assert [(g, Scalar(Fraction(a, den), Fraction(b, den)))
                    for g, a, b in ints[r]] == [(g, u[g]) for g in u.support()]
        factors = idx.factor(v)
        assert factors == ref.factor(v)
        tally.factored.add(factors is not None)


def _groups(n: int):
    """Every proper group, in increasing order and reversed."""
    for k in range(1, n):
        for group in itertools.combinations(range(n), k):
            yield group
            if k > 1:
                yield group[::-1]


def test_op_pvms_of_named_sets_match_reference(domino, s1, s2):
    tally = Tally(set(), set())
    cases = 0
    for s in (domino, s1, s2):
        n = s.spec.n_parties
        for group in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n)):
            for lp in enumerate_op_pvms(s, group):
                assert_same(s, lp, tally)
                # the same PVM read on the reversed group, where it fits
                flipped = LocalPVM(lp.pvm, group[::-1])
                if len(group) > 1 and flipped.pvm.dim == total_dim(
                        [s.spec.dims[p] for p in flipped.group]):
                    assert_same(s, flipped, tally)
                cases += 1
    assert cases > 10 and tally.killed
    assert tally.op == {True, False} and tally.factored == {True, False}


UNION_PVMS = [
    ((0,), "0,1,2;3,4,5;6,7"), ((1,), "0+1;0-1;~"), ((2,), "7;~"),
    ((0, 1), "00+11,22;34;~"), ((2, 0), "01-10,33;~"), ((1, 2), "01+12-20,33;~"),
    ((2, 1, 0), "000,123;~"),
]


@pytest.mark.parametrize("group,text", UNION_PVMS)
def test_parsed_pvms_on_union_match_reference(union_s, group, text):
    lp = LocalPVM(parse_pvm(text, [union_s.spec.dims[p] for p in group]), group)
    assert_same(union_s, lp, Tally(set(), set()))


def test_planted_sets_match_reference():
    rng = random.Random(11)
    tally = Tally(set(), set())
    for trial in range(12):
        s, theta = planted_direction_set(rng, group_dim=2 + trial % 3,
                                         rest_dim=3 + trial % 2, n_states=3)
        ray = Projector.from_ray(theta)
        assert_same(s, LocalPVM(PVM([ray, complement([ray], ray.dim)]), (0,)),
                    tally)
        assert_same(s, LocalPVM(parse_pvm("0;1-2;~", [s.spec.dims[1]]), (1,)),
                    tally)
        assert_same(s, LocalPVM(parse_pvm("00,11;~", s.spec.dims), (1, 0))
                    if s.spec.dims[0] == s.spec.dims[1]
                    else LocalPVM(parse_pvm("00,11;~", s.spec.dims), (0, 1)),
                    tally)
    # theta preserves orthogonality by construction
    assert True in tally.op and tally.factored == {True, False}


DIMS = [(2, 3), (3, 2, 2), (2, 2, 3), (4, 1, 2)]
rationals = st.builds(lambda a, b, p, q: Scalar(Fraction(a, p), Fraction(b, q)),
                      st.integers(-4, 4), st.integers(-4, 4),
                      st.integers(1, 6), st.integers(1, 6))
entries = st.one_of(st.just(ZERO), st.just(ZERO), rationals)


@st.composite
def problems(draw):
    """A set of 2-4 states over mixed, non-unit denominators (some sparse,
    some products across the chosen group), an ordered, possibly reordered
    or non-contiguous group, and a PVM on it: a ray and its complement, or
    a split of the computational basis."""
    dims = draw(st.sampled_from(DIMS))
    n = len(dims)
    order = draw(st.permutations(range(n)))
    group = tuple(order[:draw(st.integers(1, n))])
    idx = NewIndexer(dims, group)
    states = []
    for k in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            u = draw(st.lists(entries, min_size=idx.group_dim, max_size=idx.group_dim))
            w = draw(st.lists(entries, min_size=idx.rest_dim, max_size=idx.rest_dim))
            v = idx.assemble([Vec(u).scale(c) for c in w])
        else:
            v = Vec(draw(st.lists(entries, min_size=total_dim(dims),
                                  max_size=total_dim(dims))))
        if not v.is_zero():
            states.append((str(k), v))
    if not states:
        states.append(("e", tensor(*(Vec([Scalar(Fraction(1, 3))] * d)
                                     for d in dims))))
    s = StateSet(PartySpec(dims), states)
    ray = Vec(draw(st.lists(entries, min_size=idx.group_dim, max_size=idx.group_dim)))
    if ray.is_zero():
        keep = draw(st.sets(st.integers(0, idx.group_dim - 1)))
        p = Projector.diagonal(keep, idx.group_dim)
    else:
        p = Projector.from_ray(ray)
    return s, LocalPVM(PVM([p, complement([p], p.dim)]), group)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_generated_sets_match_reference(problem):
    s, lp = problem
    assert_same(s, lp, Tally(set(), set()))


def test_factor_rebuilds_the_state_from_its_own_entries():
    # a reordered group over Gaussian rationals with a shared non-unit
    # denominator: the factors are v's own entries, so their tensor
    # product (in the group's digit order) is v itself up to the pivot
    dims, group = (2, 3, 2), (2, 0)
    idx = NewIndexer(dims, group)
    u = Vec([Scalar(Fraction(1, 2), 1), 0, Scalar(0, Fraction(-2, 3)), 3])
    w = Vec([Scalar(Fraction(5, 4)), 0, Scalar(1, 1)])
    v = idx.assemble([u.scale(c) for c in w])
    g_fac, r_fac = idx.factor(v)
    assert g_fac == u.scale(w[0])
    assert idx.assemble([g_fac.scale(c) for c in r_fac]) == v.scale(u[0] * w[0])
    # i*conj(p) for the pivot p leaves the real part of every
    # cross-multiplication as it was, so only the imaginary part shows it
    p = v[idx.flat(0, 0)]
    for delta in (Scalar(Fraction(1, 7)), Scalar(0, 1) * p.conj()):
        bent = list(v.entries)
        bent[idx.flat(3, 2)] = bent[idx.flat(3, 2)] + delta
        assert idx.factor(Vec(bent)) is None
