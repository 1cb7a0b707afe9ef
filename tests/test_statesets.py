"""Named families, set predicates, partitions, serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from lpcckit import statesets
from lpcckit.exact import Mat, Scalar, Vec, ZERO, inner, mat_vec, rank, tensor
from lpcckit.generators import (random_biseparable_322, random_orthogonal_set,
                                random_product_set)
from lpcckit.indexing import (GroupIndexer, digits_of, embed_with_offsets,
                              index_of, permute_axes, relabel_digits, strides,
                              total_dim)
from lpcckit.statesets import (NAMED_SETS, Partition, PartySpec, StateSet,
                               build_named_set, check_mutual_orthogonality,
                               group_support, is_locally_redundant,
                               merge_parties, restrict_support,
                               separability_degree,
                               sets_equal_up_to_relabeling)


def test_named_set_shapes():
    cases = {"S1": ((3, 2, 3), 9), "S2": ((3, 2, 3), 9),
             "S2prime": ((3, 3, 2), 9), "S2doubleprime": ((2, 3, 3), 9),
             "Domino": ((3, 3), 9), "UnionS": ((8, 8, 8), 27)}
    for name, (dims, count) in cases.items():
        s = build_named_set(name)
        assert s.spec.dims == dims
        assert len(s) == count
        assert check_mutual_orthogonality(s)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ["S1m", "S2m"])
def test_generalized_families_orthogonal(family, m):
    s = build_named_set(family, m=m)
    assert check_mutual_orthogonality(s)
    assert s.spec.dims == (2 * m + 1, 2, 2 * m + 1)


def test_family_counts_match_independent_enumeration():
    # count the index grid directly, without touching the generator
    for m in range(1, 5):
        expected = 1
        for i in range(m):
            for _k in range(m - i):
                expected += 8
        assert expected == 4 * m * (m + 1) + 1
        assert len(build_named_set("S1m", m=m)) == expected


def test_m1_degenerations():
    assert sets_equal_up_to_relabeling(build_named_set("S1m", m=1),
                                       build_named_set("S1"))
    assert sets_equal_up_to_relabeling(build_named_set("S2m", m=1),
                                       build_named_set("S2"))


def test_m_parameter_validation():
    with pytest.raises(ValueError):
        build_named_set("S1m")
    with pytest.raises(ValueError):
        build_named_set("S2m", m=0)
    with pytest.raises(ValueError):
        build_named_set("S1", m=2)


def test_s2prime_matches_published_digits():
    # first state: middle party at role level 0, the cyclic (C,A) weight
    # pattern |0>(|0>+|1>+|2>) - |1>|2> written over (A, B, C) = dims (3,3,2)
    s = build_named_set("S2prime")
    v = s.state("1")
    expect = {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1, (2, 0, 1): -1}
    from lpcckit.indexing import index_of
    for digs, coeff in expect.items():
        assert v.entries[index_of(digs, s.spec.dims)] == Scalar(coeff)
    assert sum(1 for a in v.entries if not a.is_zero()) == 4


def test_orthogonality_witness():
    spec = PartySpec((2,))
    s = StateSet(spec, [("a", Vec([1, 0])), ("b", Vec([1, 1]))])
    verdict = check_mutual_orthogonality(s)
    assert not verdict
    assert verdict.witness[0:2] == (0, 1)
    assert verdict.witness[2] == Scalar(1)


def test_orthogonality_verdict_is_kept(monkeypatch):
    # one pairwise pass per set; a repeated check returns the same verdict
    import lpcckit.statesets as statesets
    calls = []

    def counting_inner(u, v):
        calls.append(1)
        return inner(u, v)

    monkeypatch.setattr(statesets, "inner", counting_inner)
    s = build_named_set("Domino")
    first = check_mutual_orthogonality(s)
    assert first and len(calls) == 9 * 8 // 2
    assert check_mutual_orthogonality(s) is first
    assert len(calls) == 36


def test_partition_refuses_a_repeated_party():
    for blocks in (((0, 0), (1,)), ((0,), (0, 1))):
        with pytest.raises(ValueError, match="names a party twice"):
            Partition(blocks)


def test_redundancy_witness():
    spec = PartySpec((2, 2, 2))
    s = StateSet(spec, [("a", Vec([1] + [0] * 7)),
                        ("b", Vec([0, 0, 0, 0, 0, 0, 1, 0]))])
    verdict = is_locally_redundant(s)
    assert verdict.redundant
    # discarding the third party keeps the first two factors orthogonal;
    # the reported witness is whichever valid discard is found first
    assert verdict.discarded_parties is not None


def test_s1_irredundant(s1):
    assert not is_locally_redundant(s1)


def test_union_irredundant(union_s):
    assert not is_locally_redundant(union_s)


def ref_redundancy(s: StateSet) -> tuple[bool, tuple[int, ...] | None]:
    """The slice-inner-product redundancy test, as it stood before the
    pair forms took over: discard D when every kept-side slice of one
    state is orthogonal to every kept-side slice of every other."""
    n = s.spec.n_parties
    vecs = s.vectors()
    for k in range(1, n):
        for discard in itertools.combinations(range(n), k):
            kept = tuple(p for p in range(n) if p not in discard)
            idx = GroupIndexer(s.spec.dims, kept)
            slices = [list(idx.nonzero_slices(v).values()) for v in vecs]
            if all(inner(u, w).is_zero()
                   for i, j in itertools.combinations(range(len(vecs)), 2)
                   for u in slices[i] for w in slices[j]):
                return True, discard
    return False, None


def _redundancy_inputs():
    for name in NAMED_SETS:
        if name not in ("S1m", "S2m"):
            yield build_named_set(name)
    yield build_named_set("S1m", m=2)
    yield build_named_set("S2m", m=2)
    for seed in range(60):
        rng = random.Random(seed)
        dims = rng.choice([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)])
        top = min(5, total_dim(dims))
        yield random_product_set(rng, dims, rng.randint(2, top))
        yield random_orthogonal_set(rng, dims, rng.randint(2, 3),
                                    complex_amps=seed % 2 == 1)
        yield random_biseparable_322(rng, rng.randint(2, 6))


def test_redundancy_matches_the_slice_reference():
    seen = redundant = 0
    for s in _redundancy_inputs():
        verdict = is_locally_redundant(s)
        want = ref_redundancy(s)
        assert (verdict.redundant, verdict.discarded_parties) == want, s.provenance
        seen += 1
        redundant += want[0]
    assert seen == 8 + 3 * 60 and redundant >= 20


def test_union_redundancy_stops_at_the_first_overlapping_pair(union_s, monkeypatch):
    """Each party of UnionS is refused as a discard before its last pair
    form: the lazy forms stop at the first nonzero one."""
    real, counts = statesets._pair_rows, []

    def counting(s, group):
        counts.append(0)
        for form in real(s, group):
            counts[-1] += 1
            yield form

    monkeypatch.setattr(statesets, "_pair_rows", counting)
    assert not is_locally_redundant(union_s)
    # three parties, 351 pairs of 27 states each
    assert len(counts) == 3 and max(counts) < 27 * 26 // 2


def test_union_supports_disjoint(union_s):
    ranges = {"S2": ((0, 1, 2), (0, 1), (0, 1, 2)),
              "S2p": ((3, 4, 5), (2, 3, 4), (3, 4)),
              "S2pp": ((6, 7), (5, 6, 7), (5, 6, 7))}
    for tag, want in ranges.items():
        sub = StateSet(union_s.spec,
                       [(l, v) for l, v in union_s.states if l.startswith(tag + ":")])
        got = tuple(group_support(sub, (p,))[2] for p in range(3))
        assert got == want
    for party in range(3):
        seen = set()
        for tag in ranges:
            block = set(ranges[tag][party])
            assert not (seen & block)
            seen |= block


def test_merge_s2_a_bc(s2):
    merged = merge_parties(s2, Partition(((0,), (1, 2))))
    assert merged.spec.dims == (3, 6)
    assert check_mutual_orthogonality(merged)


def test_merge_trivial_identity(s1):
    merged = merge_parties(s1, Partition.trivial(3))
    assert merged.spec.dims == s1.spec.dims
    assert [v for _, v in merged.states] == [v for _, v in s1.states]


def test_merge_preserves_inner_products():
    rng = random.Random(5)
    for _ in range(10):
        s = random_orthogonal_set(rng, (2, 3, 2), 4, complex_amps=True)
        parts = [Partition(((0,), (1, 2))), Partition(((1,), (2, 0))),
                 Partition(((0, 2), (1,)))]
        p = rng.choice(parts)
        merged = merge_parties(s, p)
        for i in range(len(s)):
            for j in range(len(s)):
                assert inner(s.vectors()[i], s.vectors()[j]) == \
                    inner(merged.vectors()[i], merged.vectors()[j])


def test_separability_full_product():
    spec = PartySpec((2, 2, 2))
    v = Vec([1] + [0] * 7)
    m, part = separability_degree(v, spec)
    assert m == 3


def test_separability_s1_state_biseparable(s1):
    m, part = separability_degree(s1.state("1"), s1.spec)
    assert m == 2
    assert part.blocks == ((0,), (1, 2))


def test_separability_entangled():
    spec = PartySpec((2, 2))
    m, _ = separability_degree(Vec([1, 0, 0, 1]), spec)
    assert m == 1


def test_separability_scale_invariant(s1):
    v = s1.state("1")
    m1, _ = separability_degree(v, s1.spec)
    m2, _ = separability_degree(v.scale(Scalar(-7, 3)), s1.spec)
    assert m1 == m2


def test_json_round_trip(s2):
    back = StateSet.loads(s2.dumps())
    assert back.spec.dims == s2.spec.dims
    assert back.labels() == s2.labels()
    assert all(a == b for (_, a), (_, b) in zip(back.states, s2.states))


def test_json_round_trip_fractional_complex():
    from fractions import Fraction
    spec = PartySpec((2,))
    v = Vec([Scalar(Fraction(1, 3), Fraction(-2, 7)), Scalar(0, 1)])
    s = StateSet(spec, [("x", v)])
    back = StateSet.loads(s.dumps())
    assert back.state("x") == v


def test_restrict_support():
    spec = PartySpec((3, 3))
    s = StateSet(spec, [("a", Vec([0, 1, 0, 0, 0, 0, 0, 0, 0])),
                        ("b", Vec([0, 0, 0, 0, 0, 0, 0, 1, 0]))])
    small = restrict_support(s)
    assert small.spec.dims == (2, 1)
    assert check_mutual_orthogonality(small)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    p = Partition(((0,), (1,)))
    with pytest.raises(ValueError):
        p.validate(PartySpec((2, 2, 2)))


# ---------------------------------------------------------------------------
# differential test of the index map: the per-entry re-indexings as they
# stood before every re-indexing read one GroupIndexer cell table or one
# digit relabel, kept verbatim as the reference (closures lifted to
# functions of what they captured)

def ref_permute_axes(v: Vec, dims, perm) -> Vec:
    """Reorder parties: new party p is old party perm[p]."""
    new_dims = [dims[p] for p in perm]
    out = [ZERO] * v.dim
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, dims)
        out[index_of([d[p] for p in perm], new_dims)] = amp
    return Vec(out)


def ref_embed_with_offsets(v: Vec, old_dims, new_dims, offsets) -> Vec:
    """Shift every party's digits by an offset into larger local spaces."""
    for od, nd, off in zip(old_dims, new_dims, offsets):
        if off < 0 or off + od > nd:
            raise ValueError("offset pushes digits outside the new local space")
    out = [ZERO] * total_dim(new_dims)
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, old_dims)
        out[index_of([x + off for x, off in zip(d, offsets)], new_dims)] = amp
    return Vec(out)


class RefGroupIndexer:
    """Splits flat indices into (group, rest) parts for a party group.

    The group is an ordered tuple of party positions; its internal digit
    order is the listed order, so non-contiguous and reordered groups
    (e.g. measuring parties (2, 0) jointly) work uniformly.
    """

    def __init__(self, dims, group):
        n = len(dims)
        group = tuple(group)
        if len(set(group)) != len(group) or any(p < 0 or p >= n for p in group):
            raise ValueError(f"invalid party group {group} for {n} parties")
        self.dims = tuple(dims)
        self.group = group
        self.rest = tuple(p for p in range(n) if p not in group)
        self.group_dims = tuple(dims[p] for p in group)
        self.rest_dims = tuple(dims[p] for p in self.rest)
        self.group_dim = total_dim(self.group_dims)
        self.rest_dim = total_dim(self.rest_dims)
        st = strides(dims)
        g_str = [st[p] for p in group]
        r_str = [st[p] for p in self.rest]
        # flat[g][r] = global index with group digits g and rest digits r
        g_offsets = []
        for g in range(self.group_dim):
            gd = digits_of(g, self.group_dims) if group else ()
            g_offsets.append(sum(x * s for x, s in zip(gd, g_str)))
        r_offsets = []
        for r in range(self.rest_dim):
            rd = digits_of(r, self.rest_dims) if self.rest else ()
            r_offsets.append(sum(x * s for x, s in zip(rd, r_str)))
        self._g_offsets = g_offsets
        self._r_offsets = r_offsets

    def flat(self, g: int, r: int) -> int:
        return self._g_offsets[g] + self._r_offsets[r]

    def local_vectors(self, v: Vec) -> list[Vec]:
        """Group-side slices u^r: u^r[g] = v[flat(g, r)], one per rest index."""
        out = []
        for r in range(self.rest_dim):
            out.append(Vec([v.entries[self.flat(g, r)] for g in range(self.group_dim)]))
        return out

    def assemble(self, slices) -> Vec:
        out = [ZERO] * (self.group_dim * self.rest_dim)
        for r, u in enumerate(slices):
            for g in range(self.group_dim):
                out[self.flat(g, r)] = u.entries[g]
        return Vec(out)

    def apply_operator(self, op: Mat, v: Vec) -> Vec:
        """(op on group) tensor (identity on rest) applied to v."""
        if op.rows != self.group_dim or op.cols != self.group_dim:
            raise ValueError("operator does not match group dimension")
        out = [ZERO] * v.dim
        for r in range(self.rest_dim):
            sub = Vec([v.entries[self.flat(g, r)] for g in range(self.group_dim)])
            if sub.is_zero():
                continue
            image = mat_vec(op, sub)
            for g in range(self.group_dim):
                out[self.flat(g, r)] = image.entries[g]
        return Vec(out)

    def factor(self, v: Vec):
        """(group factor, rest factor) when v is a product across
        group | rest, else None; their tensor product is a nonzero
        multiple of v."""
        m = Mat(tuple(v.entries[self.flat(g, r)] for r in range(self.rest_dim))
                for g in range(self.group_dim))
        if rank(m) != 1:
            return None
        g0, r0 = m.first_nonzero()
        return m.col(r0), m.row(g0)


def ref_merge_remap(v: Vec, old_dims, blocks) -> Vec:
    new_dims = tuple(total_dim([old_dims[q] for q in b]) for b in blocks)
    block_dims = [tuple(old_dims[q] for q in b) for b in blocks]
    out = [ZERO] * v.dim
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, old_dims)
        new_digits = [index_of([d[q] for q in b], bd)
                      for b, bd in zip(blocks, block_dims)]
        out[index_of(new_digits, new_dims)] = amp
    return Vec(out)


def ref_restrict_remap(v: Vec, dims, new_dims, maps) -> Vec:
    out = [ZERO] * total_dim(new_dims)
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, dims)
        out[index_of([maps[p][d[p]] for p in range(len(dims))], new_dims)] = amp
    return Vec(out)


def ref_local_support_indices(s: StateSet, party: int) -> tuple[int, ...]:
    """Computational-basis indices the set touches on one party."""
    out: set[int] = set()
    dims = s.spec.dims
    for _, v in s.states:
        for i, amp in enumerate(v.entries):
            if not amp.is_zero():
                out.add(digits_of(i, dims)[party])
    return tuple(sorted(out))


INDEX_DIMS = [(3,), (2, 3), (3, 1, 2), (2, 3, 1, 2), (2, 2, 3, 2)]


def _gauss(rng: random.Random) -> Scalar:
    x = Scalar(0)
    while x.is_zero():
        x = Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
    return x


def _sparse_vec(rng: random.Random, dim: int) -> Vec:
    out = [ZERO] * dim
    for i in rng.sample(range(dim), min(dim, rng.randint(1, 3))):
        out[i] = _gauss(rng)
    return Vec(out)


def _basis_ray(rng: random.Random, dims) -> Vec:
    out = [ZERO] * total_dim(dims)
    out[rng.randrange(len(out))] = _gauss(rng)
    return Vec(out)


def _index_sample(rng: random.Random, dims) -> list[Vec]:
    """Two sparse vectors, one fully product vector, one basis ray."""
    product = tensor(*(_sparse_vec(rng, d) for d in dims))
    return [_sparse_vec(rng, total_dim(dims)), _sparse_vec(rng, total_dim(dims)),
            product, _basis_ray(rng, dims)]


def _rational(rng: random.Random) -> Scalar:
    """A nonzero Gaussian rational, mostly with a denominator above 1."""
    x = Scalar(0)
    while x.is_zero():
        x = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return x


def _rational_sample(rng: random.Random, dims) -> list[Vec]:
    """A fully product vector, a vector that is a product across no cut
    (all of its entries are nonzero and entry 0 is perturbed off the
    product), and a sparse vector, all with non-unit denominators."""
    factors = [Vec([_rational(rng) for _ in range(d)]) for d in dims]
    product = tensor(*factors)
    bent = list(product.entries)
    bent[0] = bent[0] * Scalar(2)
    sparse = [ZERO] * total_dim(dims)
    for i in rng.sample(range(len(sparse)), min(len(sparse), 3)):
        sparse[i] = _rational(rng)
    return [product, Vec(bent), Vec(sparse)]


def _support_maps(s: StateSet):
    """Local dimensions and digit maps that drop the unused basis indices."""
    keeps = [ref_local_support_indices(s, p) for p in range(s.spec.n_parties)]
    return (tuple(len(k) for k in keeps),
            [{old: new for new, old in enumerate(k)} for k in keeps])


def _ordered_groups(n: int):
    for k in range(n + 1):
        yield from itertools.permutations(range(n), k)


def _ordered_partitions(n: int):
    """Every list of ordered blocks covering range(n): a party order cut
    into consecutive blocks."""
    for order in itertools.permutations(range(n)):
        for cuts in itertools.product((False, True), repeat=n - 1):
            blocks, cur = [], [order[0]]
            for q, cut in zip(order[1:], cuts):
                if cut:
                    blocks.append(tuple(cur))
                    cur = []
                cur.append(q)
            blocks.append(tuple(cur))
            yield tuple(blocks)


@pytest.mark.parametrize("dims", INDEX_DIMS)
def test_index_map_matches_per_entry_reference(dims):
    rng = random.Random(str(dims))
    vecs = _index_sample(rng, dims)
    rational = _rational_sample(rng, dims)
    n = len(dims)
    for group in _ordered_groups(n):
        new, ref = GroupIndexer(dims, group), RefGroupIndexer(dims, group)
        assert (new.group_dim, new.rest_dim) == (ref.group_dim, ref.rest_dim)
        assert all(new.flat(g, r) == ref.flat(g, r)
                   for g in range(ref.group_dim) for r in range(ref.rest_dim))
        op = Mat([[_gauss(rng) if rng.random() < 0.5 else ZERO
                   for _ in range(ref.group_dim)] for _ in range(ref.group_dim)])
        for v in vecs:
            slices = ref.local_vectors(v)
            assert new.local_vectors(v) == slices
            nonzero = new.nonzero_slices(v)
            assert list(nonzero.items()) == [(r, u) for r, u in enumerate(slices)
                                             if not u.is_zero()]
            assert new.assemble(slices) == ref.assemble(slices) == v
            assert new.apply_operator(op, v) == ref.apply_operator(op, v)
            assert new.factor(v) == ref.factor(v)
        assert new.factor(vecs[2]) is not None
        for v in rational:
            assert new.factor(v) == ref.factor(v)
        assert new.factor(rational[0]) is not None
        if ref.group_dim > 1 and ref.rest_dim > 1:
            assert new.factor(rational[1]) is None
    for perm in itertools.permutations(range(n)):
        for v in vecs:
            assert permute_axes(v, dims, perm) == ref_permute_axes(v, dims, perm)
    s = StateSet(PartySpec(dims), [(str(i), v) for i, v in enumerate(vecs)])
    for blocks in _ordered_partitions(n):
        merged = merge_parties(s, Partition(blocks))
        assert merged.vectors() == tuple(ref_merge_remap(v, dims, blocks)
                                         for v in vecs)
    new_dims, maps = _support_maps(s)
    for v in vecs:
        assert (relabel_digits(v, dims, new_dims, maps)
                == ref_restrict_remap(v, dims, new_dims, maps))
    # basis rays have computational party supports, so restriction applies
    rays = StateSet(s.spec, [(str(i), _basis_ray(rng, dims)) for i in range(3)])
    new_dims, maps = _support_maps(rays)
    assert restrict_support(rays).vectors() == tuple(
        ref_restrict_remap(v, dims, new_dims, maps) for v in rays.vectors())
    big = tuple(d + rng.randint(0, 3) for d in dims)
    offsets = [rng.randint(0, b - d) for d, b in zip(dims, big)]
    for v in vecs:
        assert (embed_with_offsets(v, dims, big, offsets)
                == ref_embed_with_offsets(v, dims, big, offsets))
    bad = [b - d + 1 for d, b in zip(dims, big)]
    for embed in (embed_with_offsets, ref_embed_with_offsets):
        with pytest.raises(ValueError):
            embed(vecs[0], dims, big, bad)


def test_indexer_rejects_states_of_another_dimension():
    # a too-long state used to be read through the first rows only
    idx = GroupIndexer((2, 3), (0,))
    op = Mat([[1, 0], [0, 0]])
    for dim in (7, 5):
        v = Vec([Scalar(1)] * dim)
        for read in (idx.factor, lambda v: idx.apply_operator(op, v),
                     idx.nonzero_slices):
            with pytest.raises(ValueError):
                read(v)


def test_random_product_set_refuses_impossible_state_counts():
    # 2x2 has four product-basis tuples; asking for five used to loop forever
    for n in (-1, 0, 5):
        with pytest.raises(ValueError, match="between 1 and 4"):
            random_product_set(random.Random(1), (2, 2), n)
    full = random_product_set(random.Random(1), (2, 2), 4)
    assert len(full) == 4 and check_mutual_orthogonality(full)
