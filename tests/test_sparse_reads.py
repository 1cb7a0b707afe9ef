"""The kept sparse reads against the dense reads they replaced, and the
memo safety of what is kept.

`Vec.int_read` feeds `GroupIndexer.int_slices` and `inner`, and
`measurements._int_rows` reads only a PVM element's nonzero entries.
The dense versions they replaced are kept below verbatim as references
(a method became a function of its `self`; `int_rows` was the kernel
helper the old `_int_rows` called). They are compared on every named set,
on the three branch sets of theorem 5's coarse measurement on UnionS, and
on 300 seeded Gaussian-rational vectors and PVMs with zeros and
denominators other than 1.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from lpcckit.exact import Scalar, Vec, ZERO, inner
from lpcckit.indexing import GroupIndexer, indexer, total_dim
from lpcckit.kets import parse_pvm
from lpcckit.measurements import (PVM, LocalPVM, Projector, _image, _int_rows,
                                  apply)
from lpcckit.statesets import (NAMED_SETS, StateSet, build_named_set,
                               group_support)


# ---------------------------------------------------------------------------
# references: the dense reads as they stood before the sparse ones


def ref_int_slices(self, v: Vec) -> tuple[int, dict[int, list[tuple[int, int, int]]]]:
    """(F, slices): v's nonzero slices u^r, keyed by ascending r, each
    the list of (g, a, b) with u^r[g] = (a + b*i)/F over ascending g,
    where F is the lcm of v's denominators; read from v's nonzero
    entries alone."""
    where = self.where
    if v.dim != len(where):
        raise ValueError(f"state dimension {v.dim} does not match "
                         f"the indexer's {len(where)}")
    # sorted by (r, g): a reordered group's g does not grow with i
    nonzeros = sorted([(where[i], x) for i, x in enumerate(v.entries)
                       if x._a or x._b])
    den = lcm(*{x._d for _, x in nonzeros})
    slices: dict[int, list] = {}
    for (r, g), x in nonzeros:
        m = den // x._d
        slices.setdefault(r, []).append((g, x._a * m, x._b * m))
    return den, slices


def ref_inner(u: Vec, v: Vec) -> Scalar:
    """<u|v> with conjugation on the first argument."""
    acc = ZERO
    for a, b in zip(u.entries, v.entries):
        if (a._a or a._b) and (b._a or b._b):
            acc = acc + a.conj() * b
    return acc


def int_rows(mats):
    """(D, rows): one denominator D shared by the matrices, and each of
    them as rows of integer (re, im) numerator pairs over D."""
    den = lcm(*{x._d for m in mats for row in m.entries for x in row})
    return den, [tuple(tuple((x._a * (den // x._d), x._b * (den // x._d))
                             for x in row) for row in m.entries) for m in mats]


def ref_int_rows(lp: LocalPVM) -> tuple[int, list[list]]:
    """One denominator D for the PVM's elements, and each element's
    nonzero rows as (h, row of integer (re, im) numerator pairs over D)."""
    den, mats = int_rows([e.mat for e in lp.pvm.elements])
    return den, [[(h, row) for h, row in enumerate(m) if any(x or y for x, y in row)]
                 for m in mats]


def ref_image(rows, u) -> list[tuple[int, int, int]]:
    """P u on integers: the nonzero (h, re, im) in ascending h, over D*F,
    for P's nonzero rows from `_int_rows` and a slice u of (g, a, b) over F."""
    out = []
    for h, row in rows:
        re = im = 0
        for g, a, b in u:
            x, y = row[g]
            re += x * a - y * b
            im += x * b + y * a
        if re or im:
            out.append((h, re, im))
    return out


# ---------------------------------------------------------------------------
# comparisons


def _groups(n: int):
    """Every proper group, in increasing order and, past one party, reversed."""
    for k in range(1, n):
        for group in itertools.combinations(range(n), k):
            yield group
            if k > 1:
                yield group[::-1]


def assert_same_slices(dims, vecs) -> None:
    for group in _groups(len(dims)):
        idx = indexer(dims, group)
        for v in vecs:
            assert idx.int_slices(v) == ref_int_slices(idx, v)


def assert_same_inner(vecs) -> None:
    for u, v in itertools.product(vecs, repeat=2):
        assert inner(u, v) == ref_inner(u, v)


def assert_same_rows(dims, lp: LocalPVM, vecs) -> int:
    """The sparse rows hold the dense rows' nonzero entries, and every
    state slice has the same image under both; returns how many of those
    images are nonzero."""
    den, rows = _int_rows(lp)
    ref_den, ref_rows = ref_int_rows(lp)
    assert den == ref_den and len(rows) == len(ref_rows)
    for m, ref_m in zip(rows, ref_rows):
        assert [(h, sorted(row.items())) for h, row in m] == [
            (h, [(g, p) for g, p in enumerate(row) if p != (0, 0)]) for h, row in ref_m]
    idx = indexer(dims, lp.group)
    hits = 0
    for v in vecs:
        for u in idx.int_slices(v)[1].values():
            for m, ref_m in zip(rows, ref_rows):
                image = _image(m, u)
                assert image == ref_image(ref_m, u)
                hits += bool(image)
    return hits


def _pvms(d: int):
    """A ray with zeros and denominators other than 1, completed; and a
    split of the computational basis."""
    ray = Vec(([Scalar(1), Scalar(Fraction(1, 2), 1), ZERO, Scalar(-2)] * d)[:d])
    yield PVM.completed([Projector.from_ray(ray)], d)
    yield PVM.completed([Projector.diagonal(range(0, d, 2), d)], d)


def _named_sets() -> list[StateSet]:
    sets = [build_named_set(name, m) for name in NAMED_SETS
            for m in ((1, 2) if name in ("S1m", "S2m") else (None,))]
    union = next(s for s in sets if s.provenance == "UnionS")
    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    branches = [b.states for b in apply(union, coarse).values()]
    assert [len(b) for b in branches] == [9, 9, 9]
    return sets + branches


NAMED = _named_sets()


@pytest.mark.parametrize("s", NAMED, ids=lambda s: s.provenance)
def test_named_set_reads_match_dense_reference(s):
    vecs = s.vectors()
    assert_same_slices(s.spec.dims, vecs)
    assert_same_inner(vecs)


@pytest.mark.parametrize("s", NAMED, ids=lambda s: s.provenance)
def test_named_set_pvm_rows_match_dense_reference(s):
    dims = s.spec.dims
    hits = 0
    for group in _groups(len(dims)):
        for pvm in _pvms(indexer(dims, group).group_dim):
            hits += assert_same_rows(dims, LocalPVM(pvm, group), s.vectors())
    assert hits


def _gauss(rng: random.Random) -> Scalar:
    """Zero half the time, else a Gaussian rational with small numerators
    and denominators up to 6."""
    if rng.random() < 0.5:
        return ZERO
    return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 6)))


DIMS = [(2, 3), (3, 2, 2), (2, 2, 3), (4, 1, 2), (3, 3)]


def test_random_reads_match_dense_reference():
    rng = random.Random(19)
    seen_dens = set()
    hits = 0
    for trial in range(300):
        dims = DIMS[trial % len(DIMS)]
        vecs = []
        while len(vecs) < 3:
            v = Vec([_gauss(rng) for _ in range(total_dim(dims))])
            if not v.is_zero():
                vecs.append(v)
        seen_dens.add(vecs[0].int_read()[0])
        assert_same_slices(dims, vecs)
        assert_same_inner(vecs)
        group = tuple(rng.sample(range(len(dims)), rng.randint(1, len(dims))))
        d = indexer(dims, group).group_dim
        ray = Vec([_gauss(rng) for _ in range(d)])
        if ray.is_zero():
            p = Projector.diagonal(rng.sample(range(d), rng.randint(0, d)), d)
        else:
            p = Projector.from_ray(ray)
        hits += assert_same_rows(dims, LocalPVM(PVM.completed([p], d), group), vecs)
    assert len(seen_dens) > 10 and hits


# ---------------------------------------------------------------------------
# memo safety: kept reads are immutable, and shared objects are the same


def test_int_read_is_kept_and_immutable():
    v = Vec([0, Scalar(Fraction(1, 2), 1), 0, Scalar(0, Fraction(-2, 3))])
    read = v.int_read()
    assert read is v.int_read()
    assert read == (6, ((1, 3, 6), (3, 0, -4)))
    assert type(read) is tuple and type(read[1]) is tuple
    assert all(type(t) is tuple for t in read[1])
    # vectors the kernel builds start without the memo and read alike
    w = v + v
    assert w.int_read() == (3, ((1, 3, 6), (3, 0, -4)))
    assert v == Vec(v.entries) and hash(v) == hash(Vec(v.entries))


def test_group_support_hands_out_copies(s2):
    s = StateSet(s2.spec, s2.states)
    first = group_support(s, (1,))
    support = first[0]
    kept = list(support)
    support.clear()
    support.append(Vec([1, 1]))
    again = group_support(s, [1])
    assert again[0] == kept and again[0] is not support
    assert again[1:] == first[1:]


def test_indexer_is_shared_and_its_tables_are_tuples():
    idx = indexer([3, 2, 3], [2, 0])
    assert idx is indexer((3, 2, 3), (2, 0))
    assert idx is not indexer((3, 2, 3), (0, 2))
    assert isinstance(idx, GroupIndexer)
    assert type(idx.where) is tuple and type(idx.cells) is tuple
    assert all(type(row) is tuple for row in idx.cells)
    with pytest.raises(ValueError):
        indexer((3, 2, 3), (0, 0))
