"""The pair-form builder against the dense matrices it replaced.

`opsolve._pair_rows` builds each state pair's form C_ij as Gaussian-integer
rows straight from the states' `int_slices`, over lcm(F_i)^2. It replaced
three steps, kept below verbatim as the reference: `constraint_matrices`
built every C_ij as a dense `Scalar` matrix, `_restrict` cut it to the
working coordinates, and `_int_rows` re-read the restricted matrices as
integer rows over their own shared denominator. On every proper group of
Domino, S1, S2, S2' and S2'', UnionS's single parties, the parties of the
branches of S1's and S2's first rounds on AB and BC, planted sets and
random product sets with complex amplitudes:
- restricted to the working coordinates, the new rows are the reference
  rows times one positive integer per group;
- with the reference rows in its place, rank-1 reports, PVM enumerations,
  diagonal subsets and irreducibility verdicts are identical.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from lpcckit import opsolve
from lpcckit.exact import Mat, ZERO, _wrap, sort_keys, tensor
from lpcckit.generators import planted_direction_set, random_orthogonal_basis
from lpcckit.indexing import indexer
from lpcckit.measurements import apply
from lpcckit.opsolve import (MAX_EXACT_DIM, _pair_rows, _restricted,
                             clear_caches, diagonal_op_subsets,
                             enumerate_op_pvms, is_pvm_irreducible,
                             rank1_op_directions)
from lpcckit.statesets import (Partition, PartySpec, StateSet,
                               build_named_set, group_support)


# ---------------------------------------------------------------------------
# reference: the dense pair matrices, their restriction and integer read

@dataclass(frozen=True)
class ConstraintMatrix:
    group: tuple[int, ...]
    pair: tuple[int, int]
    mat: Mat


def constraint_matrices(s: StateSet, group: Sequence[int]) -> list[ConstraintMatrix]:
    """One matrix per unordered pair; exact entries."""
    idx = indexer(s.spec.dims, group)
    slices = [idx.nonzero_slices(v) for v in s.vectors()]
    d = idx.group_dim
    out = []
    for i in range(len(slices)):
        for j in range(i + 1, len(slices)):
            rows = [[ZERO] * d for _ in range(d)]
            sj = slices[j]
            for r, ui in slices[i].items():
                uj = sj.get(r)
                if uj is None:
                    continue
                for a in range(d):
                    ca = ui.entries[a].conj()
                    if ca.is_zero():
                        continue
                    row = rows[a]
                    for b in range(d):
                        if not uj.entries[b].is_zero():
                            row[b] = row[b] + ca * uj.entries[b]
            out.append(ConstraintMatrix(tuple(group), (i, j),
                                        _wrap(Mat, tuple(map(tuple, rows)))))
    return out


def _restrict(c: Mat, coords: Sequence[int]) -> Mat:
    return _wrap(Mat, tuple(tuple(c.entries[a][b] for b in coords)
                            for a in coords))


def _int_rows(mats: Sequence[Mat]) -> list[tuple]:
    """Each matrix's nonzero rows as (a, ((b, re, im), ...)) over its
    nonzero entries: the integer numerators of `sort_keys`, over one
    denominator shared by all of them, so equal rows mean equal matrices."""
    return [tuple((a, nz) for a, row in enumerate(key)
                  if (nz := tuple((b, x, y) for b, (x, y) in enumerate(row) if x or y)))
            for key in sort_keys(mats)]


def ref_pair_rows(s: StateSet, group: Sequence[int]) -> list[tuple]:
    """The reference rows on the whole group space, in `_pair_rows`' place.
    Entries off the working coordinates are zero, so restricting these
    rows gives exactly the rows the case split took before."""
    return _int_rows([c.mat for c in constraint_matrices(s, group)])


# ---------------------------------------------------------------------------
# inputs

def _complex_product_set(rng, dims, n_states):
    """n_states distinct products of per-party orthogonal bases with
    Gaussian-rational amplitudes (Gram-Schmidt, so denominators vary)."""
    local = [random_orthogonal_basis(rng, d, complex_amps=True) for d in dims]
    picks = rng.sample(list(itertools.product(*map(range, dims))), n_states)
    return StateSet(PartySpec(dims), [
        (str(i), tensor(*(local[p][x] for p, x in enumerate(pick))))
        for i, pick in enumerate(picks)], provenance="complex-product")


def _proper_groups(s):
    n = s.spec.n_parties
    for size in range(1, n):
        yield from itertools.combinations(range(n), size)


def _inputs():
    for name in ("Domino", "S1", "S2", "S2prime", "S2doubleprime"):
        s = build_named_set(name)
        yield from ((s, g) for g in _proper_groups(s))
    union = build_named_set("UnionS")
    yield from ((union, (p,)) for p in range(3))
    seen = set()
    for name in ("S1", "S2"):
        s = build_named_set(name)
        for block in ((0, 1), (1, 2)):
            for lp in enumerate_op_pvms(s, block):
                for _, br in sorted(apply(s, lp).items()):
                    b = br.states
                    if b is not None and len(b) > 1 and b.ray_key not in seen:
                        seen.add(b.ray_key)
                        yield from ((b, (p,)) for p in range(3))
    rng = random.Random(2410)
    for group_dim in (3, 4):
        for _ in range(5):
            s, _ = planted_direction_set(rng, group_dim=group_dim, n_states=3)
            yield from ((s, g) for g in _proper_groups(s))
    for dims in ((3, 3), (2, 4), (3, 2, 2), (2, 2, 3)) * 2:
        s = _complex_product_set(rng, dims, rng.randint(3, 5))
        yield from ((s, g) for g in _proper_groups(s))


INPUTS = list(_inputs())


# ---------------------------------------------------------------------------
# the comparison

def _scaled(rows: tuple, t: int) -> tuple:
    return tuple((a, tuple((b, x * t, y * t) for b, x, y in row)) for a, row in rows)


def test_rows_are_the_reference_rows_times_one_positive_integer():
    factors = set()
    for s, group in INPUTS:
        coords = group_support(s, group)[2]
        at = {a: j for j, a in enumerate(coords)}
        got = [_restricted(c, at) for c in _pair_rows(s, group)]
        want = _int_rows([_restrict(c.mat, coords)
                          for c in constraint_matrices(s, group)])
        assert [_restricted(c, at) for c in ref_pair_rows(s, group)] == want
        w = next((w for w in want if w), None)
        if w is None:
            assert not any(got)
            continue
        g = got[want.index(w)]
        (_, x, y), (_, u, v) = g[0][1][0], w[0][1][0]
        t = Fraction(x, u) if u else Fraction(y, v)
        assert t > 0 and t.denominator == 1, (s.provenance, group)
        assert got == [_scaled(c, t.numerator) for c in want], (s.provenance, group)
        factors.add(t)
    # the new denominator is a proper multiple of the old one on some groups
    assert len(INPUTS) == 594 and len(factors) > 1


def _results(s, group) -> dict:
    """Every result built on the pair forms, from a cold store."""
    clear_caches()
    out = {"rank1": rank1_op_directions(s, group).to_json(),
           "diagonal": diagonal_op_subsets(s, group)}
    if len(group_support(s, group)[2]) <= MAX_EXACT_DIM:
        for kwargs in ({}, {"max_outcomes": 2}, {"max_pvms": 8}):
            out[str(kwargs)] = [(lp.group, [e.mat.entries for e in lp.pvm.elements])
                                for lp in enumerate_op_pvms(s, group, **kwargs)]
    n = s.spec.n_parties
    verdict = is_pvm_irreducible(s, Partition(
        (group,) + tuple((q,) for q in range(n) if q not in group)))
    out["irreducible"] = (verdict.to_json(), None if verdict.witness is None else
                          [e.mat.entries for e in verdict.witness.pvm.elements])
    clear_caches()
    return out


def test_results_are_identical_on_the_reference_rows(monkeypatch):
    for s, group in INPUTS:
        got = _results(s, group)
        with monkeypatch.context() as m:
            m.setattr(opsolve, "_pair_rows", ref_pair_rows)
            assert _results(s, group) == got, (s.provenance, group)
