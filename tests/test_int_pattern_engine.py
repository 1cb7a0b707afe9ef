"""The Gaussian-integer pattern engine against the Scalar engine it replaced.

`opsolve._recurse` takes each open pattern's pair forms as integer rows
(`_pair_rows`: numerators over the group's one denominator lcm(F_i)^2,
which is dropped), and `_live_patterns` walks integer vectors. The Scalar versions
they replaced are kept below verbatim as references: `_recurse`,
`_reduced_form`, `_binary_endgame` and `form_value`, and `_live_patterns`
with `_operator_space` and `_vanishing_on`. On every proper party group
of Domino, S1 and S2 (S1 AC and S2 AC included), on 30 planted-direction
sets and on seeded random product sets, the live sets, the matrices handed
to each open pattern's case split and its outcomes (tags and exact
payloads) must be equal.
"""

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

import pytest

from lpcckit import opsolve
from lpcckit.exact import (Mat, Scalar, Vec, ZERO, _nonzeros, _wrap, nullspace,
                           nullspace_with_free, rank, tensor)
from lpcckit.generators import planted_direction_set, random_product_set
from lpcckit.indexing import indexer
from lpcckit.opsolve import (Family, _pair_rows, _quad_on_line, _quad_value,
                             _solve_affine, _support_patterns, clear_caches,
                             rank1_op_directions)
from lpcckit.statesets import (PartySpec, StateSet, build_named_set,
                               group_support)


# ---------------------------------------------------------------------------
# references: the Scalar engine as it stood before the integer one

def form_value(c: Mat, theta: Vec) -> Scalar:
    """F(theta) = sum theta_a conj(theta_b) C[a][b]."""
    acc = ZERO
    for a, ta in enumerate(theta.entries):
        if ta.is_zero():
            continue
        row = c.entries[a]
        for b, tb in enumerate(theta.entries):
            if not tb.is_zero() and not row[b].is_zero():
                acc = acc + ta * tb.conj() * row[b]
    return acc



def _reduced_form(c: Mat, basis: list[Vec]) -> Mat:
    """M = N C N^dagger, M[k][l] = sum_{a,b} N_k[a] C[a][b] conj(N_l[b]):
    w_l = C conj(N_l) once per l, then M[k][l] = sum_a N_k[a] w_l[a], each
    over nonzero entries only."""
    nz = [_nonzeros(n.entries) for n in basis]
    crows = [(a, row) for a, row in enumerate(map(_nonzeros, c.entries)) if row]
    ws = []
    for nl in nz:
        conj_l = {b: x.conj() for b, x in nl}
        w = {}
        for a, row in crows:
            acc = ZERO
            for b, x in row:
                y = conj_l.get(b)
                if y is not None:
                    acc = acc + x * y
            if not acc.is_zero():
                w[a] = acc
        ws.append(w)
    rows = []
    for nk in nz:
        row = []
        for w in ws:
            acc = ZERO
            for a, x in nk:
                y = w.get(a)
                if y is not None:
                    acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return _wrap(Mat, tuple(rows))


def _recurse(cmats: list[Mat], k: int, lin_rows: list[list[Scalar]]) -> list[tuple]:
    """Solve one support pattern: cmats are restricted to the pattern's k
    coordinates. Returns (tag, payload) outcomes with tag in
    contradiction/solution/family/unresolved.

    Every nested call adds one row that is a nonzero functional on the
    current nullspace, so it has exactly one free parameter fewer than its
    caller. The top call has f = k, and only calls with f >= 2 recurse, so
    f never reaches 0, the calls that split further sit at most k - 2
    levels deep, and the deepest call (f = 1) at k - 1: the case split
    needs no depth bound."""
    # the l-th parameter equals theta's coordinate free[l]
    basis, free = nullspace_with_free(Mat(lin_rows or [[ZERO] * k]))
    f = len(basis)
    for w in range(k):
        if all(b.entries[w].is_zero() for b in basis):
            return [("contradiction", f"coordinate {w} forced to zero")]
    if f == 1:
        # the loop above already refused a zero coordinate of the one ray
        theta = basis[0]
        if all(form_value(c, theta).is_zero() for c in cmats):
            return [("solution", theta.normalized_leading())]
        return [("contradiction", "unique ray violates a pair constraint")]

    reduced = []
    for c in cmats:
        m = _reduced_form(c, basis)
        if m.is_zero():
            continue
        reduced.append(m)
        # the form value must vanish as a complex number, so its Hermitian
        # and anti-Hermitian parts give two independent real constraints;
        # the split parts are often lower-rank than the original
        # (a zero part leaves the other equal to 2m, which adds nothing)
        mh = m.conj_transpose()
        herm = m + mh
        skew = m - mh
        if not herm.is_zero() and not skew.is_zero():
            reduced.append(herm)
            reduced.append(skew)
    if not reduced:
        return [("family", Family(kind="subspace", basis=tuple(basis)))]

    # linear propagation: a reduced form with a single nonzero row or
    # column yields a linear condition because the matching parameter is a
    # nonzero support coordinate
    for m in reduced:
        nz_rows = [i for i in range(f) if any(not x.is_zero() for x in m.entries[i])]
        nz_cols = [j for j in range(f) if any(not m.entries[i][j].is_zero() for i in range(f))]
        if len(nz_rows) == 1:
            r = nz_rows[0]
            new_row = [ZERO] * k
            for l in range(f):
                new_row[free[l]] = m.entries[r][l].conj()
            return _recurse(cmats, k, lin_rows + [new_row])
        if len(nz_cols) == 1:
            cidx = nz_cols[0]
            new_row = [ZERO] * k
            for kk in range(f):
                new_row[free[kk]] = m.entries[kk][cidx]
            return _recurse(cmats, k, lin_rows + [new_row])

    if f == 2:
        return _binary_endgame(cmats, k, basis, free, reduced)

    # rank-1 reduced form: the constraint factors into two linear pieces
    for m in reduced:
        if rank(m) == 1:
            r0, c0 = m.first_nonzero()
            row_a = [ZERO] * k
            row_b = [ZERO] * k
            for kk in range(f):
                row_a[free[kk]] = m.entries[kk][c0]
            for ll in range(f):
                row_b[free[ll]] = m.entries[r0][ll].conj()
            out = _recurse(cmats, k, lin_rows + [row_a])
            out += _recurse(cmats, k, lin_rows + [row_b])
            return out

    return [("unresolved",
             "constraints stay above rank 1 with three or more free parameters")]


def _binary_endgame(cmats: list[Mat], k: int, basis: list[Vec], free: list[int],
                    reduced: list[Mat]) -> list[tuple]:
    """Exact solve of F = M00 + conj(t)M01 + tM10 + |t|^2 M11 = 0 per pair,
    with theta = N0 + t N1 and both free coordinates nonzero."""
    real_rows = []   # (gamma, alpha, beta, const) for gamma(x^2+y^2)+ax+by+c=0
    for m in reduced:
        m00, m01, m10, m11 = (m.entries[0][0], m.entries[0][1],
                              m.entries[1][0], m.entries[1][1])
        real_rows.append((m11.re, m01.re + m10.re, m01.im - m10.im, m00.re))
        real_rows.append((m11.im, m01.im + m10.im, m10.re - m01.re, m00.im))
    real_rows = [r for r in real_rows if any(x != 0 for x in r)]

    quad = None
    affine = []
    for row in real_rows:
        if row[0] != 0:
            if quad is None:
                quad = row
            else:
                g = Fraction(row[0], quad[0])
                affine.append(tuple(row[i] - g * quad[i] for i in range(4))[1:])
        else:
            affine.append(row[1:])
    affine = [r for r in affine if any(x != 0 for x in r)]

    def emit(tau: Scalar) -> tuple | None:
        theta = basis[0] + basis[1].scale(tau)
        if any(a.is_zero() for a in theta.entries):
            return None
        if all(form_value(c, theta).is_zero() for c in cmats):
            return ("solution", theta.normalized_leading())
        return None

    sol = _solve_affine(affine)
    if sol == "inconsistent":
        return [("contradiction", "endgame affine system inconsistent")]
    if isinstance(sol, tuple):                       # unique rational point
        tau = Scalar(sol[0], sol[1])
        if quad is not None and not _quad_value(quad, sol[0], sol[1]) == 0:
            return [("contradiction", "endgame point misses the quadratic")]
        got = emit(tau)
        return [got] if got else [("contradiction", "endgame point off-support")]
    if isinstance(sol, list):
        base, direction = sol
        if quad is None:
            fam = Family(kind="real-line",
                         base=basis[0] + basis[1].scale(Scalar(base[0], base[1])),
                         step=basis[1].scale(Scalar(direction[0], direction[1])))
            return [("family", fam)]
        roots = _quad_on_line(quad, base, direction)
        if roots == "none":
            return [("contradiction", "endgame quadratic has no real roots on the line")]
        if roots == "irrational":
            return [("unresolved", "irrational endgame roots")]
        out = []
        for x, y in roots:
            got = emit(Scalar(x, y))
            if got:
                out.append(got)
        return out or [("contradiction", "endgame roots off-support")]
    # no affine information at all
    if quad is None:
        return [("family", Family(kind="subspace", basis=tuple(basis)))]
    g, a, b, c = quad
    cx, cy = Fraction(-a, 2 * g), Fraction(-b, 2 * g)
    r2 = cx * cx + cy * cy - Fraction(c, g)
    if r2 < 0:
        return [("contradiction", "endgame circle is empty")]
    if r2 == 0:
        got = emit(Scalar(cx, cy))
        return [got] if got else [("contradiction", "endgame point off-support")]
    fam = Family(kind="circle", base=basis[0], step=basis[1],
                 center=Scalar(cx, cy), radius2=r2)
    return [("family", fam)]



def _live_patterns(cmats: list[Mat], k: int) -> set[tuple[int, ...]]:
    """The support patterns that the operator space L leaves open.

    L holds the k x k operators E with sum E[a][b] C[a][b] = 0 and
    sum E[a][b] conj(C[b][a]) = 0 for every pair matrix C; over C it is
    spanned by the Hermitian operators that preserve orthogonality. A
    rank-1 solution theta with support exactly P puts theta theta^dagger
    in L_P, the part of L vanishing outside P x P, with a nonzero diagonal
    on all of P, and so does the generic member of any family on P. So P
    can hold a solution only if each of its coordinates has a nonzero
    diagonal in some basis element of L_P. Patterns are walked depth first
    from the full set, removing coordinates in increasing order; since L_Q
    lies inside L_P when Q lies inside P, an empty L_P closes its subtree.
    """
    cells = [(a, b) for a in range(k) for b in range(k)]
    space = [v.entries for v in _operator_space(cmats, cells)]
    live: set[tuple[int, ...]] = set()

    def walk(pattern: tuple[int, ...], space: list, start: int) -> None:
        if all(any(not e[a * k + a].is_zero() for e in space) for a in pattern):
            live.add(pattern)
        if len(pattern) == 1:
            return
        for pos in range(start, len(pattern)):
            sub = _vanishing_on(space, pattern[pos], pattern, k)
            if sub:
                walk(pattern[:pos] + pattern[pos + 1:], sub, pos)

    if space:
        walk(tuple(range(k)), space, 0)
    return live


def _operator_space(cmats: list[Mat], cells: Sequence[tuple[int, int]]
                    ) -> list[Vec]:
    """Basis of L on the unknowns E[a][b], (a, b) in cells, with every
    other entry of E held at zero: sum E[a][b] C[a][b] = 0 and
    sum E[a][b] conj(C[b][a]) = 0 for each pair matrix C."""
    rows = []
    for c in cmats:
        e = c.entries
        for row in ([e[a][b] for a, b in cells],
                    [e[b][a].conj() for a, b in cells]):
            if any(not x.is_zero() for x in row):
                rows.append(row)
    return nullspace(Mat(rows or [[ZERO] * len(cells)]))


def _vanishing_on(space: list, c: int, pattern: tuple[int, ...],
                  k: int) -> list:
    """Basis of the elements of span(space) whose row c and column c
    vanish; space's elements already vanish outside pattern x pattern."""
    rows = [[e[c * k + j] for e in space] for j in pattern]
    rows += [[e[j * k + c] for e in space] for j in pattern if j != c]
    rows = [r for r in rows if any(not x.is_zero() for x in r)]
    if not rows:
        return space
    out = []
    for coeffs in nullspace(Mat(rows)):
        acc = [ZERO] * (k * k)
        for x, e in zip(coeffs.entries, space):
            if x.is_zero():
                continue
            for t, y in enumerate(e):
                if not y.is_zero():
                    acc[t] = acc[t] + x * y
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the comparison


def _rows_over(m: Mat, den: int) -> tuple:
    """m's nonzero rows as the case split takes them, (a, ((b, re, im),
    ...)): the integer numerators over den of each row's nonzero entries."""
    return tuple((a, nz) for a, row in enumerate(m.entries)
                 if (nz := tuple((b, int(x.re * den), int(x.im * den))
                                 for b, x in enumerate(row) if not x.is_zero())))


def _pair_den(s, group) -> int:
    """The denominator of `_pair_rows`: lcm(F_i)^2 over the states' int
    slices."""
    idx = indexer(s.spec.dims, group)
    return lcm(*(idx.int_slices(v)[0] for v in s.vectors())) ** 2


def _pair_matrices(s, group) -> list[Mat]:
    """Each pair form of `_pair_rows` as its exact matrix: its integer
    rows divided by `_pair_den`."""
    den, d = _pair_den(s, group), indexer(s.spec.dims, group).group_dim
    out = []
    for rows in _pair_rows(s, group):
        m = [[ZERO] * d for _ in range(d)]
        for a, row in rows:
            for b, x, y in row:
                m[a][b] = Scalar(Fraction(x, den), Fraction(y, den))
        out.append(Mat(m))
    return out


def _restrict(c: Mat, coords) -> Mat:
    return Mat([[c.entries[a][b] for b in coords] for a in coords])


def _reference_solve(s, group):
    """The live set and, per open pattern in walk order, the pair matrices
    the Scalar engine handed to its case split and the outcomes it got."""
    coords = group_support(s, group)[2]
    k = len(coords)
    cm_small = [_restrict(c, coords) for c in _pair_matrices(s, group)]
    live = _live_patterns(cm_small, k)
    runs = []
    for pattern in _support_patterns(k):
        if pattern not in live:
            continue
        sub = [_restrict(c, pattern) for c in cm_small]
        sub = list(dict.fromkeys(m for m in sub if not m.is_zero()))
        runs.append((sub, _recurse(sub, len(pattern), [])))
    return cm_small, live, runs


def _engine_solve(monkeypatch, s, group):
    """Per open pattern, what `rank1_op_directions` handed the integer
    engine's case split and the outcomes it got, from a cold store."""
    real_recurse = opsolve._recurse
    runs = []

    def recurse(cmats, k, lin_rows):
        out = real_recurse(cmats, k, lin_rows)
        if not lin_rows:                  # one top-level call per pattern
            runs.append((cmats, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(opsolve, "_recurse", recurse)
        clear_caches()
        rank1_op_directions(s, group)
    clear_caches()
    return runs


def _assert_engines_agree(monkeypatch, s, group) -> int:
    cm_small, live, reference = _reference_solve(s, group)
    den = _pair_den(s, group)
    assert opsolve._live_patterns([_rows_over(m, den) for m in cm_small],
                                  len(cm_small[0].entries)) == live
    runs = _engine_solve(monkeypatch, s, group)
    assert len(runs) == len(reference)
    for (handed, got), (sub, want) in zip(runs, reference):
        assert handed == [_rows_over(m, den) for m in sub]
        assert got == want
    return len(runs)


def _named_groups():
    """(name, set, group) for every proper party group of the named sets."""
    for name in ("Domino", "S1", "S2"):
        s = build_named_set(name)
        n = s.spec.n_parties
        for size in range(1, n):
            for group in itertools.combinations(range(n), size):
                yield name, s, group


@pytest.mark.parametrize("s,group", [(s, g) for _, s, g in _named_groups()],
                         ids=[name + "-" + "".join("ABC"[p] for p in g)
                              for name, _, g in _named_groups()])
def test_engines_agree_on_named_groups(monkeypatch, s, group):
    assert _assert_engines_agree(monkeypatch, s, group) > 0


def test_engines_agree_on_planted_and_random_sets(monkeypatch):
    rng = random.Random(2107)
    patterns = 0
    for group_dim in (3, 4):
        for _ in range(15):
            s, _ = planted_direction_set(rng, group_dim=group_dim, rest_dim=3,
                                         n_states=3)
            patterns += _assert_engines_agree(monkeypatch, s, (0,))
    for i in range(12):
        dims, group = (((3, 3), (0,)), ((3, 2, 2), (1, 2)), ((2, 2, 3), (0, 2)))[i % 3]
        s = random_product_set(rng, dims, 4 + i % 3)
        patterns += _assert_engines_agree(monkeypatch, s, group)
    assert patterns > 100


def test_rational_multiple_pair_matrices_stay_distinct(monkeypatch):
    # the computational basis of 2x2 with one state halved: the pairs
    # (00, 10) and (01/2, 11) have pair matrices E01 and E01/2 on party A,
    # which are rational multiples of each other and differ as matrices;
    # over the shared denominator lcm(F_i)^2 = 4 they are 4 E01 and 2 E01
    basis = [Vec([1, 0]), Vec([0, 1])]
    s = StateSet(PartySpec((2, 2)), [
        ("a", tensor(basis[0], basis[0])), ("b", tensor(basis[1], basis[0])),
        ("c", tensor(basis[0], basis[1]).scale(Scalar(Fraction(1, 2)))),
        ("d", tensor(basis[1], basis[1]))])
    _assert_engines_agree(monkeypatch, s, (0,))
    runs = _engine_solve(monkeypatch, s, (0,))
    assert _pair_den(s, (0,)) == 4
    assert any(((0, ((1, 4, 0),)),) in handed and ((0, ((1, 2, 0),)),) in handed
               for handed, _ in runs)
