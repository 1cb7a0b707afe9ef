"""Exact search for orthogonality-preserving measurements on a party group.

The orthogonality-preservation value of an operator X on group g against a
state pair (i, j) is linear in X:

    G_ij(X) = sum_{a,b} X[a][b] * C_ij[a][b],
    C_ij[a][b] = sum_r conj(u_i^r[a]) * u_j^r[b],

where u^r are the group-side slices of the states. For a rank-1 element
X = |theta><theta| this becomes the sesquilinear form
F_ij(theta) = sum_{a,b} theta_a conj(theta_b) C_ij[a][b].

`rank1_op_directions` finds every rank-1 direction exactly by a support
pattern case split: inside a pattern, derived linear constraints shrink
the solution space (single-row/column rows of the reduced forms, and a
two-way branch whenever a reduced form has rank 1, which is how the
product structure of the paper-style sets always resolves); patterns that
reach two free parameters drop to an exact binary-quadratic endgame in a
single complex ratio. Before any case split, one exact nullspace gives
the space L of operators whose preservation value vanishes on every pair,
and a pattern whose slice of L cannot hold a rank-1 element with that
support is closed without one (`_live_patterns`). A nonexistence
certificate is emitted only when every pattern is closed, by L or by a
contradiction.

Each pair form C_ij is held one way, as Gaussian-integer rows built
straight from the states' `int_slices` over one denominator per group
(`statesets._pair_rows`, which the redundancy test shares). Restricted to
an open pattern they are filtered once, before its case split: zero forms
and later copies of equal ones are dropped. The pattern engine and the
live-pattern walk run on these rows, and each reduced form is a positive
multiple of N C N^dagger over the nullspace basis N of the linear
constraints so far (`_reduced_form`).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterator, Sequence

from .exact import (ONE, Mat, Scalar, Vec, ZERO, _nullspace, _wrap,
                    basis_vec, identity, in_span, nullspace,
                    nullspace_with_free, rank, rref, sort_keys, zero_vec)
from .indexing import indexer, total_dim
from .measurements import (LocalPVM, PVM, Projector, acts_as_scalar_on,
                           preserves_orthogonality)
from .statesets import (Partition, StateSet, _pair_rows, group_support,
                        require_orthogonal)

# the largest effective block dimension the rank-1 case split enumerates;
# a larger block is reported unresolved ("dimension-bound")
MAX_EXACT_DIM = 9


@dataclass(frozen=True)
class RaySolution:
    vector: Vec                        # canonical exact ray (leading entry 1)
    exact = True                       # every solution is exact

    def to_json(self) -> dict:
        return {"exact": True,
                "vector": [a.to_quad() for a in self.vector.entries]}


@dataclass(frozen=True)
class Family:
    """A continuum of rank-1 solutions.

    kind 'subspace': every nonzero vector of span(basis) with generic
    support solves; 'real-line': base + s*step for real s; 'circle':
    base + tau*step with |tau - center| fixed.
    """

    kind: str
    basis: tuple[Vec, ...] = ()
    base: Vec | None = None
    step: Vec | None = None
    center: Scalar | None = None
    radius2: Fraction | None = None
    annihilating: bool = False

    def contains(self, theta: Vec) -> bool:
        """Exact membership of a ray in the family (up to scale)."""
        if self.kind == "subspace":
            return in_span(theta, list(self.basis))
        tau = _ray_as_combo(theta, self.base, self.step)
        if tau is None:
            return False
        if self.kind == "real-line":
            return tau.is_real()
        return (tau - self.center).norm2() == self.radius2

    def members(self) -> list[Vec]:
        """Up to four exact representative rays, for PVM assembly."""
        out: list[Vec] = []
        if self.kind == "subspace":
            out.extend(self.basis)
            for i in range(len(self.basis)):
                for j in range(i + 1, len(self.basis)):
                    out.append(self.basis[i] + self.basis[j])
                    out.append(self.basis[i] - self.basis[j])
        elif self.kind == "real-line":
            for t in (0, 1, -1, 2, -2, 3, -3):
                out.append(self.base + self.step.scale(Scalar(t)))
        elif self.kind == "circle":
            r2 = self.radius2
            root = _fraction_sqrt(r2)
            if root is not None:
                for sign in (1, -1):
                    tau = self.center + Scalar(sign * root)
                    out.append(self.base + self.step.scale(tau))
                for sign in (1, -1):
                    tau = self.center + Scalar(0, sign * root)
                    out.append(self.base + self.step.scale(tau))
        rays = dict.fromkeys(v.normalized_leading() for v in out if not v.is_zero())
        return list(rays)[:4]

    def to_json(self) -> dict:
        data = {"kind": self.kind, "annihilating": self.annihilating}
        if self.basis:
            data["basis"] = [[a.to_quad() for a in b.entries] for b in self.basis]
        return data


def _ray_as_combo(theta: Vec, base: Vec, step: Vec) -> Scalar | None:
    """The tau with theta proportional to base + tau*step, or None. Base
    and step are independent, so x*base + y*step + z*theta = 0 has at
    most one solution ray, and tau = y/x when x is nonzero."""
    null = nullspace(Mat(zip(base.entries, step.entries, theta.entries)))
    if len(null) != 1 or null[0][0].is_zero():
        return None
    return null[0][1] / null[0][0]


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class SolutionReport:
    group: tuple[int, ...]
    solutions: tuple[RaySolution, ...] = ()
    families: tuple[Family, ...] = ()
    none_found: Mapping | None = None
    unresolved: tuple[Mapping, ...] = ()        # each pattern a tuple
    trace: tuple[str, ...] = ()

    @property
    def is_none_found(self) -> bool:
        return self.none_found is not None

    def nontrivial_directions(self) -> list[Vec]:
        """Exact directions with a component on the joint local support
        (annihilating families excluded)."""
        out = [r.vector for r in self.solutions]
        for fam in self.families:
            if not fam.annihilating:
                out.extend(fam.members())
        return list(dict.fromkeys(v.normalized_leading() for v in out))

    def contains_ray(self, theta: Vec) -> bool:
        cv = theta.normalized_leading()
        for r in self.solutions:
            if r.vector == cv:
                return True
        return any(f.contains(theta) for f in self.families)

    def to_json(self) -> dict:
        data = {
            "group": list(self.group),
            "solutions": [r.to_json() for r in self.solutions],
            "families": [f.to_json() for f in self.families],
            "none_found": None if self.none_found is None else dict(self.none_found),
            "unresolved": [{k: list(v) if isinstance(v, tuple) else v
                            for k, v in u.items()} for u in self.unresolved],
        }
        if self.trace:
            data["trace"] = self.trace
        return data


# ---------------------------------------------------------------------------
# pattern engine

def _restricted(c: tuple, at: dict) -> tuple:
    """The integer rows c restricted to the coordinates in at, renumbered."""
    return tuple((at[a], nz) for a, row in c if a in at
                 if (nz := tuple((at[b], x, y) for b, x, y in row if b in at)))


def _basis_numerators(basis: list[Vec]) -> tuple[int, list[dict]]:
    """(D, nums): nums[l] maps each nonzero coordinate of basis[l] to its
    integer (re, im) numerator over D, the lcm of the vectors' own."""
    reads = [b.int_read() for b in basis]
    den = lcm(*(d for d, _ in reads))
    return den, [{i: (x * (den // d), y * (den // d)) for i, x, y in nz}
                 for d, nz in reads]


def _form_vanishes(cmats: list[tuple], theta: Vec) -> bool:
    """Every F(theta) = sum theta_a conj(theta_b) C[a][b] is 0: the 1 x 1
    reduced form over the basis (theta)."""
    nums = _basis_numerators([theta])[1]
    return not any(mr[0] or mi[0] for mr, mi in (_reduced_form(c, nums) for c in cmats))


def _reduced_form(c: tuple, nums: list[dict]) -> tuple[list[int], list[int]]:
    """M = N C N^dagger, M[k][l] = sum_{a,b} N_k[a] C[a][b] conj(N_l[b]),
    as flat real and imaginary parts (M[k][l] at k*f + l) on the integer
    rows c and the basis numerators nums: w_l = C conj(N_l) once per l,
    then M[k][l] = sum_a N_k[a] w_l[a], each over nonzero entries only."""
    ws = []
    for nl in nums:
        w = []
        for a, row in c:
            re = im = 0
            for b, x, y in row:
                if b in nl:
                    u, v = nl[b]
                    re += x * u + y * v
                    im += y * u - x * v
            if re or im:
                w.append((a, re, im))
        ws.append(w)
    mr, mi = [], []
    for nk in nums:
        for w in ws:
            re = im = 0
            for a, x, y in w:
                if a in nk:
                    p, q = nk[a]
                    re += p * x - q * y
                    im += p * y + q * x
            mr.append(re)
            mi.append(im)
    return mr, mi


def _recurse(cmats: list[tuple], k: int, lin_rows: list[list[Scalar]]) -> list[tuple]:
    """Solve one support pattern: cmats are the pair forms' integer rows
    (as `_pair_rows`) restricted to the pattern's k coordinates. Returns
    (tag, payload) outcomes with tag in
    contradiction/solution/family/unresolved.

    Each reduced form is a positive multiple of N C N^dagger, and every
    constraint drawn from it is homogeneous: its rows go into an RREF, the
    endgame's give the same roots, and its zero tests are exact.

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
        if _form_vanishes(cmats, theta):
            return [("solution", theta.normalized_leading())]
        return [("contradiction", "unique ray violates a pair constraint")]

    nums = _basis_numerators(basis)[1]
    tr = [l * f + kk for kk in range(f) for l in range(f)]  # M[k][l] -> M[l][k]
    reduced = []
    for c in cmats:
        mr, mi = _reduced_form(c, nums)
        if not (any(mr) or any(mi)):
            continue
        reduced.append((mr, mi))
        # the form value must vanish as a complex number, so its Hermitian
        # and anti-Hermitian parts M +- M^dagger give two independent real
        # constraints; the split parts are often lower-rank than M
        # (a zero part leaves the other equal to 2M, which adds nothing)
        hr, hi = [x + mr[t] for x, t in zip(mr, tr)], [y - mi[t] for y, t in zip(mi, tr)]
        sr, si = [x - mr[t] for x, t in zip(mr, tr)], [y + mi[t] for y, t in zip(mi, tr)]
        if (any(hr) or any(hi)) and (any(sr) or any(si)):
            reduced += [(hr, hi), (sr, si)]
    if not reduced:
        return [("family", Family(kind="subspace", basis=tuple(basis)))]

    # linear propagation: a reduced form with a single nonzero row or
    # column yields a linear condition because the matching parameter is a
    # nonzero support coordinate
    for mr, mi in reduced:
        nz_rows = [r for r in range(0, f * f, f)
                   if any(mr[r:r + f]) or any(mi[r:r + f])]
        if len(nz_rows) == 1:
            r = nz_rows[0]
            new_row = [ZERO] * k
            for l in range(f):
                new_row[free[l]] = Scalar(mr[r + l], -mi[r + l])
            return _recurse(cmats, k, lin_rows + [new_row])
        nz_cols = [l for l in range(f) if any(mr[l::f]) or any(mi[l::f])]
        if len(nz_cols) == 1:
            l = nz_cols[0]
            new_row = [ZERO] * k
            for kk in range(f):
                new_row[free[kk]] = Scalar(mr[kk * f + l], mi[kk * f + l])
            return _recurse(cmats, k, lin_rows + [new_row])

    if f == 2:
        return _binary_endgame(basis, reduced)

    # rank-1 reduced form: the constraint factors into two linear pieces
    for mr, mi in reduced:
        rows = [[(l, x, y) for l, x, y in zip(range(f), mr[r:r + f], mi[r:r + f])
                 if x or y] for r in range(0, f * f, f)]
        if rank(rows) == 1:
            r0 = next(row for row in rows if row)   # first nonzero row
            c0 = r0[0][0]
            row_a = [ZERO] * k
            row_b = [ZERO] * k
            for kk in range(f):
                row_a[free[kk]] = Scalar(mr[kk * f + c0], mi[kk * f + c0])
            for ll, x, y in r0:
                row_b[free[ll]] = Scalar(x, -y)
            out = _recurse(cmats, k, lin_rows + [row_a])
            out += _recurse(cmats, k, lin_rows + [row_b])
            return out

    return [("unresolved",
             "constraints stay above rank 1 with three or more free parameters")]


def _binary_endgame(basis: list[Vec],
                    reduced: list[tuple[list[int], list[int]]]) -> list[tuple]:
    """Exact solve of F = M00 + conj(t)M01 + tM10 + |t|^2 M11 = 0 per pair,
    with theta = N0 + t N1 and both free coordinates nonzero; the reduced
    forms' positive multiples cancel in every ratio taken below. A candidate
    meets every real row, so it solves every pair with a nonzero reduced
    form; `reduced` is nonempty, so with no affine row left `quad` is set."""
    real_rows = []   # (gamma, alpha, beta, const) for gamma(x^2+y^2)+ax+by+c=0
    for (r00, r01, r10, r11), (i00, i01, i10, i11) in reduced:
        real_rows.append((r11, r01 + r10, i01 - i10, r00))
        real_rows.append((i11, i01 + i10, r10 - r01, i00))
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
        return ("solution", theta.normalized_leading())

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
        out = [got for x, y in roots if (got := emit(Scalar(x, y)))]
        return out or [("contradiction", "endgame roots off-support")]
    # no affine information at all
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


def _quad_value(quad, x: Fraction, y: Fraction) -> Fraction:
    g, a, b, c = quad
    return g * (x * x + y * y) + a * x + b * y + c


def _solve_affine(affine) -> object:
    """Solve {a x + b y + c = 0} by one rref on the columns (y, x, 1): the
    unique point (x, y), the line [base, direction] (its points are
    base + s*direction for real s; x is the parameter whenever y has a
    coefficient), 'plane' (no constraints) or 'inconsistent'."""
    red, pivots = rref(Mat([(b, a, c) for a, b, c in affine] or [(0, 0, 0)]))
    rows = [[x.re for x in row] for row in red.entries]
    if 2 in pivots:
        return "inconsistent"
    if pivots == [0, 1]:
        return (-rows[1][2], -rows[0][2])
    if pivots == [0]:
        return [(Fraction(0), -rows[0][2]), (Fraction(1), -rows[0][1])]
    if pivots == [1]:
        return [(-rows[0][2], Fraction(0)), (Fraction(0), Fraction(1))]
    return "plane"


def _quad_on_line(quad, base, direction):
    """Roots of the quadratic restricted to the line; exact when rational."""
    g, a, b, c = quad
    bx, by = base
    dx, dy = direction
    # A != 0: quad's g is nonzero and the line's direction never is
    A = g * (dx * dx + dy * dy)
    B = 2 * g * (bx * dx + by * dy) + a * dx + b * dy
    C = g * (bx * bx + by * by) + a * bx + b * by + c
    disc = B * B - 4 * A * C
    if disc < 0:
        return "none"
    root = _fraction_sqrt(disc)
    if root is None:
        return "irrational"
    out = []
    for sgn in (1, -1):
        s = Fraction(-B + sgn * root, 2 * A)
        out.append((bx + s * dx, by + s * dy))
    return out


# ---------------------------------------------------------------------------
# public solver

# One store for every exact result that depends only on a set's rays
# (solver reports, PVM lists, irreducibility, search and redundancy
# verdicts), keyed on StateSet.ray_key and evicting the least recently
# used entry beyond the cap.
_RESULTS: OrderedDict = OrderedDict()
_CACHE_CAP = 4096


def _cache_get(key):
    """The stored result for key, now most recently used; None on a miss."""
    hit = _RESULTS.get(key)
    if hit is not None:
        _RESULTS.move_to_end(key)
    return hit


def _cache_put(key, value):
    _RESULTS[key] = value
    _RESULTS.move_to_end(key)
    while len(_RESULTS) > _CACHE_CAP:
        _RESULTS.popitem(last=False)
    return value


def clear_caches() -> None:
    _RESULTS.clear()


def rank1_op_directions(s: StateSet, group: Sequence[int]) -> SolutionReport:
    """All rank-1 directions theta (up to phase/scale) with
    F_ij(theta) = 0 for every pair, via exact support-pattern case split.

    The solve happens on the group's working coordinates
    (`group_support`): when the joint local support sits on a proper
    subset of computational coordinates, directions decompose as (support
    part) + (free part orthogonal to every state), and only the support
    part is constrained. Roots outside Q(i) are reported as unresolved
    patterns, never as floating-point solutions. The report is frozen, so
    the stored one is handed out.
    """
    group = tuple(group)
    cache_key = ("rank1", group, s.ray_key)
    hit = _cache_get(cache_key)
    if hit is not None:
        return hit
    require_orthogonal(s)
    d = total_dim([s.spec.dims[p] for p in group])
    coords = group_support(s, group)[2]
    k = len(coords)
    trace = [f"support compression to coordinates {coords}"] if k < d else []

    if k > MAX_EXACT_DIM:
        trace.append(
            f"effective dimension {k} exceeds exact enumeration bound {MAX_EXACT_DIM}")
        return SolutionReport(group, unresolved=(MappingProxyType(
            {"reason": "dimension-bound", "effective_dim": k,
             "bound": MAX_EXACT_DIM}),), trace=tuple(trace))

    # zero pair forms add nothing, and a copy of an earlier one adds only
    # rows that every later step meets after the first copy's
    at = {a: j for j, a in enumerate(coords)}
    forms = list(dict.fromkeys(filter(None, (_restricted(c, at)
                                             for c in _pair_rows(s, group)))))
    solutions, families, unresolved = [], [], []
    seen: set = set()
    live = _live_patterns(forms, k)
    for pattern in _support_patterns(k):
        if pattern not in live:
            continue
        at = {a: j for j, a in enumerate(pattern)}
        sub = dict.fromkeys(filter(None, (_restricted(c, at) for c in forms)))
        on_group = tuple(coords[a] for a in pattern)
        for tag, payload in _recurse(list(sub), len(pattern), []):
            if tag == "contradiction":
                continue
            if tag == "solution":
                cv = _lift(payload, on_group, d).normalized_leading()
                if cv in seen:
                    continue
                seen.add(cv)
                p = Projector.from_ray(cv)
                if not preserves_orthogonality(
                        s, LocalPVM(PVM.completed([p], d), group)):
                    raise AssertionError(
                        "solver emitted a direction failing re-verification")
                solutions.append(RaySolution(vector=cv))
            elif tag == "family":
                families.append(_lift_family(payload, on_group, d))
            elif tag == "unresolved":
                unresolved.append(MappingProxyType({"reason": payload,
                                                    "pattern": pattern}))

    if k < d:
        ann = tuple(basis_vec(d, a) for a in range(d) if a not in coords)
        families.append(Family(kind="subspace", basis=ann, annihilating=True))
        trace.append(f"{d - k}-dimensional annihilating subspace off the support")

    families = tuple(_dedupe_families(families))
    none_found = None
    if not (solutions or families or unresolved):
        none_found = MappingProxyType({"method": "exact-case-split",
                                       "patterns": 2 ** k - 1})
    return _cache_put(cache_key, SolutionReport(
        group, tuple(solutions), families, none_found, tuple(unresolved),
        tuple(trace)))


def _support_patterns(k: int):
    for size in range(1, k + 1):
        yield from itertools.combinations(range(k), size)


def _live_patterns(forms: list[tuple], k: int) -> set[tuple[int, ...]]:
    """The support patterns that the operator space L leaves open.

    L holds the k x k operators E with sum E[a][b] C[a][b] = 0 and
    sum E[a][b] conj(C[b][a]) = 0 for every pair form C (integer rows, as
    `_pair_rows`); over C it is spanned by the Hermitian operators that
    preserve orthogonality. A rank-1 solution theta with support exactly P
    puts theta theta^dagger in L_P, the part of L vanishing outside P x P,
    with a nonzero diagonal on all of P, and so does the generic member of
    any family on P. So P
    can hold a solution only if each of its coordinates has a nonzero
    diagonal in some basis element of L_P. Patterns are walked depth first
    from the full set, removing coordinates in increasing order; since L_Q
    lies inside L_P when Q lies inside P, an empty L_P closes its subtree.
    Basis elements are held as Gaussian-integer numerators {t: (re, im)}.
    """
    cells = [(a, b) for a in range(k) for b in range(k)]
    space = [{i: (x, y) for i, x, y in v.int_read()[1]}
             for v in _operator_space(forms, cells)]
    live: set[tuple[int, ...]] = set()

    def walk(pattern: tuple[int, ...], space: list, start: int) -> None:
        if all(any(a * k + a in e for e in space) for a in pattern):
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


def _operator_space(forms: list[tuple], cells: Sequence[tuple[int, int]]
                    ) -> list[Vec]:
    """Basis of L on the unknowns E[a][b], (a, b) in cells, with every
    other entry of E held at zero: sum E[a][b] C[a][b] = 0 and
    sum E[a][b] conj(C[b][a]) = 0 for each pair form C, whose integer
    rows (as `_pair_rows`) share one denominator, which drops out."""
    at = {cell: j for j, cell in enumerate(cells)}
    rows = []
    for c in forms:
        e = [(a, b, x, y) for a, row in c for b, x, y in row]
        rows.append([(at[a, b], x, y) for a, b, x, y in e if (a, b) in at])
        rows.append([(at[b, a], x, -y) for a, b, x, y in e if (b, a) in at])
    return _nullspace(rows, len(cells))[0]


def _vanishing_on(space: list, c: int, pattern: tuple[int, ...],
                  k: int) -> list:
    """Basis of the elements of span(space) whose row c and column c
    vanish; space's elements already vanish outside pattern x pattern.
    Coefficients are cleared to Gaussian integers, which keeps the span."""
    cells = [c * k + j for j in pattern] + [j * k + c for j in pattern if j != c]
    rows = [row for t in cells
            if (row := [(i, *e[t]) for i, e in enumerate(space) if t in e])]
    if not rows:
        return space
    out = []
    for coeffs in _nullspace(rows, len(space))[0]:
        acc: dict[int, tuple[int, int]] = {}
        for i, a, b in coeffs.int_read()[1]:
            for t, (x, y) in space[i].items():
                u, v = acc.get(t, (0, 0))
                acc[t] = (u + a * x - b * y, v + a * y + b * x)
        out.append({t: z for t, z in acc.items() if z != (0, 0)})
    return out


def _lift(v: Vec, coords: Sequence[int], dim: int) -> Vec:
    """Scatter v's entries to the (ascending) coordinates of a dim-space."""
    if len(coords) == dim:
        return v
    out = [ZERO] * dim
    for x, a in zip(v.entries, coords):
        out[a] = x
    return Vec(out)


def _lift_family(fam: Family, coords: Sequence[int], d: int) -> Family:
    def lift_vec(v: Vec | None) -> Vec | None:
        return None if v is None else _lift(v, coords, d)

    return Family(kind=fam.kind,
                  basis=tuple(lift_vec(b) for b in fam.basis),
                  base=lift_vec(fam.base), step=lift_vec(fam.step),
                  center=fam.center, radius2=fam.radius2,
                  annihilating=fam.annihilating)


def _dedupe_families(fams: list[Family]) -> list[Family]:
    out = []
    keys = set()
    for f in fams:
        if f.kind == "subspace":
            red, _ = rref(Mat(tuple(b.entries) for b in f.basis))
            key = ("subspace", red.entries, f.annihilating)
        else:
            key = (f.kind, f.base, f.step, f.center, f.radius2)
        if key not in keys:
            keys.add(key)
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# PVM enumeration and irreducibility

def diagonal_op_subsets(s: StateSet, group: Sequence[int]) -> list[tuple[int, ...]]:
    """Computational-basis subsets S (within the occupied support indices,
    short of the whole group space) whose diagonal projector P_S preserves
    orthogonality, by size and then lexicographically.

    Indices off the joint support never change preservation or the action
    on the set, so only occupied indices are considered.
    """
    return sorted(_diagonal_subsets(s, tuple(group)), key=_by_size)


def _by_size(sub: tuple[int, ...]) -> tuple:
    return len(sub), sub


def _diagonal_subsets(s: StateSet, group: tuple[int, ...]
                      ) -> Iterator[tuple[int, ...]]:
    """The 0/1 points of L restricted to diagonal operators on the
    occupied indices, yielded lazily in walk order. Its equations come in
    conjugate pairs, so its reduced basis is rational, and each basis
    vector is 1 at its own free unknown and 0 at the others: every 0/1
    point is the sum of the basis vectors whose free unknown it sets to 1."""
    group_dim = total_dim([s.spec.dims[p] for p in group])
    occupied = sorted({a for u in group_support(s, group)[0] for a in u.support()})
    basis = _operator_space(_pair_rows(s, group), [(a, a) for a in occupied])

    def walk(i: int, x: Vec) -> Iterator[tuple[int, ...]]:
        if i < len(basis):
            yield from walk(i + 1, x)
            yield from walk(i + 1, x + basis[i])
        elif all(e.is_zero() or e == ONE for e in x.entries):
            sub = tuple(a for a, e in zip(occupied, x.entries) if e == ONE)
            if 0 < len(sub) < group_dim:
                yield sub

    yield from walk(0, zero_vec(len(occupied)))


def enumerate_op_pvms(s: StateSet, group: Sequence[int],
                      max_outcomes: int | None = None, *,
                      max_pvms: int = 64) -> tuple[LocalPVM, ...]:
    """Orthogonality-preserving PVMs on the group that are nontrivial for
    the set, assembled on the solver's working coordinates from a
    projector pool (exact rank-1 directions, family representatives
    included, and diagonal subsets), each element judged nontrivial and
    re-verified once; any orthogonal partial family completes with its
    complement. The assembly runs on the pool's `sort_keys` integers over
    one D (keys dot to D^2 tr(PQ), zero iff orthogonal; a completion is
    D 1 minus a key sum), and only kept PVMs are built as matrices. On a
    compressed support each kept PVM is lifted to the whole group space,
    with the off-support complement as one more outcome.

    Completeness is relative to the pool: PVMs whose rank-1 elements are
    solver directions and whose higher-rank elements are diagonal
    projectors or complements of pool sums. The tuple is stored and handed
    out as it is.
    """
    if max_outcomes is not None and max_outcomes < 2:
        raise ValueError("max_outcomes must be at least 2")
    group = tuple(group)
    cache_key = ("pvms", group, max_outcomes, max_pvms, s.ray_key)
    hit = _cache_get(cache_key)
    if hit is not None:
        return hit
    require_orthogonal(s)
    report = rank1_op_directions(s, group)
    support, support_rank, coords = group_support(s, group)
    k = len(coords)
    d = total_dim([s.spec.dims[p] for p in group])
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
    # one denominator for all keys, so they compare, dedupe and sort as
    # the rational matrices do; the first key is D 1
    ident, *read = [tuple(x for row in key for pair in row for x in pair)
                    for key in sort_keys([identity(k), *(p.mat for p in candidates)])]
    pooled: dict[tuple, Projector] = {}
    for p, key in zip(candidates, read):
        if any(key) and key != ident:
            pooled.setdefault(key, p)
    pool, keys = list(pooled.values()), list(pooled)
    ranks = [sum(key[::2 * k + 2]) // ident[0] for key in keys]   # trace / D
    # a scalar (0 or 1) on the support preserves orthogonality; orthogonal
    # scalars hold at most one 1, so their completion and the off-support
    # outcome are scalars too: a PVM is nontrivial iff a pool element in it is
    on_coords = [Vec([u.entries[a] for a in coords]) for u in support]
    nontrivial = [not acts_as_scalar_on(p, on_coords) for p in pool]
    # assembled PVMs in emit order, keyed by their element keys
    assemblies: dict[frozenset, list[int]] = {}

    def emit(chosen: list[int], total: tuple, total_rank: int):
        elements = {keys[i] for i in chosen}
        if total_rank < k:
            elements.add(tuple(map(sub, ident, total)))
        assemblies.setdefault(frozenset(elements), chosen)

    # two-outcome completions first, so every pool element is represented
    # even when the deeper search hits its budget
    for i in range(len(pool)):
        emit([i], keys[i], ranks[i])

    def extend(chosen: list[int], total: tuple, total_rank: int, start: int):
        if len(assemblies) >= max_pvms:
            return
        # the completion adds an element exactly when the rank falls short
        if chosen and len(chosen) + (total_rank < k) <= cap:
            emit(chosen, total, total_rank)
        if len(chosen) >= cap:
            return
        for i in range(start, len(pool)):
            if total_rank + ranks[i] > k:
                continue
            if not any(sum(map(mul, keys[i], keys[j])) for j in chosen):
                extend(chosen + [i], tuple(map(add, total, keys[i])),
                       total_rank + ranks[i], i + 1)

    extend([], (0,) * len(ident), 0, 0)

    # only kept PVMs are built and lifted, each with the one off-support
    # outcome. A PVM preserves orthogonality exactly when each element does,
    # so each nontrivial pool element is re-verified once, with its
    # complement, in the two-outcome PVM that holds it
    off = (Projector.diagonal([a for a in range(d) if a not in at], d)
           if k < d else None)
    kept = []
    for elements, chosen in assemblies.items():
        if any(nontrivial[i] for i in chosen):
            pvm = PVM.completed([pool[i] for i in chosen], k)
            lp = LocalPVM(_lift_pvm(pvm, coords, off), group)
            if len(chosen) == 1 and not preserves_orthogonality(s, lp):
                raise AssertionError("pool element failed re-verification")
            kept.append(((len(elements), tuple(sorted(elements))), lp))
    # order by outcome count, then by the sorted element keys
    kept.sort(key=lambda t: t[0])
    return _cache_put(cache_key, tuple(lp for _, lp in kept))


def _lift_pvm(pvm: PVM, coords: tuple[int, ...], off: Projector | None) -> PVM:
    """Scatter a PVM on the working coordinates to the whole group space;
    off a compressed support, off (the projector onto the other
    coordinates) is one more (all-annihilating) outcome. The scattered
    elements sum to the projector onto coords, so nothing is re-summed."""
    if off is None:
        return pvm
    d = off.dim
    lifted: list[Projector] = []
    for e in pvm.elements:
        rows = [[ZERO] * d for _ in range(d)]
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                rows[a][b] = e.mat.entries[i][j]
        lifted.append(Projector(_wrap(Mat, tuple(map(tuple, rows))),
                                _validated=True))
    return PVM._trusted((*lifted, off), d)


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str                       # irreducible | reducible | two-state | unknown
    witness: LocalPVM | None
    block_levels: Mapping[tuple[int, ...], str]
    trace: tuple[str, ...]

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"

    def to_json(self) -> dict:
        return {"status": self.status,
                "block_levels": {str(k): v for k, v in self.block_levels.items()},
                "trace": self.trace}


def is_pvm_irreducible(s: StateSet, p: Partition) -> IrreducibilityVerdict:
    """Certify that no block of the partition admits a nontrivial-for-the-
    set orthogonality-preserving PVM (the sufficient condition for local
    irreducibility, which in turn certifies indistinguishability).

    Two-state sets are never certified irreducible: any pair of orthogonal
    states is distinguishable. The verdict is frozen, so the stored one is
    handed out.
    """
    if len(s) < 2:
        raise ValueError("irreducibility needs at least two states")
    p.validate(s.spec)
    cache_key = ("irr", p.blocks, s.ray_key)
    hit = _cache_get(cache_key)
    if hit is not None:
        return hit
    require_orthogonal(s)
    if len(s) == 2:
        return IrreducibilityVerdict(
            "two-state", None, MappingProxyType({}),
            ("two orthogonal states are always distinguishable; "
             "no irreducibility certificate is possible",))
    status, levels, trace = "irreducible", {}, []
    for block in p.blocks:
        d = total_dim([s.spec.dims[q] for q in block])
        support, k, _ = group_support(s, block)
        if k <= 1:
            levels[block] = "inert"
            trace.append(
                f"block {block}: one-dimensional local support, no PVM can "
                f"eliminate or distinguish")
            continue
        # cheap witnesses first: the diagonal points of L
        witness_p = None
        for sub in _diagonal_subsets(s, block):
            cand = Projector.diagonal(sub, d)
            if not acts_as_scalar_on(cand, support):
                witness_p = cand
                break
        if witness_p is None:
            report = rank1_op_directions(s, block)
            if report.unresolved:
                status = "unknown"
                trace.append(f"block {block}: solver could not close "
                             f"{report.to_json()['unresolved']}")
                continue
            for theta in report.nontrivial_directions():
                cand = Projector.from_ray(theta)
                if not acts_as_scalar_on(cand, support):
                    witness_p = cand
                    break
        if witness_p is not None:
            lp = LocalPVM(PVM.completed([witness_p], d), block)
            if not preserves_orthogonality(s, lp):
                raise AssertionError("witness PVM failed re-verification")
            trace.append(f"block {block}: nontrivial OP-PVM exists")
            return _cache_put(cache_key, IrreducibilityVerdict(
                "reducible", lp, MappingProxyType(levels), tuple(trace)))
        if k == d and d <= 3:
            levels[block] = "complete"
        elif k <= 3:
            levels[block] = f"support-compressed({k})"
        else:
            levels[block] = "rank1-diagonal"
        trace.append(f"block {block}: no nontrivial OP-PVM [{levels[block]}]")
    return _cache_put(cache_key, IrreducibilityVerdict(
        status, None, MappingProxyType(levels), tuple(trace)))
