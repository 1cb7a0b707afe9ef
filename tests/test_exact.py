"""Exact scalar/vector/matrix kernel."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpcckit import exact, opsolve
from lpcckit.exact import (ONE, Mat, Scalar, Vec, identity, inner, rref,
                           mat_mul, nullspace, nullspace_with_free, rank,
                           reshape, tensor, gram_schmidt, in_span,
                           projector_onto, sort_keys)
from lpcckit.generators import random_orthogonal_set
from lpcckit.statesets import (NAMED_SETS, _pair_rows, build_named_set,
                               group_support)


def vec(*xs):
    return Vec(list(xs))


def test_scalar_field_ops():
    a = Scalar(Fraction(1, 2), 3)
    b = Scalar(2, Fraction(-1, 3))
    assert a + b - b == a
    assert (a * b) / b == a
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_scalar_equality_is_exact():
    assert Scalar(Fraction(1, 3)) * Scalar(3) == Scalar(1)
    assert Scalar(Fraction(1, 3)) != Scalar(Fraction(33333, 100000))


def test_inner_first_s1_pair(s1):
    # the two weight-four states sharing the first local level are orthogonal
    v1 = s1.state("1")
    v2 = s1.state("2")
    assert inner(v1, v2) == Scalar(0)


def test_inner_norm_of_sign_vector():
    v = vec(1, -1, -1, -1)
    assert inner(v, v) == Scalar(4)


def test_inner_plus_minus():
    assert inner(vec(1, -1), vec(1, 1)) == Scalar(0)


def test_tensor_basis():
    t = tensor(vec(1, 0), vec(0, 1))
    assert t == vec(0, 1, 0, 0)


def test_tensor_signs():
    assert tensor(vec(1, 1), vec(1, -1)) == vec(1, -1, 1, -1)


def test_tensor_reproduces_family_center():
    from lpcckit.statesets import build_named_set
    m = 1
    center = tensor(vec(0, 1, 0), vec(1, -1), vec(0, 1, 0))
    fam = build_named_set("S1m", m=m)
    assert fam.state("c") == center


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_reshape_product_rank_one():
    assert rank(reshape(tensor(vec(1, 0), vec(1, 0)), 2, 2)) == 1


def test_reshape_entangled_rank_two():
    assert rank(reshape(vec(1, 0, 0, 1), 2, 2)) == 2


def test_nullspace_exact():
    a = Mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(a)
    assert len(basis) == 2
    for b in basis:
        assert all(x.is_zero() for x in
                   (inner(a.row(0).conj(), b), inner(a.row(1).conj(), b)))


small_scalars = st.builds(Scalar,
                          st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=-4, max_value=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_scalars, min_size=3, max_size=3),
       st.lists(small_scalars, min_size=3, max_size=3))
def test_inner_conjugate_symmetry(xs, ys):
    u, v = Vec(xs), Vec(ys)
    assert inner(u, v) == inner(v, u).conj()


@settings(max_examples=40, deadline=None)
@given(st.lists(small_scalars, min_size=2, max_size=2),
       st.lists(small_scalars, min_size=2, max_size=3),
       st.lists(small_scalars, min_size=2, max_size=2))
def test_tensor_associativity(a, b, c):
    u, v, w = Vec(a), Vec(b), Vec(c)
    assert tensor(tensor(u, v), w) == tensor(u, tensor(v, w))


def test_rank_conj_transpose_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = Mat([[Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank(m.conj_transpose())


def test_rank_invariant_under_row_scaling():
    rng = random.Random(11)
    for _ in range(25):
        m_rows = [[Scalar(rng.randint(-3, 3)) for _ in range(3)]
                  for _ in range(3)]
        m = Mat(m_rows)
        c = Scalar(rng.choice([1, 2, -1, Fraction(1, 3)]))
        scaled = Mat([[c * x for x in m_rows[0]]] + m_rows[1:])
        assert rank(m) == rank(scaled)


def test_gram_schmidt_orthogonal_and_spanning():
    rng = random.Random(3)
    vecs = [Vec([Scalar(rng.randint(-3, 3)) for _ in range(4)])
            for _ in range(3)]
    basis = gram_schmidt(vecs)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert inner(basis[i], basis[j]).is_zero()
    for v in vecs:
        assert in_span(v, basis)


def test_projector_onto_is_idempotent_and_fixes_span():
    vs = [vec(1, 1, 0), vec(0, 1, 1)]
    p = projector_onto(vs, 3)
    assert mat_mul(p, p) == p
    assert p.is_hermitian()
    from lpcckit.exact import mat_vec
    for v in vs:
        assert mat_vec(p, v) == v


# plain-Fraction reference elimination over Q(i): a complex number is a
# (re, im) pair of Fractions, and every entry is touched on every row
# operation, with no zero skipping

def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _c_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _c_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _reference_rref(rows):
    rows = [[(Fraction(re), Fraction(im)) for re, im in row] for row in rows]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots, r = [], 0
    for c in range(n_cols):
        if r == n_rows:
            break
        p = next((i for i in range(r, n_rows) if rows[i][c] != (0, 0)), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = _c_inv(rows[r][c])
        rows[r] = [_c_mul(x, inv) for x in rows[r]]
        for i in range(n_rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [_c_sub(x, _c_mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _reference_nullspace(rows):
    red, pivots = _reference_rref(rows)
    n_cols = len(rows[0])
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        x = [(Fraction(0), Fraction(0))] * n_cols
        x[fc] = (Fraction(1), Fraction(0))
        for r, pc in enumerate(pivots):
            x[pc] = (-red[r][fc][0], -red[r][fc][1])
        basis.append(x)
    return basis


# the real and imaginary parts an elimination test draws: small Gaussian
# integers, rationals with denominators up to 12, and numerators of 300 bits
# or more, the size of L's basis entries on the Baseline sweep's blocks
_ENTRY_PARTS = {
    "gaussian": st.integers(-3, 3),
    "rational": st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    "wide": st.builds(Fraction, st.one_of(st.just(0),
                                          st.integers(2 ** 304, 2 ** 310),
                                          st.integers(-2 ** 310, -2 ** 304)),
                      st.integers(1, 12)),
}


def _sparse_gaussian_rows(data, n_rows, n_cols, part=_ENTRY_PARTS["gaussian"]):
    """Gaussian-rational rows, each entry's parts drawn from part, with at
    least half of the entries zero."""
    cells = data.draw(st.sets(st.integers(0, n_rows * n_cols - 1),
                              max_size=n_rows * n_cols // 2))
    rows = [[(0, 0)] * n_cols for _ in range(n_rows)]
    for cell in sorted(cells):
        rows[cell // n_cols][cell % n_cols] = data.draw(st.tuples(part, part))
    return rows


def _pairs(entries):
    return [(x.re, x.im) for x in entries]


def _assert_carries_its_read(v):
    """v carries an `int_read` from the start, equal to a fresh read of
    its entries."""
    assert getattr(v, "_read", None) == exact._read_of(
        [(j, x) for j, x in enumerate(v.entries) if not x.is_zero()])


def _assert_basis_contract(basis, free, n_cols, pivots):
    """nullspace_with_free's promises: free lists the non-pivot columns,
    basis vector l is 1 at free[l] and 0 at the other free columns, and
    each vector carries its `int_read`."""
    assert free == [c for c in range(n_cols) if c not in pivots]
    assert len(basis) == len(free)
    for l, b in enumerate(basis):
        assert [b[j] for j in free] == [ONE if j == free[l] else Scalar(0)
                                        for j in free]
        _assert_carries_its_read(b)


@settings(max_examples=450, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.data())
def test_elimination_matches_plain_fraction_reference(n_rows, n_cols, data):
    part = _ENTRY_PARTS[data.draw(st.sampled_from(sorted(_ENTRY_PARTS)))]
    rows = _sparse_gaussian_rows(data, n_rows, n_cols, part)
    a = Mat([[Scalar(re, im) for re, im in row] for row in rows])
    before = [_pairs(row) for row in a.entries]
    red, pivots = rref(a)
    want_red, want_pivots = _reference_rref(rows)
    assert pivots == want_pivots
    assert [_pairs(row) for row in red.entries] == want_red
    want_null = _reference_nullspace(rows)
    assert [_pairs(v.entries) for v in nullspace(a)] == want_null
    basis, free = nullspace_with_free(a)
    assert [_pairs(v.entries) for v in basis] == want_null
    _assert_basis_contract(basis, free, n_cols, want_pivots)

    # v is a combination of the rows, perhaps nudged off their span, or a
    # sparse row of its own
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n_rows,
                                    max_size=n_rows))
        entries = [sum((Scalar(c) * row[j] for c, row in zip(coeffs, a.entries)),
                       Scalar(0)) for j in range(n_cols)]
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, n_cols - 1))
            entries[j] = entries[j] + Scalar(1)
    else:
        entries = [Scalar(re, im)
                   for re, im in _sparse_gaussian_rows(data, 1, n_cols, part)[0]]
    v = Vec(entries)
    vecs = [Vec(row) for row in a.entries]
    v_before = _pairs(v.entries)
    spanned = len(_reference_rref(rows + [_pairs(entries)])[1]) == len(want_pivots)
    assert in_span(v, vecs) == spanned
    assert _pairs(v.entries) == v_before
    assert [_pairs(w.entries) for w in vecs] == before
    assert [_pairs(row) for row in a.entries] == before


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.data())
def test_integer_rank_matches_plain_fraction_reference(n_rows, n_cols, data):
    rows = _sparse_gaussian_rows(data, n_rows, n_cols)
    # dependent rows: Gaussian-integer combinations of the drawn ones
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                    min_size=n_rows, max_size=n_rows))
        rows.append([tuple(sum(t) for t in zip(*(_c_mul(c, row[j])
                                                 for c, row in zip(coeffs, rows))))
                     for j in range(n_cols)])
    rows += [[(0, 0)] * n_cols] * data.draw(st.integers(0, 2))
    rows = data.draw(st.permutations(rows))
    sparse = [[(j, a, b) for j, (a, b) in enumerate(row) if a or b] for row in rows]
    want = len(_reference_rref(rows)[1])
    assert rank(sparse) == want
    # a Mat is read to integer rows first; scaling its columns keeps the rank
    assert rank(Mat([[Scalar(Fraction(a, j + 1), Fraction(b, j + 1))
                      for j, (a, b) in enumerate(row)] for row in rows])) == want


def _solver_forms(s, group):
    """The pair forms `rank1_op_directions` builds L from, restricted to
    the group's working coordinates and without zeros or repeats, and
    the number k of those coordinates."""
    coords = group_support(s, group)[2]
    at = {a: j for j, a in enumerate(coords)}
    forms = dict.fromkeys(filter(None, (opsolve._restricted(c, at)
                                        for c in _pair_rows(s, group))))
    return list(forms), len(coords)


def _operator_rows(forms, cells):
    """L's equations as dense (re, im) rows over cells: per pair form C,
    sum E[a][b] C[a][b] = 0 and sum E[a][b] conj(C[b][a]) = 0, each kept
    when it has a nonzero entry."""
    rows = []
    for c in forms:
        e = {(a, b): (x, y) for a, row in c for b, x, y in row}
        fwd = [e.get(cell, (0, 0)) for cell in cells]
        back = [(x, -y) for x, y in (e.get((b, a), (0, 0)) for a, b in cells)]
        rows += [r for r in (fwd, back) if any(z != (0, 0) for z in r)]
    return rows or [[(0, 0)] * len(cells)]


def test_operator_space_matches_plain_fraction_reference():
    # every proper group with k <= 9 of the named sets (S1m and S2m at
    # m = 2) and both parties of the Baseline sweep's blocks at seeds 18,
    # 34 and 42, whose L bases carry numerators of 140 to 530 bits, and of
    # the k = 4 draws again with complex amplitudes (the named sets and
    # the Baseline's are real); a system met before (a relabelled set) is
    # solved once
    sets = [build_named_set(n, m=2 if n in ("S1m", "S2m") else None)
            for n in NAMED_SETS]
    for seed, complex_amps in ((18, False), (34, False), (42, False),
                               (18, True), (42, True)):
        rng = random.Random(seed)
        dims = rng.choice([(4, 4), (4, 3), (5, 3), (4, 2), (6, 2)])
        n = rng.randrange(4, dims[0] * dims[1] - 1)
        sets.append(random_orthogonal_set(rng, dims, n, complex_amps))
    seen, bits = set(), 0
    for s in sets:
        n = s.spec.n_parties
        for group in (g for size in range(1, n)
                      for g in itertools.combinations(range(n), size)):
            forms, k = _solver_forms(s, group)
            if k > opsolve.MAX_EXACT_DIM or (k, frozenset(forms)) in seen:
                continue
            seen.add((k, frozenset(forms)))
            for cells in ([(a, b) for a in range(k) for b in range(k)],
                          [(a, a) for a in range(k)]):
                basis = opsolve._operator_space(forms, cells)
                assert ([_pairs(v.entries) for v in basis]
                        == _reference_nullspace(_operator_rows(forms, cells)))
                for v in basis:
                    _assert_carries_its_read(v)
                    bits = max([bits] + [max(abs(x), abs(y)).bit_length()
                                         for _, x, y in v.int_read()[1]])
    assert len(seen) == 35 and bits >= 500


@pytest.mark.parametrize("name, m, group, dim_l", [
    ("S1m", 3, (0, 2), 325), ("UnionS", None, (1, 2), 3998)])
def test_largest_operator_spaces_keep_their_dimension(name, m, group, dim_l):
    # the Baseline's dim L on the largest eliminations the repo does:
    # S1m(3) AC (k = 49, 2,401 unknowns) and UnionS BC (k = 64, 4,096)
    forms, k = _solver_forms(build_named_set(name, m=m), group)
    basis = opsolve._operator_space(forms, [(a, b) for a in range(k)
                                            for b in range(k)])
    assert len(basis) == dim_l


# the two-Fraction Scalar that the integer (a + b*i)/d kernel replaced,
# kept as the reference for every Scalar operation

class _FractionScalar:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        return _FractionScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _FractionScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _FractionScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return _FractionScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return _FractionScalar((a * c + b * d) / n, (b * c - a * d) / n)

    def conj(self):
        return _FractionScalar(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def inv(self):
        return _FractionScalar(1) / self

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def to_quad(self):
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    @staticmethod
    def from_quad(q):
        return _FractionScalar(Fraction(q[0], q[1]), Fraction(q[2], q[3]))


# ints take the constructor's int path, Fractions the general one; a
# Fraction's own reduction still leaves (re, im) with a common factor
# against the shared denominator, as in 2/4 + 6/4 i = (1 + 3i)/2
_parts = st.one_of(st.just(0), st.integers(-40, 40),
                   st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
_pairs_of_parts = st.tuples(_parts, _parts)
_quads = st.tuples(st.integers(-40, 40), st.integers(-12, 12).filter(bool),
                   st.integers(-40, 40), st.integers(-12, 12).filter(bool))


def _agrees(z, ref):
    """z holds the reference's value in canonical integer form, and every
    read-only view of it agrees with the reference."""
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == (ref.re, ref.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z.norm2() == ref.norm2() and type(z.norm2()) is Fraction
    assert z.is_zero() == ref.is_zero()
    assert z.is_real() == ref.is_real()
    assert repr(z) == repr(ref)
    assert z.to_quad() == ref.to_quad()
    back = Scalar.from_quad(z.to_quad())
    assert back == z and hash(back) == hash(z)


@settings(max_examples=400, deadline=None)
@given(_pairs_of_parts, _pairs_of_parts)
def test_scalar_matches_two_fraction_reference(p, q):
    x, rx = Scalar(*p), _FractionScalar(*p)
    y, ry = Scalar(*q), _FractionScalar(*q)
    _agrees(x, rx)
    _agrees(y, ry)
    _agrees(x + y, rx + ry)
    _agrees(x - y, rx - ry)
    _agrees(x * y, rx * ry)
    _agrees(-x, -rx)
    _agrees(x.conj(), rx.conj())
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            ONE / y
    else:
        _agrees(x / y, rx / ry)
        _agrees(ONE / y, ry.inv())
        # the same value reached by another route is equal and hashes alike
        assert (x * y) / y == x and hash((x * y) / y) == hash(x)
    assert (x == y) == (rx == ry)
    assert (x != y) == (not rx == ry)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(_quads)
def test_from_quad_matches_two_fraction_reference(q):
    # quads may be unreduced or carry negative denominators
    _agrees(Scalar.from_quad(q), _FractionScalar.from_quad(q))


def test_scalar_arithmetic_builds_no_fraction(monkeypatch):
    x, y = Scalar(Fraction(3, 4), Fraction(-5, 6)), Scalar(2, Fraction(1, 3))

    def no_fraction(*args):
        raise AssertionError("Scalar arithmetic built a Fraction")

    monkeypatch.setattr(exact, "Fraction", no_fraction)
    for z in (x + y, x - y, x * y, x / y, -x, x.conj(), ONE / x):
        assert not z.is_zero()
    assert x == x * y / y and x != y


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_pairs_of_parts, min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_sort_keys_order_matrices_as_their_rationals_do(cells):
    mats = [Mat([[Scalar(*p) for p in c[:2]], [Scalar(*p) for p in c[2:]]])
            for c in cells]
    keys = sort_keys(mats)

    def rational_key(i):
        return tuple(tuple((x.re, x.im) for x in row) for row in mats[i].entries)

    order = sorted(range(len(mats)), key=rational_key)
    assert sorted(range(len(mats)), key=keys.__getitem__) == order
    for i in range(len(mats)):
        for j in range(len(mats)):
            assert (keys[i] == keys[j]) == (mats[i] == mats[j])


def _dense_projector_onto(vecs, dim):
    """The dense outer-product sum that `projector_onto` replaced: each
    orthogonal basis vector b adds |b><b| / <b|b>, entry (i, j) being
    b_i * conj(b_j) / <b|b>."""
    basis = gram_schmidt([v for v in vecs if not v.is_zero()])
    p = Mat([[Scalar(0)] * dim for _ in range(dim)])
    for b in basis:
        w = ONE / inner(b, b)
        p = p + Mat([[x * y.conj() * w for y in b.entries]
                     for x in b.entries])
    return p


_gaussian_rationals = st.builds(Scalar, _parts, _parts)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.data())
def test_projector_onto_matches_dense_outer_sum(dim, n_vecs, data):
    # sparse spans: each vector has at most three nonzero entries
    vecs = []
    for _ in range(n_vecs):
        out = [Scalar(0)] * dim
        for i in data.draw(st.sets(st.integers(0, dim - 1), max_size=3)):
            out[i] = data.draw(_gaussian_rationals)
        vecs.append(Vec(out))
    # dependent spans: a Gaussian-rational combination of the drawn vectors
    if data.draw(st.booleans()):
        coeffs = [data.draw(_gaussian_rationals) for _ in vecs]
        vecs.append(Vec([sum((c * v[i] for c, v in zip(coeffs, vecs)), Scalar(0))
                         for i in range(dim)]))
    vecs += [Vec([Scalar(0)] * dim)] * data.draw(st.integers(0, 2))
    vecs = data.draw(st.permutations(vecs))
    p = projector_onto(vecs, dim)
    assert p == _dense_projector_onto(vecs, dim)
    for row in p.entries:
        for z in row:
            assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
