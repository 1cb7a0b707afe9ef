"""Exact Gaussian-rational scalars and dense vectors/matrices.

Everything downstream (state sets, measurements, solvers) runs on this
kernel, so all arithmetic here is over the field Q(i): rational real and
imaginary parts, no floating point, equality is literal equality.

The one sparse read of a `Vec` lives on it: `int_read()`, its nonzero
entries as Gaussian-integer numerators over one denominator, kept after
first use or set by `GroupIndexer.scatter` or `nullspace`. `inner`,
`projector_onto`, `GroupIndexer.int_slices` and `StateSet.ray_key` read
only that. There is one elimination, `_echelon`, division-free on rows
of such integers: `rank` counts its pivot rows, `rref` divides each by
its pivot entry, and `nullspace` reads its basis off them. No `Scalar`
arithmetic runs inside it.

Index convention for tensors: leftmost factor is slowest (row-major).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]


class Scalar:
    """Complex number with exact rational real/imaginary parts.

    Stored as three ints (a, b, d) with value (a + b*i)/d, d > 0 and
    gcd(a, b, d) = 1. The form is canonical, so equality compares the
    triples, and all arithmetic is plain int arithmetic; Gaussian
    integers (d = 1) skip the gcd.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            if d == 1:
                return _mk(a + c, b + e, 1)
            return _reduced(a + c, b + e, d)
        g = gcd(d, f)
        if g == 1:
            # coprime denominators leave the sum in canonical form
            return _mk(a * f + c * d, b * f + e * d, d * f)
        d, f = d // g, f // g
        return _reduced(a * f + c * d, b * f + e * d, d * f * g)

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            if d == 1:
                return _mk(a - c, b - e, 1)
            return _reduced(a - c, b - e, d)
        g = gcd(d, f)
        if g == 1:
            return _mk(a * f - c * d, b * f - e * d, d * f)
        d, f = d // g, f // g
        return _reduced(a * f - c * d, b * f - e * d, d * f * g)

    def __neg__(self) -> "Scalar":
        return _mk(-self._a, -self._b, self._d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == 1 and f == 1:
            return _mk(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, d = self._a, self._b, self._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def conj(self) -> "Scalar":
        return _mk(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def norm2(self) -> Fraction:
        """|z|^2, always a nonnegative rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"

    def to_quad(self) -> list:
        """[re_num, re_den, im_num, im_den] for JSON round-trips."""
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        return [a // g, d // g, b // h, d // h]

    @staticmethod
    def from_quad(q: Sequence[int]) -> "Scalar":
        """q0/q1 + (q2/q3)i as (q0*q3 + q2*q1*i)/(q1*q3); anything but four
        ints with nonzero denominators is a ValueError."""
        if not (isinstance(q, (list, tuple)) and len(q) == 4
                and all(type(x) is int for x in q) and q[1] and q[3]):
            raise ValueError(f"amplitude {q!r} is not four integers with nonzero denominators")
        a, p, b, r = q
        sign = 1 if p * r > 0 else -1
        return _reduced(sign * a * r, sign * b * p, abs(p * r))


_new = object.__new__


def _mk(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d, which must already be canonical."""
    z = _new(Scalar)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for any d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    if g == 1:
        return _mk(a, b, d)
    return _mk(a // g, b // g, d // g)


ZERO = Scalar(0)
ONE = Scalar(1)
_add, _sub, _neg, _conj = Scalar.__add__, Scalar.__sub__, Scalar.__neg__, Scalar.conj


def sc(x) -> Scalar:
    """Coerce an int/Fraction/Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


def _coerced(entries: Iterable) -> tuple:
    """entries as a tuple of Scalars; sc() runs only if one is not yet."""
    t = tuple(entries)
    if set(map(type, t)) <= {Scalar}:
        return t
    return tuple(map(sc, t))


def _nonzeros(entries: Sequence[Scalar]) -> list[tuple[int, Scalar]]:
    return [(j, y) for j, y in enumerate(entries) if y._a or y._b]


def _read_of(nz: Sequence[tuple[int, Scalar]]) -> tuple[int, tuple]:
    """`Vec.int_read` of the nonzero (i, x) pairs nz, in ascending i."""
    den = lcm(*{x._d for _, x in nz})
    return den, tuple((i, x._a * (den // x._d), x._b * (den // x._d)) for i, x in nz)


def _vec_of(nz: list[tuple[int, Scalar]], n: int) -> "Vec":
    """The n-entry Vec with the nonzero (index, Scalar) pairs nz and ZERO
    elsewhere, carrying their `int_read` from the start."""
    nz.sort()   # the indices are distinct, so no Scalars compare
    x = [ZERO] * n
    for i, z in nz:
        x[i] = z
    v = _wrap(Vec, tuple(x))
    v._read = _read_of(nz)
    return v


def _wrap(cls, entries: tuple):
    """A Vec or Mat around entries (rows of) Scalars built by this module,
    skipping the coercion and checks of the public constructors."""
    obj = _new(cls)
    obj.entries = entries
    return obj


def sort_keys(mats: Sequence["Mat"]) -> list[tuple]:
    """Each matrix as rows of integer (re, im) numerator pairs over one
    denominator shared by all of them: these keys compare exactly as the
    matrices' rows of rational (re, im) pairs would."""
    den = lcm(*{x._d for m in mats for row in m.entries for x in row})
    return [tuple(tuple((x._a * (den // x._d), x._b * (den // x._d))
                        for x in row) for row in m.entries) for m in mats]


class Vec:
    """Dense exact vector; immutable, so `int_read` is kept in `_read`."""

    __slots__ = ("entries", "_read")

    def __init__(self, entries: Iterable):
        self.entries = _coerced(entries)
        if len(self.entries) < 1:
            raise ValueError("Vec needs at least one entry")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vec):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        _check_dim(self, other)
        return _wrap(Vec, tuple(map(_add, self.entries, other.entries)))

    def __sub__(self, other: "Vec") -> "Vec":
        _check_dim(self, other)
        return _wrap(Vec, tuple(map(_sub, self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return _wrap(Vec, tuple(map(_neg, self.entries)))

    def scale(self, c: Scalar) -> "Vec":
        return _wrap(Vec, tuple(map(sc(c).__mul__, self.entries)))

    def conj(self) -> "Vec":
        return _wrap(Vec, tuple(map(_conj, self.entries)))

    def is_zero(self) -> bool:
        return not any(a._a or a._b for a in self.entries)

    def norm2(self) -> Fraction:
        """<v|v> as a rational."""
        return inner(self, self).re

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.entries) if a._a or a._b)

    def int_read(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """(F, ((i, a, b), ...)): the nonzero entries (a + b*i)/F in
        ascending i, where F is the lcm of their denominators. Computed
        once and kept, unless `GroupIndexer.scatter` or `nullspace` already
        set it from the entries they wrote; the entries never change."""
        read = getattr(self, "_read", None)
        if read is None:
            read = self._read = _read_of(_nonzeros(self.entries))
        return read

    def normalized_leading(self) -> "Vec":
        """Scale so the first nonzero entry is 1: the canonical ray form,
        and the one hashable key rays are compared by. Only nonzero
        entries are multiplied; zeros already are the canonical ZERO."""
        for a in self.entries:
            if a._a or a._b:
                mul = (ONE / a).__mul__
                return _wrap(Vec, tuple(mul(x) if x._a or x._b else x
                                        for x in self.entries))
        return self

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(repr(a) for a in self.entries) + ")"


class Mat:
    """Dense exact matrix, row-major tuple of row tuples."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]):
        self.entries = tuple(map(_coerced, rows))
        if not self.entries or not self.entries[0]:
            raise ValueError("Mat needs at least one row and column")
        w = len(self.entries[0])
        if any(len(r) != w for r in self.entries):
            raise ValueError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, i: int):
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Mat") -> "Mat":
        _check_shape(self, other)
        return _wrap(Mat, tuple(tuple(map(_add, r1, r2))
                                for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        _check_shape(self, other)
        return _wrap(Mat, tuple(tuple(map(_sub, r1, r2))
                                for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> "Mat":
        mul = sc(c).__mul__
        return _wrap(Mat, tuple(tuple(map(mul, row)) for row in self.entries))

    def is_zero(self) -> bool:
        return not any(a._a or a._b for row in self.entries for a in row)

    def first_nonzero(self) -> tuple[int, int]:
        """(row, column) of the first nonzero entry in row-major order."""
        for i, row in enumerate(self.entries):
            for j, a in enumerate(row):
                if not a.is_zero():
                    return i, j
        raise ValueError("zero matrix")

    def row(self, i: int) -> Vec:
        return _wrap(Vec, self.entries[i])

    def col(self, j: int) -> Vec:
        return _wrap(Vec, tuple(r[j] for r in self.entries))

    def conj_transpose(self) -> "Mat":
        return _wrap(Mat, tuple(tuple(map(_conj, col))
                                for col in zip(*self.entries)))

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i, self.cols):
                if self.entries[i][j] != self.entries[j][i].conj():
                    return False
        return True

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(a) for a in row) for row in self.entries)
        return f"Mat[{body}]"


def _check_dim(u: Vec, v: Vec) -> None:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")


def _check_shape(a: Mat, b: Mat) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


def inner(u: Vec, v: Vec) -> Scalar:
    """<u|v> with conjugation on the first argument, summed on integers
    over the indices where both `int_read`s are nonzero (both ascend)."""
    _check_dim(u, v)
    du, ru = u.int_read()
    dv, rv = v.int_read()
    re = im = j = 0
    for i, a, b in ru:
        while j < len(rv) and rv[j][0] < i:
            j += 1
        if j < len(rv) and rv[j][0] == i:
            _, c, d = rv[j]
            re += a * c + b * d
            im += a * d - b * c
    return _reduced(re, im, du * dv)


def tensor(*vecs: Vec) -> Vec:
    """Kronecker product, leftmost factor slowest."""
    if not vecs:
        raise ValueError("tensor of nothing")
    out = list(vecs[0].entries)
    for v in vecs[1:]:
        out = [a * b for a in out for b in v.entries]
    return _wrap(Vec, tuple(out))


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a.cols != v.dim:
        raise ValueError("shape mismatch in mat_vec")
    nz = _nonzeros(v.entries)
    out = []
    for row in a.entries:
        acc = ZERO
        for j, y in nz:
            x = row[j]
            if x._a or x._b:
                acc = acc + x * y
        out.append(acc)
    return _wrap(Vec, tuple(out))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in mat_mul")
    bt = [_nonzeros(cb) for cb in zip(*b.entries)]
    rows = []
    for ra in a.entries:
        row = []
        for nz in bt:
            acc = ZERO
            for j, y in nz:
                x = ra[j]
                if x._a or x._b:
                    acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return _wrap(Mat, tuple(rows))


@cache
def identity(n: int) -> Mat:
    """The n x n identity, built once per n: a Mat is immutable."""
    return Mat(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zero_vec(dim: int) -> Vec:
    return Vec([ZERO] * dim)


def basis_vec(dim: int, i: int) -> Vec:
    return Vec(ONE if j == i else ZERO for j in range(dim))


def reshape(v: Vec, rows: int, cols: int) -> Mat:
    """View a flat vector as a rows x cols matrix (row index slowest)."""
    if rows * cols != v.dim:
        raise ValueError(f"cannot reshape dim {v.dim} into {rows}x{cols}")
    return _wrap(Mat, tuple(v.entries[r * cols:(r + 1) * cols]
                            for r in range(rows)))


def _primitive(y: dict) -> dict:
    """Row y divided by the gcd of its parts, zeros dropped; {} if none."""
    g = gcd(*chain.from_iterable(y.values()))
    return {j: (re // g, im // g) for j, (re, im) in y.items() if re or im} if g else {}


def _cleared(x: dict, p: dict, c: int) -> dict:
    """Row x, nonzero at c, cleared there by pivot row p (p_c a positive
    integer): x <- p_c*x - x_c*p, made `_primitive`."""
    d, (fa, fb) = p[c][0], x[c]
    y = {j: (d * a, d * b) for j, (a, b) in x.items()}
    for j, (a, b) in p.items():
        re, im = y.get(j, (0, 0))
        y[j] = (re - fa * a + fb * b, im - fa * b - fb * a)
    return _primitive(y)


def _echelon(rows: Union[Mat, Iterable[Sequence[tuple[int, int, int]]]],
             back: bool = True) -> list[tuple[int, dict]]:
    """The one elimination, on Gaussian-integer rows each given as its
    nonzero (column, re, im) entries, as in `Vec.int_read` (a Mat's rows
    are read that way, each scaled by its denominator). Columns go in
    ascending order: the first row left nonzero at column c, times the
    conjugate of its entry there, pivots, and `_cleared` clears c from
    every other row, earlier pivot rows included unless back is false. A
    real pivot entry keeps Gaussian-integer content (which the gcd of the
    parts leaves) from piling up. Returns the pivot rows
    (c, {column: (re, im)}), ascending in c: each is a positive integer
    at c and, with back, zero at the other pivot columns, so divided by
    that it is a row of the (unique) reduced row echelon form."""
    if isinstance(rows, Mat):
        rows = [_read_of(nz)[1] for nz in map(_nonzeros, rows.entries) if nz]
    todo = [{c: (a, b) for c, a, b in row} for row in rows if row]
    done: list[tuple[int, dict]] = []
    cols = sorted({c for x in todo for c in x})
    for c in cols:
        q = next((x for x in todo if c in x), None)
        if q is None:
            continue
        pa, pb = q[c]
        p = _primitive({j: (pa * a + pb * b, pa * b - pb * a)
                        for j, (a, b) in q.items()})
        if back:
            done = [(d, _cleared(x, p, c) if c in x else x) for d, x in done]
        done.append((c, p))
        # the rows left are zero before c, so at the last column they clear to 0
        if c == cols[-1]:
            break
        todo = [y for x in todo if x is not q
                and (y := _cleared(x, p, c) if c in x else x)]
    return done


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column list: `_echelon`'s pivot
    rows, each divided by its pivot entry, then the zero rows."""
    pivots = _echelon(a)
    rows = [[ZERO] * a.cols for _ in range(a.rows)]
    for row, (c, p) in zip(rows, pivots):
        d = p[c][0]
        for j, (re, im) in p.items():
            row[j] = _reduced(re, im, d)
    return _wrap(Mat, tuple(map(tuple, rows))), [c for c, _ in pivots]


def nullspace(a: Mat) -> list[Vec]:
    """Exact basis of {x : a x = 0}, one vector per free column."""
    return nullspace_with_free(a)[0]


def nullspace_with_free(a: Mat) -> tuple[list[Vec], list[int]]:
    """Nullspace basis plus its free columns: basis vector l is 1 at
    free[l] and 0 at the other free columns, so the l-th coefficient of
    a nullspace vector equals its entry at free[l]."""
    return _nullspace(a, a.cols)


def _nullspace(rows: Union[Mat, Iterable[Sequence[tuple[int, int, int]]]],
               n_cols: int) -> tuple[list[Vec], list[int]]:
    """`nullspace_with_free` of rows as `_echelon` takes them, on n_cols
    columns: free column j gives 1 at j and -p_j/p_c at each pivot row p's
    column c. Each vector carries its `int_read`, as `scatter` sets it."""
    pivots = _echelon(rows)
    pivot_cols = {c for c, _ in pivots}
    free = [j for j in range(n_cols) if j not in pivot_cols]
    nzs = {j: [(j, ONE)] for j in free}
    for c, p in pivots:
        d = p[c][0]
        for j, (re, im) in p.items():
            if j != c:
                nzs[j].append((c, _reduced(-re, -im, d)))
    return [_vec_of(nz, n_cols) for nz in nzs.values()], free


def rank(rows: Union[Mat, Iterable[Sequence[tuple[int, int, int]]]]) -> int:
    """Rank of a Mat, or of Gaussian-integer rows each given as its nonzero
    (column, re, im) entries, as in `Vec.int_read`: the number of
    `_echelon`'s pivot rows, which it need not reduce."""
    return len(_echelon(rows, back=False))


def in_span(v: Vec, vecs: Sequence[Vec]) -> bool:
    """Exact membership of v in span(vecs): appending v keeps the rank."""
    rows = [w.int_read()[1] for w in vecs]
    return rank(rows) == rank(rows + [v.int_read()[1]])


def gram_schmidt(vecs: Sequence[Vec]) -> list[Vec]:
    """Orthogonal (not normalized) exact basis of span(vecs)."""
    basis: list[Vec] = []
    for v in vecs:
        w = v
        for b in basis:
            coeff = inner(b, w) / inner(b, b)
            w = w - b.scale(coeff)
        if not w.is_zero():
            basis.append(w)
    return basis


def projector_onto(vecs: Sequence[Vec], dim: int) -> Mat:
    """Orthogonal projector onto span(vecs), exact over Q(i): the sum of
    n n^dagger / <n|n> over the `int_read` numerators n of an orthogonal
    basis (the denominator cancels), accumulated on integers over the one
    lcm L of the norms <n|n> and reduced once per nonzero entry."""
    reads = [b.int_read()[1]
             for b in gram_schmidt([v for v in vecs if not v.is_zero()])]
    norms = [sum(a * a + b * b for _, a, b in n) for n in reads]
    den = lcm(*norms)
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for n, nn in zip(reads, norms):
        w = den // nn
        for i, a, b in n:
            a, b = a * w, b * w
            for j, c, e in n:
                re, im = acc.get((i, j), (0, 0))
                acc[i, j] = (re + a * c + b * e, im + b * c - a * e)
    rows = [[ZERO] * dim for _ in range(dim)]
    for (i, j), (re, im) in acc.items():
        if re or im:
            rows[i][j] = _reduced(re, im, den)
    return _wrap(Mat, tuple(map(tuple, rows)))
