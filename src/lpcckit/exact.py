"""Exact Gaussian-rational scalars and dense vectors/matrices.

Everything downstream (state sets, measurements, solvers) runs on this
kernel, so all arithmetic here is over the field Q(i): rational real and
imaginary parts, no floating point, equality is literal equality.

Index convention for tensors: leftmost factor is slowest (row-major).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]


class Scalar:
    """Complex number with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar((a * c + b * d) / n, (b * c - a * d) / n)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def norm2(self) -> Fraction:
        """|z|^2, always a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inv(self) -> "Scalar":
        return ONE / self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def to_quad(self) -> list:
        """[re_num, re_den, im_num, im_den] for JSON round-trips."""
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    @staticmethod
    def from_quad(q: Sequence[int]) -> "Scalar":
        return Scalar(Fraction(q[0], q[1]), Fraction(q[2], q[3]))


ZERO = Scalar(0)
ONE = Scalar(1)


def sc(x) -> Scalar:
    """Coerce an int/Fraction/Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


class Vec:
    """Dense exact vector."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries = tuple(sc(e) for e in entries)
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
        return Vec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        _check_dim(self, other)
        return Vec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self.entries)

    def scale(self, c: Scalar) -> "Vec":
        c = sc(c)
        return Vec(c * a for a in self.entries)

    def conj(self) -> "Vec":
        return Vec(a.conj() for a in self.entries)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def norm2(self) -> Fraction:
        """<v|v> as a rational."""
        return sum((a.norm2() for a in self.entries), Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.entries) if not a.is_zero())

    def normalized_leading(self) -> "Vec":
        """Scale so the first nonzero entry is 1 (canonical ray form)."""
        for a in self.entries:
            if not a.is_zero():
                return self.scale(ONE / a)
        return self

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(repr(a) for a in self.entries) + ")"


class Mat:
    """Dense exact matrix, row-major tuple of row tuples."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable]):
        self.entries = tuple(tuple(sc(e) for e in row) for row in rows)
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
        return Mat(tuple(a + b for a, b in zip(r1, r2))
                   for r1, r2 in zip(self.entries, other.entries))

    def __sub__(self, other: "Mat") -> "Mat":
        _check_shape(self, other)
        return Mat(tuple(a - b for a, b in zip(r1, r2))
                   for r1, r2 in zip(self.entries, other.entries))

    def scale(self, c: Scalar) -> "Mat":
        c = sc(c)
        return Mat(tuple(c * a for a in row) for row in self.entries)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def first_nonzero(self) -> tuple[int, int]:
        """(row, column) of the first nonzero entry in row-major order."""
        for i, row in enumerate(self.entries):
            for j, a in enumerate(row):
                if not a.is_zero():
                    return i, j
        raise ValueError("zero matrix")

    def row(self, i: int) -> Vec:
        return Vec(self.entries[i])

    def col(self, j: int) -> Vec:
        return Vec(r[j] for r in self.entries)

    def conj_transpose(self) -> "Mat":
        return Mat(tuple(self.entries[i][j].conj() for i in range(self.rows))
                   for j in range(self.cols))

    def transpose(self) -> "Mat":
        return Mat(tuple(self.entries[i][j] for i in range(self.rows))
                   for j in range(self.cols))

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
    """<u|v> with conjugation on the first argument."""
    _check_dim(u, v)
    acc = ZERO
    for a, b in zip(u.entries, v.entries):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a.conj() * b
    return acc


def tensor(*vecs: Vec) -> Vec:
    """Kronecker product, leftmost factor slowest."""
    if not vecs:
        raise ValueError("tensor of nothing")
    out = list(vecs[0].entries)
    for v in vecs[1:]:
        out = [a * b for a in out for b in v.entries]
    return Vec(out)


def kron_mat(*mats: Mat) -> Mat:
    """Kronecker product of matrices, same ordering convention."""
    if not mats:
        raise ValueError("kron of nothing")
    acc = mats[0]
    for m in mats[1:]:
        rows = []
        for i1 in range(acc.rows):
            for i2 in range(m.rows):
                rows.append(tuple(acc.entries[i1][j1] * m.entries[i2][j2]
                                  for j1 in range(acc.cols)
                                  for j2 in range(m.cols)))
        acc = Mat(rows)
    return acc


def outer(u: Vec, v: Vec) -> Mat:
    """|u><v|, so entry (i, j) = u_i * conj(v_j)."""
    cv = [b.conj() for b in v.entries]
    return Mat(tuple(a * b for b in cv) for a in u.entries)


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a.cols != v.dim:
        raise ValueError("shape mismatch in mat_vec")
    out = []
    for row in a.entries:
        acc = ZERO
        for x, y in zip(row, v.entries):
            if not x.is_zero() and not y.is_zero():
                acc = acc + x * y
        out.append(acc)
    return Vec(out)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in mat_mul")
    bt = list(zip(*b.entries))
    rows = []
    for ra in a.entries:
        row = []
        for cb in bt:
            acc = ZERO
            for x, y in zip(ra, cb):
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y
            row.append(acc)
        rows.append(tuple(row))
    return Mat(rows)


def identity(n: int) -> Mat:
    return Mat(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zero_mat(rows: int, cols: int) -> Mat:
    return Mat(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def zero_vec(dim: int) -> Vec:
    return Vec([ZERO] * dim)


def basis_vec(dim: int, i: int) -> Vec:
    return Vec(ONE if j == i else ZERO for j in range(dim))


def reshape(v: Vec, rows: int, cols: int) -> Mat:
    """View a flat vector as a rows x cols matrix (row index slowest)."""
    if rows * cols != v.dim:
        raise ValueError(f"cannot reshape dim {v.dim} into {rows}x{cols}")
    return Mat(tuple(v.entries[r * cols + c] for c in range(cols))
               for r in range(rows))


def flatten(m: Mat) -> Vec:
    return Vec(a for row in m.entries for a in row)


def _row_echelon(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """In-place fraction-exact reduced row echelon; returns (rows, pivot
    columns). The row lists themselves are overwritten. Eliminating
    touches only the pivot row's nonzero columns, since x - f*0 = x."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = ONE / prow[c]
        # columns left of c are zero in the pivot row
        nz = [j for j in range(c, n_cols) if not prow[j].is_zero()]
        for j in nz:
            prow[j] = prow[j] * inv
        for i in range(n_rows):
            row = rows[i]
            if i == r or row[c].is_zero():
                continue
            f = row[c]
            for j in nz:
                row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows = [list(r) for r in a.entries]
    rows, pivots = _row_echelon(rows)
    return Mat(tuple(r) for r in rows), pivots


def rank(a: Mat) -> int:
    _, pivots = rref(a)
    return len(pivots)


def nullspace(a: Mat) -> list[Vec]:
    """Exact basis of {x : a x = 0}, one vector per free column."""
    return nullspace_with_free(a)[0]


def nullspace_with_free(a: Mat) -> tuple[list[Vec], list[int]]:
    """Nullspace basis plus its free columns: basis vector l is 1 at
    free[l] and 0 at the other free columns, so the l-th coefficient of
    a nullspace vector equals its entry at free[l]."""
    red, pivots = rref(a)
    n_cols = a.cols
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        x = [ZERO] * n_cols
        x[fc] = ONE
        for r, pc in enumerate(pivots):
            x[pc] = -red.entries[r][fc]
        basis.append(Vec(x))
    return basis, free


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """One exact solution of a x = b, or None if inconsistent."""
    aug = Mat(tuple(list(row) + [b.entries[i]]) for i, row in enumerate(a.entries))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][a.cols]
    return Vec(x)


def vectors_rank(vecs: Sequence[Vec]) -> int:
    if not vecs:
        return 0
    return rank(Mat(tuple(v.entries) for v in vecs))


def in_span(v: Vec, vecs: Sequence[Vec]) -> bool:
    """Exact membership of v in span(vecs)."""
    if v.is_zero():
        return True
    if not vecs:
        return False
    base = [list(w.entries) for w in vecs]
    r0 = len(_row_echelon([row[:] for row in base])[1])
    r1 = len(_row_echelon(base + [list(v.entries)])[1])
    return r0 == r1


def gram_schmidt(vecs: Sequence[Vec]) -> list[Vec]:
    """Orthogonal (not normalized) exact basis of span(vecs)."""
    basis: list[Vec] = []
    for v in vecs:
        w = v
        for b in basis:
            coeff = inner(b, w) / sc(b.norm2())
            w = w - b.scale(coeff)
        if not w.is_zero():
            basis.append(w)
    return basis


def projector_onto(vecs: Sequence[Vec], dim: int) -> Mat:
    """Orthogonal projector onto span(vecs), exact over Q(i)."""
    basis = gram_schmidt([v for v in vecs if not v.is_zero()])
    p = zero_mat(dim, dim)
    for b in basis:
        p = p + outer(b, b).scale(ONE / sc(b.norm2()))
    return p
