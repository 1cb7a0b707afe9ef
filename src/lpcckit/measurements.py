"""Projective measurements attached to party groups.

A LocalPVM carries a PVM together with the ordered party group it acts
on. One image pass serves both the orthogonality-preservation test and
the exact unnormalized post-measurement branches: `measure` computes each
state's images once per outcome, reads the verdict from one sesquilinear
zero test per (element, pair) on them and builds the branches from them;
`preserves_orthogonality` (stopping at the first witness) and `apply` are
the same pass with one of the two reads. It, and `branch_survivals`, run
on integers: each state's `int_slices` (its kept `Vec.int_read`, sliced
by the shared `indexer`) over its denominator F, and each element's
nonzero rows over one denominator D, built per call. Projectors are built
on integer reads too (`exact.projector_onto`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

from .exact import (Mat, Scalar, Vec, ZERO, ONE, _reduced, _wrap, identity,
                    mat_mul, mat_vec, projector_onto)
from .indexing import indexer, total_dim
from .statesets import PartySpec, StateSet, group_support


class Projector:
    """Exact orthogonal projector; square, Hermitian, idempotent. A
    projector is its matrix, and its rank is its trace."""

    def __init__(self, mat: Mat, *, _validated: bool = False):
        if mat.rows != mat.cols:
            raise ValueError("projector must be square")
        if not _validated:
            if not mat.is_hermitian():
                raise ValueError("projector is not Hermitian")
            if mat_mul(mat, mat) != mat:
                raise ValueError("projector is not idempotent")
        self.mat = mat

    @staticmethod
    def from_span(vecs: Sequence[Vec], dim: int) -> "Projector":
        """Projector onto span(vecs); idempotent by construction."""
        return Projector(projector_onto(vecs, dim), _validated=True)

    @staticmethod
    def from_ray(v: Vec) -> "Projector":
        return Projector.from_span([v], v.dim)

    @staticmethod
    def zero(dim: int) -> "Projector":
        return Projector(Mat(tuple(ZERO for _ in range(dim)) for _ in range(dim)),
                         _validated=True)

    @staticmethod
    def full(dim: int) -> "Projector":
        return Projector(identity(dim), _validated=True)

    @staticmethod
    def diagonal(indices: Iterable[int], dim: int) -> "Projector":
        keep = set(indices)
        return Projector(Mat(tuple(ONE if (i == j and i in keep) else ZERO
                                   for j in range(dim)) for i in range(dim)),
                         _validated=True)

    @property
    def dim(self) -> int:
        return self.mat.rows

    def rank(self) -> int:
        """The trace: a projector's eigenvalues are 0 and 1."""
        tr = ZERO
        for i, row in enumerate(self.mat.entries):
            tr = tr + row[i]
        return int(tr.re)

    def is_zero(self) -> bool:
        return self.rank() == 0

    def is_identity(self) -> bool:
        return self.rank() == self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Projector):
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank()})"

    def to_json(self) -> list:
        return [[a.to_quad() for a in row] for row in self.mat.entries]

    @staticmethod
    def from_json(rows: list) -> "Projector":
        return Projector(Mat(tuple(Scalar.from_quad(q) for q in row) for row in rows))


def complement(elements: Sequence[Projector], dim: int) -> Projector:
    """1 minus the sum of mutually orthogonal projectors (the zero
    projector when they already sum to 1). A projector's row h is zero
    when P_hh = ||P e_h||^2 is, so only the other rows are subtracted."""
    rows = [list(row) for row in identity(dim).entries]
    for e in elements:
        for h, row in enumerate(e.mat.entries):
            if row[h]._a or row[h]._b:
                out = rows[h]
                for g, x in enumerate(row):
                    if x._a or x._b:
                        out[g] = out[g] - x
    return Projector(_wrap(Mat, tuple(map(tuple, rows))), _validated=True)


class PVM:
    """Complete set of mutually orthogonal projectors summing to identity.

    Hermiticity + idempotence of each element + sum-to-identity already
    force pairwise orthogonality, so that is the whole validity check:
    the `complement` of the elements is zero.
    """

    def __init__(self, elements: Sequence[Projector]):
        if not elements:
            raise ValueError("PVM needs at least one element")
        dim = elements[0].dim
        if any(e.dim != dim for e in elements):
            raise ValueError("PVM elements have mixed dimensions")
        if not complement(elements, dim).mat.is_zero():
            raise ValueError("PVM elements do not sum to the identity")
        self.elements = tuple(elements)
        self.dim = dim

    @staticmethod
    def completed(elements: Sequence[Projector], dim: int) -> "PVM":
        """The one completion of a partial PVM: the mutually orthogonal
        elements, plus 1 minus their sum when that is nonzero. It sums to 1
        by construction, so `__init__`'s re-sum is skipped."""
        comp = complement(elements, dim)
        return PVM._trusted(elements if comp.is_zero() else (*elements, comp), dim)

    @staticmethod
    def _trusted(elements: Sequence[Projector], dim: int) -> "PVM":
        """The PVM of projectors already known to sum to 1, unchecked."""
        pvm = object.__new__(PVM)
        pvm.elements = tuple(elements)
        pvm.dim = dim
        return pvm

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def is_trivial(self) -> bool:
        """Every element is 0 or the identity (the projective reading of
        'proportional to the identity')."""
        return all(e.is_zero() or e.is_identity() for e in self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PVM):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        ranks = ",".join(str(e.rank()) for e in self.elements)
        return f"PVM(dim={self.dim}, ranks=[{ranks}])"

    def to_json(self) -> list:
        return [e.to_json() for e in self.elements]

    @staticmethod
    def from_json(data: list) -> "PVM":
        return PVM([Projector.from_json(rows) for rows in data])


@dataclass(frozen=True)
class LocalPVM:
    """A PVM acting on an ordered group of parties.

    The group is typically one block of a partition; the block-internal
    digit order is the listed party order.
    """

    pvm: PVM
    group: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(self.group))

    def validate(self, spec: PartySpec) -> None:
        expect = total_dim([spec.dims[p] for p in self.group])
        if self.pvm.dim != expect:
            raise ValueError(
                f"PVM dim {self.pvm.dim} does not match group {self.group} "
                f"dimension {expect}")
        if any(p < 0 or p >= spec.n_parties for p in self.group):
            raise ValueError(f"group {self.group} outside spec")

    def describe(self, spec: PartySpec) -> str:
        return "".join(spec.labels[p] for p in self.group)


def embed(lp: LocalPVM, spec: PartySpec) -> list[Mat]:
    """Each element tensored with identity on the other parties."""
    lp.validate(spec)
    idx = indexer(spec.dims, lp.group)
    out = []
    for e in lp.pvm.elements:
        rows = [[ZERO] * spec.total_dim for _ in range(spec.total_dim)]
        for cell in idx.cells:
            for i, e_row in zip(cell, e.mat.entries):
                row = rows[i]
                for j, val in zip(cell, e_row):
                    row[j] = val
        out.append(Mat(tuple(tuple(row) for row in rows)))
    return out


@dataclass(frozen=True)
class OutcomeBranch:
    outcome: int
    states: StateSet | None          # None when every state is annihilated
    annihilated: tuple[str, ...]


def _int_rows(lp: LocalPVM) -> tuple[int, list[list]]:
    """One denominator D for the PVM's elements, and each element's
    nonzero rows as (h, {g: (re, im)}): the integer numerators over D of
    the row's nonzero entries only, read from the rows whose diagonal
    entry is nonzero (the others are zero). Built per call and not kept,
    so the PVMs that results hold stay small."""
    nonzeros = [[(h, [(g, x) for g, x in enumerate(row) if x._a or x._b])
                 for h, row in enumerate(e.mat.entries) if row[h]._a or row[h]._b]
                for e in lp.pvm.elements]
    den = lcm(*{x._d for m in nonzeros for _, row in m for _, x in row})
    return den, [[(h, {g: (x._a * (den // x._d), x._b * (den // x._d))
                       for g, x in row}) for h, row in m] for m in nonzeros]


def _image(rows, u) -> list[tuple[int, int, int]]:
    """P u on integers: the nonzero (h, re, im) in ascending h, over D*F,
    for P's nonzero rows from `_int_rows` and a slice u of (g, a, b) over F."""
    out = []
    for h, row in rows:
        re = im = 0
        for g, a, b in u:
            p = row.get(g)
            if p is not None:
                x, y = p
                re += x * a - y * b
                im += x * b + y * a
        if re or im:
            out.append((h, re, im))
    return out


def _images(s: StateSet, lp: LocalPVM):
    """The one image pass: per outcome, each state's (D*F, {r: P u^r}),
    its nonzero integer images over D*F. Outcomes come one at a time, so
    a caller that stops early computes no more of them."""
    lp.validate(s.spec)
    idx = indexer(s.spec.dims, lp.group)
    den, mats = _int_rows(lp)
    reads = [idx.int_slices(v) for v in s.vectors()]
    for outcome, rows in enumerate(mats):
        yield outcome, [(den * f, {r: w for r, u in sl.items()
                                   if (w := _image(rows, u))}) for f, sl in reads]


def _overlap(images: list) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, with <P psi_i|P psi_j> != 0, or None.
    For a projector this is <psi_i|P|psi_j>; it is summed on the integer
    images over the indices both touch, and is 0 exactly when both
    integer sums are, whatever the denominators."""
    looks = [{r: {h: (x, y) for h, x, y in u} for r, u in w.items()} for _, w in images]
    for i, (_, wi) in enumerate(images):
        if not wi:
            continue
        for j in range(i + 1, len(images)):
            wj = looks[j]
            re = im = 0
            for r, u in wi.items():
                w = wj.get(r)
                if w:
                    for h, a, b in u:
                        x, y = w.get(h, (0, 0))
                        re += a * x + b * y
                        im += a * y - b * x
            if re or im:
                return i, j
    return None


def _branch(s: StateSet, lp: LocalPVM, outcome: int, images: list) -> OutcomeBranch:
    """The outcome's branch from its images: states mapped to zero are
    dropped and recorded as annihilated (that is what lets protocol
    verification confirm elimination claims), and Scalars are built only
    for the nonzero entries of the nonzero images."""
    idx = indexer(s.spec.dims, lp.group)
    survivors: list[tuple[str, Vec]] = []
    killed: list[str] = []
    for (label, _), (d, w) in zip(s.states, images):
        if not w:
            killed.append(label)
            continue
        slices = {}
        for r, u in w.items():
            slices[r] = out = [ZERO] * idx.group_dim
            for h, a, b in u:
                out[h] = _reduced(a, b, d)
        survivors.append((label, idx.scatter(slices)))
    branch_set = None
    if survivors:
        branch_set = StateSet(
            s.spec, survivors,
            provenance=f"{s.provenance}|{lp.describe(s.spec)}:{outcome}")
    return OutcomeBranch(outcome, branch_set, tuple(killed))


@dataclass(frozen=True)
class OPVerdict:
    ok: bool
    witness: tuple[int, int, int] | None = None   # (outcome, i, j)

    def __bool__(self) -> bool:
        return self.ok


def measure(s: StateSet, lp: LocalPVM
            ) -> tuple[OPVerdict, dict[int, OutcomeBranch]]:
    """`preserves_orthogonality` and `apply` from one image pass: each
    state's images serve both the pair sums and the branch. Every branch
    is built, also after a witness."""
    verdict, branches = OPVerdict(True), {}
    for outcome, images in _images(s, lp):
        pair = _overlap(images) if verdict else None
        if pair:
            verdict = OPVerdict(False, (outcome, *pair))
        branches[outcome] = _branch(s, lp, outcome, images)
    return verdict, branches


def apply(s: StateSet, lp: LocalPVM) -> dict[int, OutcomeBranch]:
    """Unnormalized post-measurement branches, one per outcome."""
    return {o: _branch(s, lp, o, images) for o, images in _images(s, lp)}


def preserves_orthogonality(s: StateSet, lp: LocalPVM) -> OPVerdict:
    """ok iff <psi_i| (P tensor I) |psi_j> = 0 for every element and pair;
    the witness is the first (outcome, i, j) that breaks it. For
    projectors this one value is the post-measurement inner product, and
    its cost follows the states' support, not the dimension."""
    for outcome, images in _images(s, lp):
        pair = _overlap(images)
        if pair:
            return OPVerdict(False, (outcome, *pair))
    return OPVerdict(True)


def branch_survivals(s: StateSet, candidates: Sequence[LocalPVM]) -> list[int]:
    """How many (outcome, state) pairs each candidate leaves nonzero:
    `apply`'s survivors, counted on integers without building the branches.
    A state survives an element whatever PVM holds it, so each distinct
    (group, element object) is counted once per call, up to each state's
    first nonzero image, and a candidate's count is the sum over its
    elements. The candidates hold their elements for the whole call, so
    an element's id is a key that hashes no matrix."""
    counts: dict[tuple, int] = {}
    for lp in candidates:
        lp.validate(s.spec)
        idx = indexer(s.spec.dims, lp.group)
        slices = [idx.int_slices(v)[1] for v in s.vectors()]
        for e, rows in zip(lp.pvm.elements, _int_rows(lp)[1]):
            if (lp.group, id(e)) not in counts:
                counts[lp.group, id(e)] = sum(
                    1 for sl in slices if any(_image(rows, u) for u in sl.values()))
    return [sum(counts[lp.group, id(e)] for e in lp.pvm.elements)
            for lp in candidates]


def acts_as_scalar_on(e: Projector, support: Sequence[Vec]) -> bool:
    """True when the element is 0 or the identity on span(support), i.e.
    trivial relative to the set living there."""
    return (all(mat_vec(e.mat, v) == v for v in support)
            or all(mat_vec(e.mat, v).is_zero() for v in support))


def is_trivial_for_set(lp: LocalPVM, s: StateSet) -> bool:
    """The PVM cannot eliminate a state or extract information from the
    set: every element acts as 0 or 1 on the group's joint local support,
    or that support is one-dimensional (a common factor, so outcome
    statistics are state-independent and the branch problems are
    isomorphic to the original)."""
    support, rank, _ = group_support(s, lp.group)
    return rank <= 1 or all(acts_as_scalar_on(e, support) for e in lp.pvm.elements)
