"""Mixed-radix index plumbing for multiparty tensors.

A state over parties with local dimensions (d_0, ..., d_{n-1}) is a flat
vector of length prod(d_p), leftmost party slowest. A `GroupIndexer`'s
`cells` table is the one index map: `cells[r][g]` is the flat index with
group digits g and rest digits r, and every slice, scatter, group
operator, factorization, permutation and merge reads its rows; `indexer`
keeps one per (dims, group). States are sparse, so `int_slices` maps a
state's one sparse read, `Vec.int_read`, through the inverse table
`where` into the slices it touches, as Gaussian-integer numerators over
one denominator per state; `scatter` sets that read on the states it
builds. Measurement application, the orthogonality-
preservation test, the solver's pair forms and `factor` run on those
integers; `nonzero_slices` (and `slice_vec`, for one slice) is the `Vec`
view of the same read for the readers that need `Scalar`s (support
vectors, redundancy, the protocols' first-slice reads and
`apply_operator`). Moving digits into other local
spaces is the one `relabel_digits`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from .exact import Mat, Vec, ZERO, _vec_of, _wrap, mat_vec

MAX_INDEXERS = 128   # kept by `indexer`; a query meets far fewer pairs


def strides(dims: Sequence[int]) -> list[int]:
    out = [1] * len(dims)
    for p in range(len(dims) - 2, -1, -1):
        out[p] = out[p + 1] * dims[p + 1]
    return out


def digits_of(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    out = []
    for s in strides(dims):
        out.append(index // s)
        index %= s
    return tuple(out)


def index_of(digits: Sequence[int], dims: Sequence[int]) -> int:
    return sum(d * s for d, s in zip(digits, strides(dims)))


def total_dim(dims: Sequence[int]) -> int:
    t = 1
    for d in dims:
        t *= d
    return t


def _offsets(dims: Sequence[int], parties: Sequence[int]) -> list[int]:
    """Flat offset of every digit tuple of `parties` in their listed
    order (first slowest), expanded one party's stride at a time."""
    st = strides(dims)
    out = [0]
    for p in parties:
        out = [o + x * st[p] for o in out for x in range(dims[p])]
    return out


def permute_axes(v: Vec, dims: Sequence[int], perm: Sequence[int]) -> Vec:
    """Reorder parties: new party p is old party perm[p]."""
    return indexer(dims, perm).local_vectors(v)[0]


def relabel_digits(v: Vec, dims: Sequence[int], new_dims: Sequence[int],
                   maps: Sequence[Mapping[int, int]]) -> Vec:
    """Move party p's digit x to maps[p][x] in the new local dimensions.
    Amplitudes on digits a map leaves out are dropped."""
    old_st, new_st = strides(dims), strides(new_dims)
    moves = [(0, 0)]
    for p, m in enumerate(maps):
        moves = [(o + x * old_st[p], n + y * new_st[p])
                 for o, n in moves for x, y in m.items()]
    out = [ZERO] * total_dim(new_dims)
    for o, n in moves:
        out[n] = v.entries[o]
    return _wrap(Vec, tuple(out))


def embed_with_offsets(v: Vec, old_dims: Sequence[int], new_dims: Sequence[int],
                       offsets: Sequence[int]) -> Vec:
    """Shift every party's digits by an offset into larger local spaces."""
    for od, nd, off in zip(old_dims, new_dims, offsets):
        if off < 0 or off + od > nd:
            raise ValueError("offset pushes digits outside the new local space")
    return relabel_digits(v, old_dims, new_dims,
                          [{x: x + off for x in range(od)}
                           for od, off in zip(old_dims, offsets)])


class GroupIndexer:
    """Splits flat indices into (group, rest) parts for a party group.

    The group is an ordered tuple of party positions; its internal digit
    order is the listed order, so non-contiguous and reordered groups
    (e.g. measuring parties (2, 0) jointly) work uniformly.
    """

    def __init__(self, dims: Sequence[int], group: Sequence[int]):
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
        g_offsets = _offsets(dims, group)
        # cells[r][g] = global index with group digits g and rest digits r;
        # where[i] = (r, g) inverts it
        self.cells = tuple(tuple(ro + go for go in g_offsets)
                           for ro in _offsets(dims, self.rest))
        self.where = tuple(rg for _, rg in sorted(
            (i, (r, g)) for r, row in enumerate(self.cells) for g, i in enumerate(row)))

    def flat(self, g: int, r: int) -> int:
        return self.cells[r][g]

    def local_vectors(self, v: Vec) -> list[Vec]:
        """Group-side slices u^r: u^r[g] = v[flat(g, r)], one per rest index."""
        e = v.entries
        return [_wrap(Vec, tuple(e[i] for i in row)) for row in self.cells]

    def int_slices(self, v: Vec) -> tuple[int, dict[int, list[tuple[int, int, int]]]]:
        """(F, slices): v's nonzero slices u^r, keyed by ascending r, each
        the list of (g, a, b) with u^r[g] = (a + b*i)/F over ascending g,
        where F is the lcm of v's denominators: v's `int_read` mapped
        through `where`."""
        where = self.where
        if v.dim != len(where):
            raise ValueError(f"state dimension {v.dim} does not match "
                             f"the indexer's {len(where)}")
        den, read = v.int_read()
        slices: dict[int, list] = {}
        # sorted by (r, g): a reordered group's g does not grow with i
        for (r, g), a, b in sorted([(where[i], a, b) for i, a, b in read]):
            slices.setdefault(r, []).append((g, a, b))
        return den, slices

    def slice_vec(self, v: Vec, r: int) -> Vec:
        """The slice u^r as a `Vec` of v's own entries."""
        e = v.entries
        return _wrap(Vec, tuple(e[i] for i in self.cells[r]))

    def nonzero_slices(self, v: Vec) -> dict[int, Vec]:
        """The slices of `int_slices` as `Vec`s."""
        return {r: self.slice_vec(v, r) for r in self.int_slices(v)[1]}

    def scatter(self, slices: Mapping[int, Sequence]) -> Vec:
        """The state whose slice u^r is slices[r] (a `Vec` or a list of
        `Scalar`s), zero on every other r, carrying from the start the
        `int_read` of the nonzero entries it writes."""
        return _vec_of([(i, x) for r, u in slices.items()
                        for i, x in zip(self.cells[r], u) if x._a or x._b],
                       len(self.where))

    def assemble(self, slices: Sequence[Vec]) -> Vec:
        return self.scatter(dict(enumerate(slices)))

    def apply_operator(self, op: Mat, v: Vec) -> Vec:
        """(op on group) tensor (identity on rest) applied to v."""
        if op.rows != self.group_dim or op.cols != self.group_dim:
            raise ValueError("operator does not match group dimension")
        return self.scatter({r: mat_vec(op, u)
                             for r, u in self.nonzero_slices(v).items()})

    def factor(self, v: Vec) -> tuple[Vec, Vec] | None:
        """(group factor, rest factor) when v is a product across
        group | rest, else None; their tensor product is a nonzero
        multiple of v.

        With M[g][r] = u^r[g] and (g0, r0) its first nonzero entry in
        row-major order, M has rank 1 exactly when every nonzero slice
        has u^r0's support and passes the cross-multiplication
        u^r * M[g0][r0] == u^r0 * M[g0][r] there, which holds for the
        integer numerators of `int_slices` alike, since F cancels; the
        factors are M's column r0 and row g0, read from v's entries."""
        slices = self.int_slices(v)[1]
        if not slices:
            return None
        g0 = min(u[0][0] for u in slices.values())
        r0 = next(r for r, u in slices.items() if u[0][0] == g0)
        c = slices[r0]
        _, pa, pb = c[0]
        for u in slices.values():
            if len(u) != len(c):
                return None
            _, qa, qb = u[0]
            for (g, a, b), (h, ca, cb) in zip(u, c):
                if (g != h or a * pa - b * pb != ca * qa - cb * qb
                        or a * pb + b * pa != ca * qb + cb * qa):
                    return None
        e, cells = v.entries, self.cells
        row = [ZERO] * self.rest_dim
        for r in slices:
            row[r] = e[cells[r][g0]]
        return self.slice_vec(v, r0), _wrap(Vec, tuple(row))


def indexer(dims: Sequence[int], group: Sequence[int]) -> GroupIndexer:
    """The one `GroupIndexer` of (dims, group), built on first use; shared
    safely, since its tables are tuples."""
    return _indexer(tuple(dims), tuple(group))


_indexer = lru_cache(maxsize=MAX_INDEXERS)(GroupIndexer)
