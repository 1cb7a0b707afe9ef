"""Mixed-radix index plumbing for multiparty tensors.

A state over parties with local dimensions (d_0, ..., d_{n-1}) is a flat
vector of length prod(d_p), leftmost party slowest. A `GroupIndexer`'s
`cells` table is the one index map: `cells[r][g]` is the flat index with
group digits g and rest digits r, and every slice, scatter, group
operator, factorization, permutation and merge reads its rows. Moving
digits into other local spaces is the one `relabel_digits`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exact import Mat, Vec, ZERO, mat_vec, rank


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
    return GroupIndexer(dims, perm).local_vectors(v)[0]


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
    return Vec(out)


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
        # cells[r][g] = global index with group digits g and rest digits r
        self.cells = [[r + g for g in g_offsets] for r in _offsets(dims, self.rest)]

    def flat(self, g: int, r: int) -> int:
        return self.cells[r][g]

    def local_vectors(self, v: Vec) -> list[Vec]:
        """Group-side slices u^r: u^r[g] = v[flat(g, r)], one per rest index."""
        e = v.entries
        return [Vec([e[i] for i in row]) for row in self.cells]

    def assemble(self, slices: Sequence[Vec]) -> Vec:
        out = [ZERO] * (self.group_dim * self.rest_dim)
        for row, u in zip(self.cells, slices):
            for i, x in zip(row, u.entries):
                out[i] = x
        return Vec(out)

    def apply_operator(self, op: Mat, v: Vec) -> Vec:
        """(op on group) tensor (identity on rest) applied to v."""
        if op.rows != self.group_dim or op.cols != self.group_dim:
            raise ValueError("operator does not match group dimension")
        return self.assemble([u if u.is_zero() else mat_vec(op, u)
                              for u in self.local_vectors(v)])

    def factor(self, v: Vec) -> tuple[Vec, Vec] | None:
        """(group factor, rest factor) when v is a product across
        group | rest, else None; their tensor product is a nonzero
        multiple of v."""
        e = v.entries
        m = Mat(zip(*([e[i] for i in row] for row in self.cells)))
        if rank(m) != 1:
            return None
        g0, r0 = m.first_nonzero()
        return m.col(r0), m.row(g0)
