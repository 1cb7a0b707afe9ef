"""Mixed-radix index plumbing for multiparty tensors.

A state over parties with local dimensions (d_0, ..., d_{n-1}) is a flat
vector of length prod(d_p), leftmost party slowest. Helpers here decode,
permute, embed and split such indices so the rest of the package never
does stride arithmetic by hand.
"""

from __future__ import annotations

from typing import Sequence

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


def permute_axes(v: Vec, dims: Sequence[int], perm: Sequence[int]) -> Vec:
    """Reorder parties: new party p is old party perm[p]."""
    new_dims = [dims[p] for p in perm]
    out = [ZERO] * v.dim
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, dims)
        out[index_of([d[p] for p in perm], new_dims)] = amp
    return Vec(out)


def embed_with_offsets(v: Vec, old_dims: Sequence[int], new_dims: Sequence[int],
                       offsets: Sequence[int]) -> Vec:
    """Shift every party's digits by an offset into larger local spaces."""
    for od, nd, off in zip(old_dims, new_dims, offsets):
        if off < 0 or off + od > nd:
            raise ValueError("offset pushes digits outside the new local space")
    out = [ZERO] * total_dim(new_dims)
    for i, amp in enumerate(v.entries):
        if amp.is_zero():
            continue
        d = digits_of(i, old_dims)
        out[index_of([x + off for x, off in zip(d, offsets)], new_dims)] = amp
    return Vec(out)


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
        st = strides(dims)
        g_str = [st[p] for p in group]
        r_str = [st[p] for p in self.rest]
        # flat[g][r] = global index with group digits g and rest digits r
        g_offsets = []
        for g in range(self.group_dim):
            gd = digits_of(g, self.group_dims) if group else ()
            g_offsets.append(sum(x * s for x, s in zip(gd, g_str)))
        r_offsets = []
        for r in range(self.rest_dim):
            rd = digits_of(r, self.rest_dims) if self.rest else ()
            r_offsets.append(sum(x * s for x, s in zip(rd, r_str)))
        self._g_offsets = g_offsets
        self._r_offsets = r_offsets

    def flat(self, g: int, r: int) -> int:
        return self._g_offsets[g] + self._r_offsets[r]

    def local_vectors(self, v: Vec) -> list[Vec]:
        """Group-side slices u^r: u^r[g] = v[flat(g, r)], one per rest index."""
        out = []
        for r in range(self.rest_dim):
            out.append(Vec([v.entries[self.flat(g, r)] for g in range(self.group_dim)]))
        return out

    def assemble(self, slices: Sequence[Vec]) -> Vec:
        out = [ZERO] * (self.group_dim * self.rest_dim)
        for r, u in enumerate(slices):
            for g in range(self.group_dim):
                out[self.flat(g, r)] = u.entries[g]
        return Vec(out)

    def apply_operator(self, op: Mat, v: Vec) -> Vec:
        """(op on group) tensor (identity on rest) applied to v."""
        if op.rows != self.group_dim or op.cols != self.group_dim:
            raise ValueError("operator does not match group dimension")
        out = [ZERO] * v.dim
        for r in range(self.rest_dim):
            sub = Vec([v.entries[self.flat(g, r)] for g in range(self.group_dim)])
            if sub.is_zero():
                continue
            image = mat_vec(op, sub)
            for g in range(self.group_dim):
                out[self.flat(g, r)] = image.entries[g]
        return Vec(out)

    def factor(self, v: Vec) -> tuple[Vec, Vec] | None:
        """(group factor, rest factor) when v is a product across
        group | rest, else None; their tensor product is a nonzero
        multiple of v."""
        m = Mat(tuple(v.entries[self.flat(g, r)] for r in range(self.rest_dim))
                for g in range(self.group_dim))
        if rank(m) != 1:
            return None
        g0, r0 = m.first_nonzero()
        return m.col(r0), m.row(g0)
