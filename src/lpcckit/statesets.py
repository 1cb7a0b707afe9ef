"""State sets: named orthogonal families, user sets, and set-level predicates.

States are kept unnormalized with integer (more generally Gaussian
rational) amplitudes, so every orthogonality / redundancy / separability
question below is answered by an exact zero test. The integer pair
forms of `_pair_rows` live here: the redundancy test and `opsolve` read them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .exact import Scalar, Vec, ZERO, inner, rank
from .indexing import (embed_with_offsets, index_of, indexer, permute_axes,
                       relabel_digits, total_dim)

NAMED_SETS = ("S1", "S2", "S2prime", "S2doubleprime", "S1m", "S2m",
              "Domino", "UnionS")


@dataclass(frozen=True)
class PartySpec:
    """Ordered local dimensions plus party names."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("party dimensions must be positive")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(_party_name(i) for i in range(len(self.dims))))
        if len(self.labels) != len(self.dims):
            raise ValueError("labels/dims length mismatch")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return total_dim(self.dims)

    def party_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"no party named {name!r}") from None


def _party_name(i: int) -> str:
    # A, B, C, ... then P25, P26, ...
    return chr(ord("A") + i) if i < 26 else f"P{i}"


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive, ordered grouping of party positions."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks",
                           tuple(tuple(b) for b in self.blocks))
        if not all(self.blocks):
            raise ValueError("empty partition block")
        parties = [q for b in self.blocks for q in b]
        if len(set(parties)) != len(parties):
            raise ValueError(f"partition {self.blocks} names a party twice")

    def validate(self, spec: PartySpec) -> None:
        covered = {p for b in self.blocks for p in b}
        if covered != set(range(spec.n_parties)):
            raise ValueError(f"partition {self.blocks} does not cover all parties")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @staticmethod
    def trivial(n_parties: int) -> "Partition":
        return Partition(tuple((p,) for p in range(n_parties)))

    def block_label(self, spec: PartySpec, i: int) -> str:
        return "".join(spec.labels[p] for p in self.blocks[i])

    def describe(self, spec: PartySpec) -> str:
        return "|".join(self.block_label(spec, i) for i in range(self.n_blocks))


class StateSet:
    """Labeled list of unnormalized state vectors over a PartySpec."""

    def __init__(self, spec: PartySpec, states: Iterable[tuple[str, Vec]],
                 provenance: str = "user"):
        self.spec = spec
        self.states = tuple(states)
        self.provenance = provenance
        self._supports: dict[tuple[int, ...], tuple] = {}   # see group_support
        self._orthogonality = None          # see check_mutual_orthogonality
        if not self.states:
            raise ValueError("state set has no states")
        for label, v in self.states:
            if v.dim != spec.total_dim:
                raise ValueError(f"state {label!r} has dim {v.dim}, expected {spec.total_dim}")
            if not v.int_read()[1]:
                raise ValueError(f"state {label!r} is the zero vector")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.states)

    def vectors(self) -> tuple[Vec, ...]:
        return tuple(v for _, v in self.states)

    @cached_property
    def ray_key(self) -> tuple:
        """Canonical key of the set up to state order and nonzero
        per-state scalars: the dims plus the sorted rays, each ray in its
        `normalized_leading` form and kept as its nonzero cells: the index
        and the entry's canonical integer triple (a, b, d) for
        (a + b*i)/d, read off `int_read` as (a + b*i)/(c + e*i) over the
        first entry c + e*i. Computed once; the states never change."""
        rays = []
        for v in self.vectors():
            read = v.int_read()[1]
            _, c, e = read[0]
            n = c * c + e * e
            ray = []
            for i, a, b in read:
                re, im = a * c + b * e, b * c - a * e
                g = gcd(re, im, n)
                ray.append((i, re // g, im // g, n // g))
            rays.append(tuple(ray))
        return (self.spec.dims, tuple(sorted(rays)))

    def state(self, label: str) -> Vec:
        for l, v in self.states:
            if l == label:
                return v
        raise KeyError(label)

    def with_states(self, states: Iterable[tuple[str, Vec]],
                    provenance: str | None = None) -> "StateSet":
        return StateSet(self.spec, states, provenance or self.provenance)

    def to_json(self) -> dict:
        return {
            "dims": list(self.spec.dims),
            "labels": list(self.spec.labels),
            "states": [{"label": l, "amps": [a.to_quad() for a in v.entries]}
                       for l, v in self.states],
            "provenance": self.provenance,
        }

    @staticmethod
    def from_json(data: dict) -> "StateSet":
        spec = PartySpec(tuple(data["dims"]), tuple(data.get("labels") or ()))
        states = [(s["label"], Vec([Scalar.from_quad(q) for q in s["amps"]]))
                  for s in data["states"]]
        return StateSet(spec, states, data.get("provenance", "user"))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(text: str) -> "StateSet":
        return StateSet.from_json(json.loads(text))

    def __repr__(self) -> str:
        return (f"StateSet({self.provenance!r}, {len(self.states)} states, "
                f"dims={self.spec.dims})")


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class OrthogonalityVerdict:
    ok: bool
    witness: tuple[int, int, Scalar] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RedundancyVerdict:
    redundant: bool
    discarded_parties: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.redundant


def check_mutual_orthogonality(s: StateSet) -> OrthogonalityVerdict:
    """Exact pairwise orthogonality; witness is the first failing pair. Kept
    on the set, like `ray_key`; the verdict is frozen, so callers share it."""
    if s._orthogonality is None:
        vecs = s.vectors()
        values = ((i, j, inner(vecs[i], vecs[j]))
                  for i, j in combinations(range(len(vecs)), 2))
        bad = next((w for w in values if not w[2].is_zero()), None)
        s._orthogonality = OrthogonalityVerdict(bad is None, bad)
    return s._orthogonality


def require_orthogonal(s: StateSet) -> None:
    """The one refusal of a set with a non-orthogonal pair."""
    ov = check_mutual_orthogonality(s)
    if not ov:
        a, b = (s.labels()[i] for i in ov.witness[:2])
        raise ValueError(f"states {a!r} and {b!r} are not orthogonal")


def is_locally_redundant(s: StateSet) -> RedundancyVerdict:
    """Can some subsystems be discarded with all states staying
    perfectly distinguishable (reduced states pairwise trace-orthogonal)?

    Discarding the group D keeps rho_i^K with Tr(rho_i^K rho_j^K) =
    sum_{d,e} |C^D_ij[d][e]|^2 over the pair forms of `_pair_rows` on D,
    so D can go exactly when they are all zero (the lazy forms stop at the
    first nonzero one). Keeping more parties keeps orthogonal supports
    orthogonal, so D can go only if each of its parties can.
    """
    n = s.spec.n_parties
    if n < 2:
        raise ValueError("redundancy needs at least two parties")
    for p in range(n):
        if not any(_pair_rows(s, (p,))):
            return RedundancyVerdict(True, (p,))
    return RedundancyVerdict(False)


def _pair_rows(s: StateSet, group: Sequence[int]) -> Iterator[tuple]:
    """Each unordered pair's form C_ij[a][b] = sum_r conj(u_i^r[a]) u_j^r[b]
    over the group-side slices u^r, yielded lazily in (i, j) order, as its
    nonzero rows (a, ((b, re, im), ...)) in ascending a and b: the
    Gaussian-integer numerators over lcm(F_i)^2, one denominator for the
    whole group, so equal rows mean equal forms. Each state's
    `int_slices` is read once."""
    idx = indexer(s.spec.dims, group)
    reads = [idx.int_slices(v) for v in s.vectors()]
    den = lcm(*(f for f, _ in reads))
    slices = [{r: [(g, a * (den // f), b * (den // f)) for g, a, b in u]
               for r, u in sl.items()} for f, sl in reads]
    for i, si in enumerate(slices):
        for sj in slices[i + 1:]:
            acc: dict[int, dict[int, tuple[int, int]]] = {}
            for r, ui in si.items():
                uj = sj.get(r)
                if uj is None:
                    continue
                for a, x, y in ui:
                    row = acc.setdefault(a, {})
                    for b, p, q in uj:
                        # conj(x + yi) * (p + qi)
                        re, im = row.get(b, (0, 0))
                        row[b] = (re + x * p + y * q, im + x * q - y * p)
            yield tuple(
                (a, nz) for a, row in sorted(acc.items())
                if (nz := tuple((b, re, im) for b, (re, im) in sorted(row.items())
                                if re or im)))


def merge_parties(s: StateSet, p: Partition) -> StateSet:
    """Re-index states so each partition block becomes a single party.

    Block-internal digit order is the listed party order, so blocks such
    as (C, A) mean exactly "C's digit is slower than A's".
    """
    p.validate(s.spec)
    old_dims = s.spec.dims
    new_dims = tuple(total_dim([old_dims[q] for q in b]) for b in p.blocks)
    new_labels = tuple(p.block_label(s.spec, i) for i in range(p.n_blocks))
    new_spec = PartySpec(new_dims, new_labels)
    # a merged block's digit is its parties' digits in listed order, so the
    # merged flat index is the old one read with the parties block by block:
    # the one slice of the permutation indexer (see `permute_axes`)
    idx = indexer(old_dims, [q for b in p.blocks for q in b])
    return StateSet(new_spec, [(l, idx.local_vectors(v)[0]) for l, v in s.states],
                    provenance=f"{s.provenance} merged {p.describe(s.spec)}")


def separability_degree(state: Vec, spec: PartySpec) -> tuple[int, Partition]:
    """Largest m such that the state is a product across some m-partition,
    together with the (finest) partition achieving it.

    A block factors off exactly when the block-vs-rest reshape has rank 1;
    the finest factorization is found by peeling minimal factors.
    """
    if state.is_zero():
        raise ValueError("zero state has no separability degree")
    remaining = list(range(spec.n_parties))
    vec = state
    blocks: list[tuple[int, ...]] = []
    while remaining:
        if len(remaining) == 1:
            blocks.append((remaining[0],))
            break
        block, block_vec, rest_vec = _peel_minimal_factor(vec, spec.dims, remaining)
        blocks.append(block)
        remaining = [p for p in remaining if p not in block]
        vec = rest_vec if rest_vec is not None else vec
        if rest_vec is None:
            break
    blocks.sort(key=lambda b: b[0])
    return len(blocks), Partition(tuple(blocks))


def _peel_minimal_factor(vec: Vec, dims: Sequence[int], parties: list[int]):
    """Smallest subset of `parties` containing parties[0] that factors off.

    Returns (block, block_factor, rest_factor); rest_factor is None when
    the block is everything.
    """
    first = parties[0]
    others = parties[1:]
    sub_dims = [dims[p] for p in parties]
    for size in range(0, len(others)):
        for extra in combinations(others, size):
            block = (first,) + extra
            idx = indexer(sub_dims, [parties.index(p) for p in block])
            factors = idx.factor(vec)
            if factors is not None:
                return (block,) + factors
    return tuple(parties), None, None


# ---------------------------------------------------------------------------
# named families

def _term_state(dims: Sequence[int], terms: Iterable[tuple[int, tuple[int, ...]]]) -> Vec:
    out = [ZERO] * total_dim(dims)
    for coeff, digs in terms:
        i = index_of(digs, dims)
        out[i] = out[i] + Scalar(coeff)
    return Vec(out)


_DIMS_323 = (3, 2, 3)


def _s2_role_terms() -> list[list[tuple[int, tuple[int, int, int]]]]:
    """The nine TYPE-II states over role digits (first 3, middle 2, last 3)."""
    return [
        [(1, (0, 0, 0)), (1, (0, 0, 1)), (1, (0, 0, 2)), (-1, (0, 1, 2))],
        [(1, (0, 0, 0)), (-1, (0, 0, 1)), (-1, (0, 0, 2)), (-1, (0, 1, 2))],
        [(1, (1, 0, 2)), (-1, (1, 1, 2))],
        [(1, (2, 1, 0)), (1, (2, 1, 1)), (1, (2, 1, 2)), (-1, (2, 0, 2))],
        [(1, (2, 1, 0)), (-1, (2, 1, 1)), (-1, (2, 1, 2)), (-1, (2, 0, 2))],
        [(1, (0, 1, 0)), (-1, (0, 1, 1)), (1, (1, 1, 0)), (-1, (1, 1, 1))],
        [(1, (0, 1, 0)), (-1, (0, 1, 1)), (-1, (1, 1, 0)), (1, (1, 1, 1))],
        [(1, (1, 0, 0)), (-1, (1, 0, 1)), (1, (2, 0, 0)), (-1, (2, 0, 1))],
        [(1, (1, 0, 0)), (-1, (1, 0, 1)), (-1, (2, 0, 0)), (1, (2, 0, 1))],
    ]


def _build_s1() -> StateSet:
    d = _DIMS_323
    t = [
        [(1, (0, 0, 0)), (1, (0, 0, 1)), (1, (0, 1, 0)), (-1, (0, 1, 1))],
        [(1, (0, 0, 0)), (-1, (0, 0, 1)), (-1, (0, 1, 0)), (-1, (0, 1, 1))],
        [(1, (1, 0, 1)), (-1, (1, 1, 1))],
        [(1, (2, 0, 1)), (1, (2, 0, 2)), (1, (2, 1, 1)), (-1, (2, 1, 2))],
        [(1, (2, 0, 1)), (-1, (2, 0, 2)), (-1, (2, 1, 1)), (-1, (2, 1, 2))],
        [(1, (0, 0, 2)), (-1, (0, 1, 2)), (1, (1, 0, 2)), (-1, (1, 1, 2))],
        [(1, (0, 0, 2)), (-1, (0, 1, 2)), (-1, (1, 0, 2)), (1, (1, 1, 2))],
        [(1, (1, 0, 0)), (-1, (1, 1, 0)), (1, (2, 0, 0)), (-1, (2, 1, 0))],
        [(1, (1, 0, 0)), (-1, (1, 1, 0)), (-1, (2, 0, 0)), (1, (2, 1, 0))],
    ]
    states = [(str(i + 1), _term_state(d, terms)) for i, terms in enumerate(t)]
    return StateSet(PartySpec(d), states, provenance="S1")


def _build_s2() -> StateSet:
    states = [(str(i + 1), _term_state(_DIMS_323, terms))
              for i, terms in enumerate(_s2_role_terms())]
    return StateSet(PartySpec(_DIMS_323), states, provenance="S2")


def _permuted_s2(perm: tuple[int, int, int], provenance: str) -> StateSet:
    """S2 with party roles moved to new positions: new party p is role perm[p]."""
    base = _build_s2()
    new_dims = tuple(_DIMS_323[p] for p in perm)
    spec = PartySpec(new_dims)
    states = [(l, permute_axes(v, _DIMS_323, perm)) for l, v in base.states]
    return StateSet(spec, states, provenance=provenance)


def _build_s2prime() -> StateSet:
    # product in B|CA: role-first party sits at B, role-middle at C, role-last at A
    return _permuted_s2((2, 0, 1), "S2prime")


def _build_s2doubleprime() -> StateSet:
    # product in C|AB
    return _permuted_s2((1, 2, 0), "S2doubleprime")


def _build_domino() -> StateSet:
    d = (3, 3)
    t = [
        [(1, (0, 0)), (1, (0, 1))],
        [(1, (0, 0)), (-1, (0, 1))],
        [(1, (0, 2)), (1, (1, 2))],
        [(1, (0, 2)), (-1, (1, 2))],
        [(1, (1, 0)), (1, (2, 0))],
        [(1, (1, 0)), (-1, (2, 0))],
        [(1, (2, 1)), (1, (2, 2))],
        [(1, (2, 1)), (-1, (2, 2))],
        [(1, (1, 1))],
    ]
    states = [(str(i + 1), _term_state(d, terms)) for i, terms in enumerate(t)]
    return StateSet(PartySpec(d), states, provenance="Domino")


def _build_s1m(m: int) -> StateSet:
    d = (2 * m + 1, 2, 2 * m + 1)
    states: list[tuple[str, Vec]] = []

    def add(label: str, terms):
        states.append((label, _term_state(d, terms)))

    add("c", [(1, (m, 0, m)), (-1, (m, 1, m))])
    for i in range(m):
        for k in range(m - i):
            c0, c1, c2 = i + 2 * k, i + 2 * k + 1, i + 2 * k + 2
            add(f"p{i}.{k}.1", [(1, (i, 0, c0)), (1, (i, 1, c0)),
                                (1, (i, 0, c1)), (-1, (i, 1, c1))])
            add(f"p{i}.{k}.2", [(1, (i, 0, c0)), (-1, (i, 1, c0)),
                                (-1, (i, 0, c1)), (-1, (i, 1, c1))])
            a = 2 * m - i
            add(f"p{i}.{k}.3", [(1, (a, 0, c1)), (1, (a, 1, c1)),
                                (1, (a, 0, c2)), (-1, (a, 1, c2))])
            add(f"p{i}.{k}.4", [(1, (a, 0, c1)), (-1, (a, 1, c1)),
                                (-1, (a, 0, c2)), (-1, (a, 1, c2))])
            for sign, tag in ((1, "+"), (-1, "-")):
                add(f"p{i}.{k}.5{tag}",
                    [(1, (c1, 0, i)), (-1, (c1, 1, i)),
                     (sign, (c2, 0, i)), (-sign, (c2, 1, i))])
            for sign, tag in ((1, "+"), (-1, "-")):
                add(f"p{i}.{k}.6{tag}",
                    [(1, (c0, 0, a)), (-1, (c0, 1, a)),
                     (sign, (c1, 0, a)), (-sign, (c1, 1, a))])
    return StateSet(PartySpec(d), states, provenance=f"S1m(m={m})")


def _build_s2m(m: int) -> StateSet:
    d = (2 * m + 1, 2, 2 * m + 1)
    states: list[tuple[str, Vec]] = []

    def add(label: str, terms):
        states.append((label, _term_state(d, terms)))

    add("c", [(1, (m, 0, 2 * m)), (-1, (m, 1, 2 * m))])
    top = (2 * m - 2, 2 * m - 1, 2 * m)
    for i in range(m):
        u = (m + i + 1) % 2
        v = (m + i) % 2
        a_hi = 2 * m - i
        add(f"q{i}.1", [(1, (i, u, top[0])), (1, (i, u, top[1])),
                        (1, (i, u, top[2])), (-1, (i, v, top[2]))])
        add(f"q{i}.2", [(1, (i, u, top[0])), (-1, (i, u, top[1])),
                        (-1, (i, u, top[2])), (-1, (i, v, top[2]))])
        add(f"q{i}.3", [(1, (a_hi, v, top[0])), (1, (a_hi, v, top[1])),
                        (1, (a_hi, v, top[2])), (-1, (a_hi, u, top[2]))])
        add(f"q{i}.4", [(1, (a_hi, v, top[0])), (-1, (a_hi, v, top[1])),
                        (-1, (a_hi, v, top[2])), (-1, (a_hi, u, top[2]))])
        for k in range(2 * m - 2 * i):
            b = (k + 1) % 2
            for sign, tag in ((1, "+"), (-1, "-")):
                add(f"q{i}.5.{k}{tag}",
                    [(1, (i + k, b, 2 * i)), (-1, (i + k, b, 2 * i + 1)),
                     (sign, (i + k + 1, b, 2 * i)), (-sign, (i + k + 1, b, 2 * i + 1))])
        if m >= 2:
            for k1 in range((m - i) // 2):
                c = 2 * i + 4 * k1
                add(f"q{i}.6.{k1}", [(1, (i, 0, c)), (1, (i, 0, c + 1)),
                                     (1, (i, 0, c + 2)), (-1, (i, 0, c + 3))])
                add(f"q{i}.7.{k1}", [(1, (i, 0, c)), (-1, (i, 0, c + 1)),
                                     (-1, (i, 0, c + 2)), (-1, (i, 0, c + 3))])
                add(f"q{i}.8.{k1}", [(1, (a_hi, 1, c)), (1, (a_hi, 1, c + 1)),
                                     (1, (a_hi, 1, c + 2)), (-1, (a_hi, 1, c + 3))])
                add(f"q{i}.9.{k1}", [(1, (a_hi, 1, c)), (-1, (a_hi, 1, c + 1)),
                                     (-1, (a_hi, 1, c + 2)), (-1, (a_hi, 1, c + 3))])
        if m >= 3:
            for k2 in range((m - i - 1) // 2):
                c = 2 * i + 4 * k2 + 2
                add(f"q{i}.10.{k2}", [(1, (i, 1, c)), (1, (i, 1, c + 1)),
                                      (1, (i, 1, c + 2)), (-1, (i, 1, c + 3))])
                add(f"q{i}.11.{k2}", [(1, (i, 1, c)), (-1, (i, 1, c + 1)),
                                      (-1, (i, 1, c + 2)), (-1, (i, 1, c + 3))])
                add(f"q{i}.12.{k2}", [(1, (a_hi, 0, c)), (1, (a_hi, 0, c + 1)),
                                      (1, (a_hi, 0, c + 2)), (-1, (a_hi, 0, c + 3))])
                add(f"q{i}.13.{k2}", [(1, (a_hi, 0, c)), (-1, (a_hi, 0, c + 1)),
                                      (-1, (a_hi, 0, c + 2)), (-1, (a_hi, 0, c + 3))])
    return StateSet(PartySpec(d), states, provenance=f"S2m(m={m})")


UNION_OFFSETS = {
    "S2": (0, 0, 0),
    "S2prime": (3, 2, 3),
    "S2doubleprime": (6, 5, 5),
}


def _build_union() -> StateSet:
    dims = (8, 8, 8)
    spec = PartySpec(dims)
    states: list[tuple[str, Vec]] = []
    for name, tag in (("S2", "S2"), ("S2prime", "S2p"), ("S2doubleprime", "S2pp")):
        sub = build_named_set(name)
        off = UNION_OFFSETS[name]
        for l, v in sub.states:
            states.append((f"{tag}:{l}",
                           embed_with_offsets(v, sub.spec.dims, dims, off)))
    return StateSet(spec, states, provenance="UnionS")


def build_named_set(name: str, m: int | None = None) -> StateSet:
    """Construct one of the named orthogonal families.

    S1m / S2m require m >= 1; every other name takes no parameter.
    """
    if name in ("S1m", "S2m"):
        if m is None or m < 1:
            raise ValueError(f"{name} needs an integer m >= 1")
    elif m is not None:
        raise ValueError(f"{name} takes no m parameter")
    if name == "S1":
        return _build_s1()
    if name == "S2":
        return _build_s2()
    if name == "S2prime":
        return _build_s2prime()
    if name == "S2doubleprime":
        return _build_s2doubleprime()
    if name == "S1m":
        return _build_s1m(m)
    if name == "S2m":
        return _build_s2m(m)
    if name == "Domino":
        return _build_domino()
    if name == "UnionS":
        return _build_union()
    raise ValueError(f"unknown named set {name!r}; choose from {NAMED_SETS}")


def sets_equal_up_to_relabeling(a: StateSet, b: StateSet) -> bool:
    """Same rays: a bijection of states with nonzero per-state scalars."""
    return a.ray_key == b.ray_key


def restrict_support(s: StateSet) -> StateSet:
    """Drop computational basis indices no state touches, per party.

    Sound only when every party's joint local support is spanned by
    computational basis vectors; verified via an exact rank check.
    """
    dims = s.spec.dims
    keeps = []
    for party in range(s.spec.n_parties):
        _, r, coords = group_support(s, (party,))
        if r != len(coords):
            raise ValueError(
                f"party {party} support is not a computational subspace")
        keeps.append(coords)
    new_dims = tuple(len(k) for k in keeps)
    maps = [{old: new for new, old in enumerate(k)} for k in keeps]
    new_spec = PartySpec(new_dims, s.spec.labels)
    return StateSet(new_spec, [(l, relabel_digits(v, dims, new_dims, maps))
                               for l, v in s.states],
                    provenance=f"{s.provenance}|support")


def group_support(s: StateSet, group: Sequence[int]
                  ) -> tuple[list[Vec], int, tuple[int, ...]]:
    """The group's support vectors, their exact rank, and the coordinates
    a problem on the group lives on: the occupied ones when the support is
    exactly their span, all of the group's otherwise. Directions off them
    annihilate every state, so solvers and PVM assembly use these alone.
    Computed once per (set, group) and kept on the set, like `ray_key`;
    each call gets its own list."""
    group = tuple(group)
    kept = s._supports.get(group)
    if kept is None:
        idx = indexer(s.spec.dims, group)
        support, rows = [], []
        for v in s.vectors():
            # one sparse read per state gives its support vectors and their
            # integer rows, which are ranked as they are: no slice keeps a read
            slices = idx.int_slices(v)[1]
            support += (idx.slice_vec(v, r) for r in slices)
            rows += slices.values()
        r = rank(rows)
        coords = tuple(sorted({g for u in rows for g, _, _ in u}))
        if r != len(coords):
            coords = tuple(range(total_dim([s.spec.dims[p] for p in group])))
        kept = s._supports[group] = (tuple(support), r, coords)
    return list(kept[0]), kept[1], kept[2]
