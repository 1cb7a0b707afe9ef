"""Seeded random constructions used by property tests and theorem replays.

Everything is built over the Gaussian rationals so generated sets are
exactly orthogonal by construction (asserted, never rounded).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .exact import (ONE as ONE_S, ZERO as ZERO_S, Scalar, Vec, basis_vec,
                    gram_schmidt, inner, tensor)
from .statesets import PartySpec, StateSet, check_mutual_orthogonality


def _random_scalar(rng: random.Random, span: int = 3,
                   complex_amps: bool = False) -> Scalar:
    re = rng.randint(-span, span)
    im = rng.randint(-span, span) if complex_amps else 0
    return Scalar(re, im)


def random_vector(rng: random.Random, dim: int, span: int = 3,
                  complex_amps: bool = False) -> Vec:
    while True:
        v = Vec([_random_scalar(rng, span, complex_amps) for _ in range(dim)])
        if not v.is_zero():
            return v


def random_orthogonal_basis(rng: random.Random, dim: int,
                            complex_amps: bool = False) -> list[Vec]:
    """Exact orthogonal (unnormalized) basis from random integer vectors."""
    basis: list[Vec] = []
    while len(basis) < dim:
        cand = random_vector(rng, dim, 3, complex_amps)
        new = gram_schmidt(basis + [cand])
        if len(new) > len(basis):
            basis = new
    return basis


def random_rotation_basis(rng: random.Random, dim: int,
                          moves: int | None = None) -> list[Vec]:
    """Orthogonal rational basis with all norms equal to 1, built from
    rational Givens rotations (rational points on the circle); equal norms
    are what keep sum/difference splittings orthogonal."""
    rows = [[ONE_S if i == j else ZERO_S for j in range(dim)] for i in range(dim)]
    if moves is None:
        moves = 3 * dim
    for _ in range(moves):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i == j:
            continue
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        c = Scalar((1 - t * t) / (1 + t * t))
        s = Scalar(2 * t / (1 + t * t))
        ri = [c * a + s * b for a, b in zip(rows[i], rows[j])]
        rj = [c * b - s * a for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = ri, rj
    return [Vec(r) for r in rows]


def random_orthogonal_set(rng: random.Random, dims: Sequence[int],
                          n_states: int, complex_amps: bool = False) -> StateSet:
    """Generic (typically entangled) orthogonal states on the full space."""
    spec = PartySpec(tuple(dims))
    basis = random_orthogonal_basis(rng, spec.total_dim, complex_amps)
    rng.shuffle(basis)
    states = [(str(i + 1), basis[i]) for i in range(n_states)]
    out = StateSet(spec, states, provenance="random-orthogonal")
    assert check_mutual_orthogonality(out)
    return out


def random_product_set(rng: random.Random, dims: Sequence[int],
                       n_states: int, domino_moves: int = 2) -> StateSet:
    """Orthogonal fully product states: a random local orthogonal basis
    per party, a subset of the product basis, then a few domino-style
    pair splittings (u(v+v'), u(v-v')) that keep both properties. The
    states are distinct product-basis tuples, so there are at least one
    and at most prod(dims) of them."""
    spec = PartySpec(tuple(dims))
    if not 1 <= n_states <= spec.total_dim:
        raise ValueError(f"n_states must be between 1 and {spec.total_dim}, "
                         f"got {n_states}")
    local = [random_rotation_basis(rng, d) for d in dims]
    tuples = [tuple(rng.randrange(d) for d in dims)]
    while len(tuples) < n_states:
        cand = tuple(rng.randrange(d) for d in dims)
        if cand not in tuples:
            tuples.append(cand)
    vectors = [tensor(*[local[p][t[p]] for p in range(len(dims))])
               for t in tuples]
    factors = [[local[p][t[p]] for p in range(len(dims))] for t in tuples]
    for _ in range(domino_moves * 4):
        i = rng.randrange(len(vectors))
        j = rng.randrange(len(vectors))
        if i == j:
            continue
        ti, tj = factors[i], factors[j]
        diff = [p for p in range(len(dims)) if ti[p] != tj[p]]
        if len(diff) != 1:
            continue
        p = diff[0]
        # a sum/difference split stays orthogonal (to itself and to the
        # rest of the set) only for orthogonal equal-norm factors
        if not inner(ti[p], tj[p]).is_zero() or ti[p].norm2() != tj[p].norm2():
            continue
        plus = [ti[q] if q != p else ti[p] + tj[p] for q in range(len(dims))]
        minus = [ti[q] if q != p else ti[p] - tj[p] for q in range(len(dims))]
        if any(f.is_zero() for f in (plus[p], minus[p])):
            continue
        factors[i], factors[j] = plus, minus
        vectors[i], vectors[j] = tensor(*plus), tensor(*minus)
    states = [(str(i + 1), v) for i, v in enumerate(vectors)]
    out = StateSet(spec, states, provenance="random-product")
    assert check_mutual_orthogonality(out)
    return out


def random_two_state_set(rng: random.Random, dims: Sequence[int],
                         complex_amps: bool = True) -> StateSet:
    spec = PartySpec(tuple(dims))
    a = random_vector(rng, spec.total_dim, 3, complex_amps)
    while True:
        b = random_vector(rng, spec.total_dim, 3, complex_amps)
        ortho = gram_schmidt([a, b])
        if len(ortho) == 2:
            break
    out = StateSet(spec, [("1", ortho[0]), ("2", ortho[1])],
                   provenance="random-two-state")
    assert check_mutual_orthogonality(out)
    return out


def random_lemma_structured_set(rng: random.Random, wide_dim: int,
                                n_classes: int | None = None) -> StateSet:
    """Orthogonal product set in 2 x n with the paired-direction block
    structure: per class one two-side direction pair {r, r_perp} and a
    dedicated wide-side block; within a class and side the wide vectors
    are orthogonal."""
    spec = PartySpec((2, wide_dim))
    if n_classes is None:
        n_classes = rng.randint(1, max(1, wide_dim // 2))
    # random wide-side orthogonal basis, chopped into per-class blocks
    wide_basis = random_orthogonal_basis(rng, wide_dim)
    cuts = sorted(rng.sample(range(1, wide_dim), n_classes - 1)) if n_classes > 1 else []
    blocks = []
    last = 0
    for c in cuts + [wide_dim]:
        blocks.append(wide_basis[last:c])
        last = c
    # pairwise non-orthogonal, non-proportional two-side directions
    dirs: list[Vec] = []
    while len(dirs) < n_classes:
        r = random_vector(rng, 2, 2)
        if any(inner(r, q).is_zero() or _proportional(r, q) for q in dirs):
            continue
        dirs.append(r)
    states: list[tuple[str, Vec]] = []
    for ci, (r, block) in enumerate(zip(dirs, blocks)):
        perp = Vec([-(r.entries[1].conj()), r.entries[0].conj()])
        side_eta = rng.randint(0, len(block))
        etas = block[:side_eta]
        kappas = block[side_eta:]
        if not etas and not kappas:
            continue
        for k, w in enumerate(etas):
            states.append((f"{ci}.e{k}", tensor(r, w)))
        for k, w in enumerate(kappas):
            states.append((f"{ci}.k{k}", tensor(perp, w)))
    if len(states) < 2:
        return random_lemma_structured_set(rng, wide_dim, n_classes)
    out = StateSet(spec, states, provenance="random-lemma-structured")
    assert check_mutual_orthogonality(out)
    return out


def _proportional(a: Vec, b: Vec) -> bool:
    return a.normalized_leading() == b.normalized_leading()


def random_biseparable_322(rng: random.Random, n_states: int = 6) -> StateSet:
    """Orthogonal sets in 3 x 2 x 2, product across first party | rest,
    with generically entangled rest factors."""
    spec = PartySpec((3, 2, 2))
    a_basis = random_orthogonal_basis(rng, 3)
    w_basis = random_orthogonal_basis(rng, 4)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < n_states:
        cand = (rng.randrange(3), rng.randrange(4))
        if cand not in pairs:
            pairs.append(cand)
    states = [(str(i + 1), tensor(a_basis[f], w_basis[g]))
              for i, (f, g) in enumerate(pairs)]
    out = StateSet(spec, states, provenance="random-biseparable-322")
    assert check_mutual_orthogonality(out)
    return out


def planted_direction_set(rng: random.Random, group_dim: int = 3,
                          rest_dim: int = 3, n_states: int = 4,
                          complex_amps: bool = True) -> tuple[StateSet, Vec]:
    """Orthogonal bipartite set with a known orthogonality-preserving
    rank-1 direction theta on the first party.

    Writing psi_i = theta (x) rho_i + w_i (x) f_i with w_i orthogonal to
    theta, pairwise-orthogonal theta-slices rho_i make theta preserving,
    and orthogonal fillers keep the set orthogonal.
    """
    if n_states > rest_dim:
        raise ValueError("n_states cannot exceed rest_dim for this construction")
    if rest_dim < 3:
        raise ValueError("rest_dim must be at least 3")
    spec = PartySpec((group_dim, rest_dim))
    theta = random_vector(rng, group_dim, 2, complex_amps)
    perp = _orthocomplement_basis(theta)
    rho_slots = list(range(rest_dim))
    rng.shuffle(rho_slots)
    # fillers sit one step around the same cycle: each pair of states then
    # couples through at most one cross term, which the case-split solver
    # resolves exactly
    filler_slots = [rho_slots[(i + 1) % rest_dim] for i in range(rest_dim)]
    states = []
    for i in range(n_states):
        rho = basis_vec(rest_dim, rho_slots[i]).scale(Scalar(rng.randint(1, 3)))
        v = tensor(theta, rho)
        f_amp = rng.randint(0, 2)
        if f_amp:
            w = perp[rng.randrange(len(perp))]
            v = v + tensor(w, basis_vec(rest_dim, filler_slots[i])
                           .scale(Scalar(f_amp)))
        states.append(v)
    out = StateSet(spec, [(str(i + 1), v) for i, v in enumerate(states)],
                   provenance="planted-direction")
    assert check_mutual_orthogonality(out)
    return out, theta


def _orthocomplement_basis(theta: Vec) -> list[Vec]:
    full = [basis_vec(theta.dim, i) for i in range(theta.dim)]
    basis = gram_schmidt([theta] + full)
    return basis[1:]
