"""Hidden-nonlocality activation: verification and locality classification.

An activation is a first-round orthogonality-preserving local PVM after
which every surviving branch is certified locally indistinguishable (via
PVM-irreducibility), on a set that is free from local redundancy. Sets
are then classified by who can activate: a single party (TYPE-I), only a
joint measurement of two parties (TYPE-II), or nobody that the bounded
search can find (strong-local evidence); m-activability asks the same
across m-partitions. Both take a block's candidates, ranked once per set
by stored survival counts (`_first_rounds`), and decide each through
`_walk`, the branch walk that `verify_activation` runs on a supplied one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .indexing import digits_of, indexer, relabel_digits
from .measurements import (LocalPVM, apply, branch_survivals,
                           is_trivial_for_set, preserves_orthogonality)
from .opsolve import (MAX_EXACT_DIM, IrreducibilityVerdict, _cache_get,
                      _cache_put, enumerate_op_pvms, is_pvm_irreducible)
from .protocols import (ProtocolTree, execute_and_verify, lpcc_search,
                        require_depth)
from .statesets import (Partition, StateSet, build_named_set,
                        check_mutual_orthogonality, group_support,
                        is_locally_redundant, merge_parties,
                        require_orthogonal)


# ---------------------------------------------------------------------------
# domino recognition

@dataclass(frozen=True)
class DominoMatch:
    """Support-basis relabeling carrying a set onto the nine-state
    nonlocal product basis in 3x3."""

    row_basis: tuple[int, ...]        # ordered computational indices, first party
    col_basis: tuple[int, ...]        # ordered computational indices, second party
    permutation: tuple[tuple[str, str], ...]   # (input label, target label)

    def to_json(self) -> dict:
        return {"row_basis": list(self.row_basis),
                "col_basis": list(self.col_basis),
                "permutation": [list(p) for p in self.permutation]}


@functools.cache
def _domino_rays() -> dict:
    """Each Domino ray, as `normalized_leading` reads it, to its label."""
    return {v.normalized_leading(): l for l, v in build_named_set("Domino").states}


def domino_match(s: StateSet) -> DominoMatch | None:
    """Try to map a bipartite 9-state set, per-party, onto the nonlocal
    3x3 product basis via an ordered triple of working coordinates on
    each side, up to state permutation and nonzero scalars: each state,
    relabeled onto the triples, must be a distinct Domino ray. A pair of
    triples is abandoned at the first state that is not one."""
    if s.spec.n_parties != 2 or len(s) != 9:
        return None
    sup_a = group_support(s, (0,))[2]
    sup_b = group_support(s, (1,))[2]
    if len(sup_a) != 3 or len(sup_b) != 3:
        return None
    target = _domino_rays()
    for pa in itertools.permutations(sup_a):
        for pb in itertools.permutations(sup_b):
            maps = [{x: i for i, x in enumerate(pa)},
                    {x: j for j, x in enumerate(pb)}]
            rays = (target.get(relabel_digits(v, s.spec.dims, (3, 3), maps)
                               .normalized_leading()) for v in s.vectors())
            perm = tuple(zip(s.labels(), itertools.takewhile(
                lambda t: t is not None, rays)))
            if len({t for _, t in perm}) == 9:
                return DominoMatch(pa, pb, perm)
    return None


def support_triple_labels(s_before_merge: StateSet, p: Partition,
                          block_index: int, indices: Sequence[int]) -> list[str]:
    """Render merged-block computational indices as per-party digit strings."""
    block = p.blocks[block_index]
    dims = [s_before_merge.spec.dims[q] for q in block]
    return ["".join(str(d) for d in digits_of(i, dims)) for i in indices]


# ---------------------------------------------------------------------------
# activation verification

@dataclass(frozen=True)
class BranchReport:
    outcome: int
    states: StateSet
    certificate: IrreducibilityVerdict | None
    domino: DominoMatch | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def certified(self) -> bool:
        return self.certificate is not None and self.certificate.irreducible

    def to_json(self) -> dict:
        return {"outcome": self.outcome, "n_states": self.n_states,
                "certified": self.certified,
                "certificate": self.certificate.to_json() if self.certificate else None,
                "domino": self.domino.to_json() if self.domino else None}


@dataclass(frozen=True)
class ActivationReport:
    first: LocalPVM
    partition: Partition
    branches: tuple[BranchReport, ...]
    genuine: bool
    distinguishable_before: str
    asserted: bool
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"asserted": self.asserted, "genuine": self.genuine,
                "distinguishable_before": self.distinguishable_before,
                "partition": [list(b) for b in self.partition.blocks],
                "first_group": list(self.first.group),
                "branches": [b.to_json() for b in self.branches],
                "trace": self.trace}


class ActivationError(Exception):
    """An invalid first round: the claim is refuted."""


class _SourceUndecided(ActivationError):
    """The search could not establish the source set's distinguishability:
    the claim is undecided, not refuted."""


def _cached_redundancy(s: StateSet):
    """The stored verdict itself: it is frozen, so callers may share it."""
    key = ("redundancy", s.ray_key)
    hit = _cache_get(key)
    if hit is None:
        hit = _cache_put(key, is_locally_redundant(s))
    return hit


def verify_activation(s: StateSet, first: LocalPVM, p: Partition, *,
                      protocol: ProtocolTree | None = None,
                      assume_distinguishable: str | None = None,
                      search_depth: int = 3,
                      fail_fast: bool = False) -> ActivationReport:
    """Check a claimed activation: the first-round PVM must be nontrivial
    for the set and orthogonality-preserving; every surviving branch must
    be certified PVM-irreducible within the partition; genuineness
    requires the source set to be locally irredundant.

    The LPCC-distinguishability precondition is established by a supplied
    protocol (replayed with every node inside one block of the
    partition), by search, or by an `assume_distinguishable` note (used by
    callers that already verified it in a finer partition, which implies
    it in every coarsening).

    A domino match (merging the partition to a bipartition) is recorded
    per branch as corroborating structure when it exists. `classify` and
    `is_m_activable` skip the refusals: their candidates pass them.
    """
    p.validate(s.spec)
    first.validate(s.spec)
    require_depth(search_depth)
    if not check_mutual_orthogonality(s):
        raise ActivationError("source set is not orthogonal")
    if not any(set(first.group) <= set(b) for b in p.blocks):
        raise ActivationError("first-round group crosses partition blocks")
    if is_trivial_for_set(first, s):
        raise ActivationError("first-round PVM is trivial for the set")
    ov = preserves_orthogonality(s, first)
    if not ov:
        raise ActivationError(
            f"first-round PVM breaks orthogonality at {ov.witness}")

    if protocol is not None:
        execute_and_verify(s, protocol, p)
        before = "verified-by-protocol"
    elif assume_distinguishable is not None:
        before = assume_distinguishable
    else:
        verdict = lpcc_search(s, p, depth=search_depth)
        before = verdict.status
        if verdict.status != "distinguishable":
            raise _SourceUndecided(
                f"could not establish LPCC-distinguishability of the source "
                f"set (search says {verdict.status}); pass a protocol fixture")
    return _walk(s, first, p, before, fail_fast)


def _walk(s: StateSet, first: LocalPVM, p: Partition, before: str,
          fail_fast: bool) -> ActivationReport:
    """The branch walk of an admitted first round; `before` notes the source."""
    trace = [f"source distinguishability: {before}"]
    red = _cached_redundancy(s)
    genuine = not red.redundant
    trace.append("source set is locally "
                 + ("irredundant" if genuine else
                    f"REDUNDANT (discard {red.discarded_parties})"))

    branches: list[BranchReport] = []
    for outcome, br in sorted(apply(s, first).items()):
        if br.states is None:
            continue
        if len(br.states) < 2:
            branches.append(BranchReport(outcome, br.states, None))
            if fail_fast:
                trace.append(f"outcome {outcome}: state count dropped to "
                             f"{len(br.states)}, stopping early")
                break
            continue
        cert = is_pvm_irreducible(br.states, p)
        match = _domino_in_some_bipartition(br.states, p)
        if match is not None and not cert.irreducible:
            raise AssertionError(
                "domino-matched branch failed the irreducibility cross-check")
        branches.append(BranchReport(outcome, br.states, cert, match))
        trace.append(f"outcome {outcome}: {len(br.states)} states, "
                     f"certificate {cert.status}"
                     + (", domino matched" if match else ""))
        if fail_fast and not cert.irreducible:
            trace.append("stopping at first uncertified branch")
            break

    asserted = (genuine and bool(branches)
                and all(b.certified for b in branches))
    return ActivationReport(first=first, partition=p, branches=tuple(branches),
                            genuine=genuine, distinguishable_before=before,
                            asserted=asserted, trace=tuple(trace))


def _domino_in_some_bipartition(branch: StateSet, p: Partition):
    """Run domino matching on each bipartition that sets one block of the
    partition against the union of the others (for at most three blocks,
    these are all its bipartite coarsenings). With two blocks only the
    first is tried: the second would merely swap the sides. Only a
    nine-state branch is merged."""
    if len(branch) != 9:
        return None
    blocks = p.blocks
    n = len(blocks)
    coarsenings = [(blocks[i], tuple(q for j in range(n) if j != i
                                     for q in blocks[j]))
                   for i in range(n if n > 2 else n - 1)]
    for merged_blocks in coarsenings:
        match = domino_match(merge_parties(branch, Partition(merged_blocks)))
        if match is not None:
            return match
    return None


# ---------------------------------------------------------------------------
# dimension-2 no-go (biseparable n x 2 x 2 sets)

@dataclass(frozen=True)
class Dim2NogoReport:
    confirmed: bool
    parties_checked: tuple[int, ...]
    residual_party: int
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"confirmed": self.confirmed,
                "parties_checked": list(self.parties_checked),
                "residual_party": self.residual_party,
                "trace": self.trace}


def check_dim2_nogo(s: StateSet, *, probes: int = 8, seed: int = 0) -> Dim2NogoReport:
    """For orthogonal biseparable sets (product across first party vs the
    rest) in n x 2 x 2, neither dimension-2 party can activate the set;
    any other input is refused with a ValueError.

    A nontrivial PVM on a qubit party is a rank-1 pair, and on a state
    a (x) w, (tt^dag (x) I) w = t (x) ((t^dag (x) I) w) (likewise on the
    last party), so every branch state is a (x) t (x) c up to party order:
    each outcome leaves a fully product set in an effective n x 2 system,
    which is distinguishable (lemma 1; Walgate and Hardy, PRL 89, 147901,
    2002). The factor test across first party | rest therefore decides
    the verdict, and only the first party could ever activate.

    `probes` and `seed` are ignored. They stay only because the benchmark's
    sweep-random workload still passes them, and go with that call."""
    dims = s.spec.dims
    if len(dims) != 3 or dims[1] != 2 or dims[2] != 2:
        raise ValueError("expected a tripartite n x 2 x 2 system")
    require_orthogonal(s)
    first = indexer(dims, (0,))
    for label, v in s.states:
        if first.factor(v) is None:
            raise ValueError(f"state {label!r} is not biseparable across "
                             f"first party | rest")
    return Dim2NogoReport(True, (1, 2), 0, (
        "every state factors as a (x) w across first party | rest",
        "a rank-1 PVM on party 1 or 2 leaves each a (x) w fully product, so "
        f"every outcome is a product set in effective {dims[0]}x2 form",
        "activation, if any, can only come from the first party"))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class LocalityClass:
    klass: str            # strong-local-evidence | TYPE-I | TYPE-II |
                          # indistinguishable-already | unknown
    exact: bool = False
    witness: ActivationReport | None = None
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"class": self.klass, "exact": self.exact,
                "witness": self.witness.to_json() if self.witness else None,
                "trace": self.trace}


def classify(s: StateSet, joint_pairs: Sequence[tuple[int, int]] | None = None,
             depth: int = 3) -> LocalityClass:
    """Place a set on the locality line: already indistinguishable, a
    single party can hide the information (TYPE-I), only a joint pair can
    (TYPE-II), or no activation was found (strong-local evidence; labeled
    exact only for the structurally recognized theorem cases). Refuses a
    negative depth, a non-orthogonal set and a joint group other than two
    distinct parties."""
    n = s.spec.n_parties
    require_depth(depth)
    require_orthogonal(s)
    pairs = [tuple(pair) for pair in
             joint_pairs or itertools.combinations(range(n), 2)]
    for pair in pairs:
        if not (len(set(pair)) == len(pair) == 2 and set(pair) <= set(range(n))):
            raise ValueError(f"joint group {pair} is not two distinct parties")
    trace: list[str] = []

    if len(s) <= 2:
        return LocalityClass(
            "strong-local-evidence", exact=True,
            trace=("at most two orthogonal states: distinguishable in every "
                   "partition, activation impossible",))
    structural = _structural_strong_local(s)
    if structural:
        return LocalityClass("strong-local-evidence", exact=True,
                             trace=(structural,))

    singles = Partition.trivial(n)
    verdict = lpcc_search(s, singles, depth=depth)
    if verdict.status == "indistinguishable":
        return LocalityClass("indistinguishable-already",
                             trace=("set is already locally indistinguishable",))
    if verdict.status != "distinguishable":
        return LocalityClass("unknown",
                             trace=(f"distinguishability search: {verdict.status}",))
    # distinguishability in the finest partition carries to every
    # coarsening, so activation checks below need not re-search
    assume = "distinguishable (finest partition)"

    # (class, who, prefix of the winning trace line, (name, block, partition))
    phases = (
        ("TYPE-I", "single party", "",
         [(f"party {q}", (q,), singles) for q in range(n)]),
        ("TYPE-II", "joint pair", "joint ",
         [(f"pair {pair}", pair,
           Partition((pair,) + tuple((q,) for q in range(n) if q not in pair)))
          for pair in pairs]))
    exhaustive = True
    for klass, kind, prefix, blocks in phases:
        for name, block, part in blocks:
            candidates = _first_rounds(s, block)
            if candidates is None:
                exhaustive = False
                trace.append(f"{name}: effective dimension "
                             f"{len(group_support(s, block)[2])} beyond "
                             f"enumeration bound")
                continue
            for lp in _activation_order(candidates):
                report = _walk(s, lp, part, assume, fail_fast=True)
                if report.asserted:
                    trace.append(f"{prefix}{name} activates")
                    return LocalityClass(klass, witness=report, trace=tuple(trace))
        trace.append(f"no {kind} activates"
                     + ("" if exhaustive else " (bounded search)"))
    return LocalityClass("strong-local-evidence", exact=False, trace=tuple(trace))


def _first_rounds(s: StateSet, block: tuple[int, ...]) -> tuple[tuple, ...] | None:
    """Every nontrivial OP PVM the solver pool assembles on a block, each
    with its `branch_survivals` count (which no state's order or scale
    changes), stored on the rays; None when beyond the enumeration bound."""
    key = ("first-rounds", block, s.ray_key)
    hit = _cache_get(key)
    if hit is not None:
        return hit
    if len(group_support(s, block)[2]) > MAX_EXACT_DIM:
        return None
    candidates = enumerate_op_pvms(s, block)
    return _cache_put(key, tuple(zip(candidates, branch_survivals(s, candidates))))


def _activation_order(ranked: Sequence[tuple[LocalPVM, int]]) -> list[LocalPVM]:
    """Most promising activators first: a hiding measurement keeps states
    alive, so sort by total branch survivals descending (a stable sort)."""
    return [lp for lp, _ in sorted(ranked, key=lambda t: (-t[1], len(t[0].pvm)))]


def _structural_strong_local(s: StateSet) -> str | None:
    """Theorem-level recognitions: bipartite product sets with a (<=2)-
    dimensional side; three fully product states (a pure state is fully
    product exactly when it factors across every single party)."""
    n = s.spec.n_parties
    if n == 2:
        first = indexer(s.spec.dims, (0,))
        if all(first.factor(v) is not None for v in s.vectors()):
            for party in (0, 1):
                if group_support(s, (party,))[1] <= 2:
                    return ("orthogonal product set with a two-dimensional "
                            "side: activation impossible in n x 2")
    if len(s) == 3 and all(indexer(s.spec.dims, (p,)).factor(v) is not None
                           for v in s.vectors() for p in range(n)):
        return "three orthogonal fully product states are strong local"
    return None


# ---------------------------------------------------------------------------
# m-activability

@dataclass(frozen=True)
class MActivabilityVerdict:
    status: str               # activable | not-activable | unknown
    m: int
    strong: bool
    witness: ActivationReport | None = None
    witness_partition: Partition | None = None
    weaker_partition: Partition | None = None
    exact: bool = False
    trace: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"status": self.status, "m": self.m, "strong": self.strong,
                "exact": self.exact,
                "witness": self.witness.to_json() if self.witness else None,
                "trace": self.trace}


def iter_m_partitions(n: int, m: int):
    """All ways to view n parties as m groups."""
    def rec(p: int, blocks: list[list[int]]):
        if p == n:
            if len(blocks) == m:
                yield Partition(tuple(tuple(b) for b in blocks))
            return
        if len(blocks) + (n - p) < m:
            return
        for b in blocks:
            b.append(p)
            yield from rec(p + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([p])
            yield from rec(p + 1, blocks)
            blocks.pop()
    yield from rec(0, [])


def is_m_activable(s: StateSet, m: int, strong: bool = False,
                   depth: int = 3) -> MActivabilityVerdict:
    """Search all m-partitions for a first-round OP-PVM on one block that
    leaves every branch certified irreducible within that partition; the
    strong variant additionally needs every branch irreducible in some
    (m-1)-partition. A candidate is refuted by its first uncertified
    branch when that has one state or `lpcc_search` finds it
    distinguishable within the partition; a negative verdict is exact only
    when every candidate was refuted, every block enumerated and every
    source decided. Strong 2-activability never holds, so it is refuted
    without a search. A negative depth and a non-orthogonal set are
    refused."""
    n = s.spec.n_parties
    require_depth(depth)
    require_orthogonal(s)
    if m < 2 or m > n:
        raise ValueError(f"m must be between 2 and {n}")
    if strong and m == 2:
        # the projector onto one state preserves orthogonality and is
        # nontrivial for any two or more orthogonal states, so no branch
        # is ever irreducible in the one-block partition
        return MActivabilityVerdict(
            "not-activable", m, strong, exact=True,
            trace=("strong 2-activation needs branches irreducible as one "
                   "block, and the projector onto one state reduces any "
                   "two or more orthogonal states",))
    exhaustive = True
    any_unknown = False
    trace: list[str] = []
    finest = lpcc_search(s, Partition.trivial(n), depth=depth)
    assume = ("distinguishable (finest partition)"
              if finest.status == "distinguishable" else None)
    for part in iter_m_partitions(n, m):
        candidates: list[tuple[LocalPVM, int]] = []
        for block in part.blocks:
            found = _first_rounds(s, block)
            if found is None:
                exhaustive = False
                trace.append(f"{part.describe(s.spec)}: block {block} beyond "
                             f"enumeration bound")
            else:
                candidates.extend(found)
        # one source decision per partition: the finest note or one search
        source = assume
        if source is None and candidates:
            if lpcc_search(s, part, depth=depth).status != "distinguishable":
                any_unknown = True
                continue
            source = "distinguishable"
        for lp in _activation_order(candidates):
            report = _walk(s, lp, part, source, fail_fast=True)
            gap = next((b for b in report.branches if not b.certified), None)
            if gap is not None:
                if len(gap.states) >= 2 and lpcc_search(
                        gap.states, part, depth=depth).status != "distinguishable":
                    any_unknown = True
                continue
            if not report.genuine:
                trace.append("activation found but set is locally redundant")
                continue
            weaker = None
            if strong:
                for q in iter_m_partitions(n, m - 1):
                    if all(is_pvm_irreducible(b.states, q).irreducible
                           for b in report.branches):
                        weaker = q
                        break
                if weaker is None:
                    continue
            trace.append(f"activation in {part.describe(s.spec)} via "
                         f"group {lp.group}")
            return MActivabilityVerdict(
                "activable", m, strong, witness=report,
                witness_partition=part, weaker_partition=weaker,
                exact=True, trace=tuple(trace))
    if exhaustive and not any_unknown:
        return MActivabilityVerdict(
            "not-activable", m, strong, exact=True,
            trace=(*trace, "every candidate first round leaves some branch "
                           "distinguishable"))
    return MActivabilityVerdict("unknown", m, strong, exact=False,
                                trace=(*trace, "bounded search exhausted"))
