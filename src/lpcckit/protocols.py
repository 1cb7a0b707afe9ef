"""Discrimination protocol trees: construction, execution, verification,
and a bounded search for distinguishability verdicts.

A tree node applies a LocalPVM and recurses per surviving outcome; leaves
carry terminal claims. Leaf rules:

  identified        exactly one state survives
  two-orthogonal    two orthogonal states (distinguishable, Walgate-style,
                    accepted by citation)
  lemma1-2xn        the branch is an orthogonal product set with a
                    two-dimensional side; the constructive three-round
                    protocol is built and replayed on the spot
  three-product     three fully product states; the separating-party
                    protocol is built and replayed

Verification refuses a set whose states are not mutually orthogonal,
then (`_exec`) replays every measurement exactly, asserting
orthogonality preservation at each node, that each node's group lies in
one block of the partition when one is given, and the claimed rule at
each leaf (`_check_leaf`). A leaf claim whose protocol cannot be built
fails like any other leaf. The search decides its structural leaves
through the same `_check_leaf`, so a tree it returns holds the claims
the verifier accepts. Trees are read-only and may be shared.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .exact import Vec, gram_schmidt, inner, sort_keys
from .indexing import indexer
from .measurements import (LocalPVM, PVM, Projector, apply, branch_survivals,
                           measure)
from .opsolve import (IrreducibilityVerdict, _cache_get, _cache_put,
                      enumerate_op_pvms, is_pvm_irreducible)
from .statesets import (Partition, PartySpec, StateSet, check_mutual_orthogonality,
                        group_support, require_orthogonal)

LEAF_RULES = ("identified", "two-orthogonal", "lemma1-2xn", "three-product")


@dataclass(frozen=True)
class Leaf:
    claim: str

    def __post_init__(self):
        if self.claim not in LEAF_RULES:
            raise ValueError(f"unknown leaf rule {self.claim!r}")

    def to_json(self) -> dict:
        return {"claim": self.claim}


@dataclass(frozen=True)
class Node:
    group: tuple[int, ...]
    pvm: PVM
    children: Mapping[int, "Node | Leaf"]

    def __post_init__(self):
        object.__setattr__(self, "children", MappingProxyType(dict(self.children)))

    def to_json(self) -> dict:
        return {"group": list(self.group),
                "pvm": self.pvm.to_json(),
                "children": {str(k): v.to_json() for k, v in self.children.items()}}


ProtocolTree = Node | Leaf


class ProtocolError(Exception):
    """A tree failed verification; carries the branch path."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        super().__init__(f"{message} (branch path {list(path)})")
        self.path = path


class LemmaStructureError(ValueError):
    """Input set does not expose the structure a constructive protocol
    needs."""


@dataclass(frozen=True)
class Verdict:
    status: str                                  # distinguishable | indistinguishable | unknown
    tree: ProtocolTree | None = None
    certificate: IrreducibilityVerdict | None = None
    trace: tuple[str, ...] = ()

    @property
    def distinguishable(self) -> bool:
        return self.status == "distinguishable"

    def to_json(self) -> dict:
        out = {"status": self.status, "trace": self.trace}
        if self.tree is not None:
            out["tree"] = self.tree.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


# ---------------------------------------------------------------------------
# execution / verification

def execute_and_verify(s: StateSet, tree: ProtocolTree,
                       partition: Partition | None = None) -> Verdict:
    """Walk the tree, re-deriving every post-measurement branch exactly;
    distinguishable iff the states are mutually orthogonal, every node
    preserves orthogonality, children cover exactly the surviving
    outcomes, and every leaf claim checks out. With a partition, every
    node's group must also lie inside one block."""
    trace: list[str] = []
    _walk(s, tree, trace, partition)
    return Verdict(status="distinguishable", tree=tree, trace=tuple(trace))


def leaf_branches(s: StateSet, tree: ProtocolTree
                  ) -> list[tuple[tuple[int, ...], StateSet]]:
    """(path, branch set) of every leaf, in outcome order, from one
    verification of the whole tree, which refuses a non-orthogonal set."""
    return _walk(s, tree, [], None)


def _walk(s: StateSet, tree: ProtocolTree, trace: list[str],
          partition: Partition | None) -> list[tuple[tuple[int, ...], StateSet]]:
    """`_exec` from the root of a set that `require_orthogonal` accepts."""
    try:
        require_orthogonal(s)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return _exec(s, tree, (), trace, partition)


def _exec(s: StateSet, tree: ProtocolTree, path: tuple[int, ...],
          trace: list[str], partition: Partition | None
          ) -> list[tuple[tuple[int, ...], StateSet]]:
    """Verify the subtree at path; returns its checked leaves as (path,
    branch set) pairs."""
    if isinstance(tree, Leaf):
        _check_leaf(s, tree.claim, path, trace, partition)
        return [(path, s)]
    if partition is not None and not any(set(tree.group) <= set(b)
                                         for b in partition.blocks):
        raise ProtocolError(f"group {tree.group} crosses the blocks of "
                            f"partition {partition.blocks}", path)
    lp = LocalPVM(tree.pvm, tree.group)
    try:
        lp.validate(s.spec)
    except ValueError as exc:
        raise ProtocolError(str(exc), path) from None
    ov, branches = measure(s, lp)
    if not ov:
        raise ProtocolError(
            f"measurement on group {tree.group} breaks orthogonality of pair "
            f"{ov.witness[1:]} at outcome {ov.witness[0]}", path)
    surviving = {o for o, br in branches.items() if br.states is not None}
    declared = set(tree.children.keys())
    if declared != surviving:
        raise ProtocolError(
            f"children {sorted(declared)} do not match surviving outcomes "
            f"{sorted(surviving)}", path)
    # no state is lost: the PVM sums to the identity, so each (nonzero)
    # state survives in some outcome
    trace.append(f"{'.'.join(map(str, path)) or 'root'}: group {tree.group} -> "
                 f"outcomes {sorted(surviving)}")
    return [leaf for o in sorted(surviving)
            for leaf in _exec(branches[o].states, tree.children[o], path + (o,),
                              trace, partition)]


def _check_leaf(s: StateSet, claim: str, path: tuple[int, ...],
                trace: list[str], partition: Partition | None) -> None:
    """Decide one leaf claim on an orthogonal set; a constructive claim
    builds its protocol and replays it under the same partition."""
    n = len(s)
    if claim == "identified":
        if n != 1:
            raise ProtocolError(f"leaf claims one state, found {n}", path)
    elif claim == "two-orthogonal":
        if n > 2:
            raise ProtocolError(f"leaf claims at most two states, found {n}", path)
    else:
        build = lemma1_protocol if claim == "lemma1-2xn" else three_product_protocol
        try:
            sub = build(s)
        except LemmaStructureError as exc:
            raise ProtocolError(f"leaf {claim}: {exc}", path) from None
        _exec(s, sub, path, trace, partition)
    trace.append(f"{'.'.join(map(str, path)) or 'root'}: leaf {claim} ok ({n} state(s))")


# ---------------------------------------------------------------------------
# constructive protocols

def lemma1_protocol(s: StateSet) -> ProtocolTree:
    """Constructive three-round tree for orthogonal product sets whose
    one side is (effectively) two-dimensional.

    Round 1 groups the wide side by blocks, round 2 measures the
    two-dimensional side in a direction pair, round 3 identifies states
    with rank-1 projectors. Parties whose joint support is
    one-dimensional are inert and never measured. Alphas are orthogonal
    only across the sides of one class, so the etas each round separates
    are orthogonal exactly when the states are, which one check decides.
    """
    if len(s) == 1:
        return Leaf("identified")
    dims = s.spec.dims
    sup = [group_support(s, (p,))[1] for p in range(len(dims))]
    live = [p for p in range(len(dims)) if sup[p] > 1]
    if len(live) == 1:
        # degenerate instance: all structure sits on one party, whose
        # slices are mutually orthogonal; rank-1 projectors finish it
        return _single_party_identification(s, live[0])
    # the narrow side: the first live party with a two-dimensional support
    narrow = next((p for p in live if sup[p] == 2), None)
    if narrow is None:
        raise LemmaStructureError("no party has a two-dimensional support")
    rest = tuple(p for p in live if p != narrow)        # nonempty: two live parties

    two_idx = indexer(dims, (narrow,))
    alphas = []
    for label, v in s.states:
        factors = two_idx.factor(v)
        if factors is None:
            raise LemmaStructureError(
                f"state {label!r} is not a product across party {narrow}")
        alphas.append(factors[0])
    rest_idx = indexer(dims, rest)
    # inert parties factor out of every state, so any nonzero slice on the
    # live wide side is (a multiple of) that state's wide-side vector; a
    # nonzero state has one
    etas = [next(iter(rest_idx.nonzero_slices(v).values())) for v in s.vectors()]

    if not check_mutual_orthogonality(s):
        raise LemmaStructureError("states are not mutually orthogonal")
    classes = _alpha_classes(alphas)

    rest_dim = rest_idx.group_dim
    two_dim = dims[narrow]

    def round3(members: list[int]) -> Node | Leaf:
        if len(members) == 1:
            return Leaf("identified")
        elements = [Projector.from_ray(etas[m]) for m in members]
        children: dict[int, Node | Leaf] = {i: Leaf("identified")
                                            for i in range(len(members))}
        return Node(rest, PVM.completed(elements, rest_dim), children)

    def round2(cls) -> Node | Leaf:
        d0, d1 = cls["dirs"]
        elements = [Projector.from_ray(d0), Projector.from_ray(d1)]
        children: dict[int, Node | Leaf] = {}
        for side in (0, 1):
            if cls["members"][side]:
                children[side] = round3(cls["members"][side])
        return Node((narrow,), PVM.completed(elements, two_dim), children)

    elements = []
    for cls in classes:
        vecs = [etas[m] for m in cls["members"][0] + cls["members"][1]]
        elements.append(Projector.from_span(vecs, rest_dim))
    children = {i: round2(cls) for i, cls in enumerate(classes)}
    return Node(rest, PVM.completed(elements, rest_dim), children)


def _single_party_identification(s: StateSet, party: int) -> ProtocolTree:
    """Rank-1 discrimination on the only varying party's rays, which are
    orthogonal exactly when the states are."""
    if not check_mutual_orthogonality(s):
        raise LemmaStructureError("states are not mutually orthogonal")
    idx = indexer(s.spec.dims, (party,))
    rays = [next(iter(idx.nonzero_slices(v).values())) for v in s.vectors()]
    children: dict[int, Node | Leaf] = {i: Leaf("identified")
                                        for i in range(len(rays))}
    return Node((party,), PVM.completed([Projector.from_ray(r) for r in rays],
                                        idx.group_dim), children)


def _alpha_classes(alphas: list[Vec]) -> list[dict]:
    """Group states by two-side rays, pairing each with its one orthogonal
    ray in the alphas' 2-dim span, or else with its perpendicular there."""
    by_ray: dict[Vec, list[int]] = {}
    for i, a in enumerate(alphas):
        by_ray.setdefault(a.normalized_leading(), []).append(i)
    rays, ray_members = list(by_ray), list(by_ray.values())
    classes: list[dict] = []
    used = [False] * len(rays)
    for k, r in enumerate(rays):
        if used[k]:
            continue
        used[k] = True
        partner = None
        for l in range(k + 1, len(rays)):
            if not used[l] and inner(r, rays[l]).is_zero():
                partner = l
                used[l] = True
                break
        if partner is not None:
            classes.append({"dirs": (r, rays[partner]),
                            "members": (ray_members[k], ray_members[partner])})
        else:
            perp = _orthocomplement_in(r, rays)
            classes.append({"dirs": (r, perp),
                            "members": (ray_members[k], [])})
    return classes


def _orthocomplement_in(ray: Vec, vecs: list[Vec]) -> Vec:
    """The ray orthogonal to `ray` in the 2-dim span of vecs, whichever
    vecs span it, in `normalized_leading` form: Gram-Schmidt from the
    nonzero ray yields exactly one more vector."""
    return gram_schmidt([ray, *vecs])[1].normalized_leading()


def three_product_protocol(s: StateSet) -> ProtocolTree:
    """Separating-party protocol for three orthogonal fully product
    states: measure {P_alpha, 1 - P_alpha} on a party where the first two
    states have orthogonal factors; each outcome leaves at most two
    orthogonal states."""
    if len(s) != 3:
        raise LemmaStructureError("exactly three states required")
    # a state is fully product exactly when it factors across every
    # single party (each one-party marginal is pure)
    idxs = [indexer(s.spec.dims, (p,)) for p in range(s.spec.n_parties)]
    factors = [[idx.factor(v) for idx in idxs] for v in s.vectors()]
    if any(f is None for fs in factors for f in fs):
        raise LemmaStructureError("all three states must be fully product")
    j = None
    for party in range(s.spec.n_parties):
        if inner(factors[0][party][0], factors[1][party][0]).is_zero():
            j = party
            break
    if j is None:
        raise LemmaStructureError(
            "the first two states have no orthogonal factor pair")
    p0 = Projector.from_ray(factors[0][j][0])
    pvm = PVM.completed([p0], p0.dim)
    # P keeps state 0 and 1 - P keeps state 1, so both outcomes survive
    branches = apply(s, LocalPVM(pvm, (j,)))
    children = {o: Leaf("identified" if len(br.states) == 1 else "two-orthogonal")
                for o, br in branches.items()}
    return Node((j,), pvm, children)


# ---------------------------------------------------------------------------
# bounded search

# measurements the search tries at each tree node, best-ordered first
MAX_CANDIDATES_PER_NODE = 12
# PVMs enumerated on each partition block at each tree node
MAX_PVMS_PER_BLOCK = 32


def require_depth(depth: int) -> None:
    """The one refusal of a negative search depth."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")


def lpcc_search(s: StateSet, p: Partition, depth: int = 4) -> Verdict:
    """Breadth-limited distinguishability decision within a partition.

    Measurements are restricted to single blocks of the partition;
    terminal rules are the leaf rules of execute_and_verify. Returns an
    indistinguishability certificate when no block admits a nontrivial
    orthogonality-preserving PVM, and unknown when the bound bites.
    Verdicts are memoized across calls (they depend only on exact data)
    and frozen, so the stored one is handed out; one is reused only at a
    depth where a fresh search reaches the same status. A set with a
    non-orthogonal pair and a negative depth are refused."""
    p.validate(s.spec)
    require_depth(depth)
    require_orthogonal(s)
    return _search(s, p, depth)


def _search(s: StateSet, p: Partition, depth: int) -> Verdict:
    if len(s) == 1:
        return Verdict("distinguishable", tree=Leaf("identified"))
    if len(s) == 2:
        return Verdict("distinguishable", tree=Leaf("two-orthogonal"))
    # stored as (verdict, depth searched), or (verdict, its tree's depth);
    # the search is monotone in depth, so a fresh one reaches a
    # certificate always, unknown at no greater depth, a tree at no less
    key = ("search", p.blocks, s.ray_key)
    hit = _cache_get(key)
    if hit is not None:
        verdict, n = hit
        if {"indistinguishable": True, "unknown": n >= depth,
                "distinguishable": n <= depth}[verdict.status]:
            return verdict

    def store(verdict: Verdict) -> Verdict:
        # a shallower search's unknown does not replace a stored tree
        if verdict.distinguishable:
            _cache_put(key, (verdict, _depth(verdict.tree)))
        elif not (hit is not None and hit[0].distinguishable
                  and verdict.status == "unknown"):
            _cache_put(key, (verdict, depth))
        return verdict

    quick = _structural_leaf(s, p)
    if quick is not None:
        return store(Verdict("distinguishable", tree=quick))

    candidates: list[LocalPVM] = []
    for block in p.blocks:
        candidates.extend(enumerate_op_pvms(s, block,
                                            max_pvms=MAX_PVMS_PER_BLOCK))
    if not candidates:
        cert = is_pvm_irreducible(s, p)
        if cert.irreducible:
            return store(Verdict("indistinguishable", certificate=cert,
                                 trace=("no block admits a nontrivial "
                                        "orthogonality-preserving PVM",)))
        return store(Verdict("unknown",
                             trace=(f"no usable candidates; certificate status "
                                    f"{cert.status}",) + cert.trace))

    if depth <= 0:
        return store(Verdict("unknown", trace=("depth bound exhausted",)))

    candidates = _order_candidates(s, candidates)[:MAX_CANDIDATES_PER_NODE]
    for lp in candidates:
        branches = apply(s, lp)
        children: dict[int, Node | Leaf] = {}
        ok = True
        # on an orthogonal set, a nontrivial orthogonality-preserving
        # candidate leaves no branch with the set's own rays
        for o, br in branches.items():
            if br.states is None:
                continue
            sub = _search(br.states, p, depth - 1)
            if not sub.distinguishable:
                ok = False
                break
            children[o] = sub.tree
        if ok:
            return store(Verdict("distinguishable",
                                 tree=Node(lp.group, lp.pvm, children)))
    return store(Verdict("unknown", trace=("no candidate measurement led to a "
                                           "full discrimination tree",)))


def _depth(tree: ProtocolTree) -> int:
    """A leaf's depth is 0, a node's one more than its deepest child's."""
    return 0 if isinstance(tree, Leaf) else 1 + max(map(_depth, tree.children.values()))


def _order_candidates(s: StateSet, candidates: list[LocalPVM]) -> list[LocalPVM]:
    """Most informative first: fewest total survivals across outcomes,
    then fewer outcomes; deterministic tiebreak on the PVM itself."""
    keys = iter(sort_keys([e.mat for lp in candidates for e in lp.pvm.elements]))
    keyed = [(n, len(lp.pvm),
              tuple(row for _ in lp.pvm.elements for row in next(keys)), lp)
             for lp, n in zip(candidates, branch_survivals(s, candidates))]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _structural_leaf(s: StateSet, p: Partition) -> Leaf | None:
    """The first constructive leaf claim that holds for the set within the
    partition: three fully product states, or a product set with an
    (effectively) two-dimensional side."""
    for claim in ("three-product", "lemma1-2xn"):
        try:
            _check_leaf(s, claim, (), [], p)
        except ProtocolError:
            continue
        return Leaf(claim)
    return None


# ---------------------------------------------------------------------------
# protocol scripts (JSON)

def tree_from_script(data: dict, spec: PartySpec) -> ProtocolTree:
    """Elaborate a protocol script against a party spec.

    Nodes: {"group": ["C"] or [2], "pvm": "0,1;2" or explicit matrix
    list, "children": {"0": ...}}; leaves: {"claim": rule}.
    """
    from .kets import parse_pvm
    if "claim" in data:
        return Leaf(data["claim"])
    raw_group = data["group"]
    group = tuple(spec.party_index(g) if isinstance(g, str) else int(g)
                  for g in raw_group)
    dims = [spec.dims[p] for p in group]
    pvm_spec = data["pvm"]
    if isinstance(pvm_spec, str):
        pvm = parse_pvm(pvm_spec, dims)
    else:
        pvm = PVM.from_json(pvm_spec)
    children = {int(k): tree_from_script(v, spec)
                for k, v in data.get("children", {}).items()}
    return Node(group, pvm, children)
