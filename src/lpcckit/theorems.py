"""Self-contained replays of every headline claim, used by the CLI and
the acceptance suite.

Each replay returns a TheoremResult whose checks are individually
labeled; `passed` is the conjunction. Sets, measurements and protocols
come from the shipped fixtures or are built in place, so a replay needs
no user input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources

from .activation import check_dim2_nogo, is_m_activable, verify_activation
from .generators import random_biseparable_322, random_lemma_structured_set
from .kets import parse_pvm
from .measurements import LocalPVM, apply
from .opsolve import enumerate_op_pvms, rank1_op_directions
from .protocols import (Leaf, ProtocolError, execute_and_verify, leaf_branches,
                        lpcc_search, tree_from_script)
from .statesets import (Partition, StateSet, build_named_set,
                        check_mutual_orthogonality, group_support)


@dataclass
class TheoremResult:
    name: str
    checks: list[tuple[str, bool]] = field(default_factory=list)
    details: list[str] = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok)))
        if detail:
            self.details.append(f"{label}: {detail}")

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checks": [{"label": l, "ok": ok} for l, ok in self.checks],
                "details": self.details}


def load_fixture(name: str) -> dict:
    text = resources.files("lpcckit.fixtures").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def fixture_protocol(name: str):
    """(state set, verified protocol tree) from a shipped fixture."""
    data = load_fixture(name)
    s = build_named_set(data["set"])
    tree = tree_from_script(data["tree"], s.spec)
    return s, tree


def fixture_activation(name: str):
    """(state set, first-round LocalPVM, partition) from a fixture."""
    data = load_fixture(name)
    s = build_named_set(data["set"])
    group = tuple(s.spec.party_index(g) for g in data["first"]["group"])
    dims = [s.spec.dims[p] for p in group]
    pvm = parse_pvm(data["first"]["pvm"], dims)
    blocks = tuple(tuple(s.spec.party_index(g) for g in b)
                   for b in data["partition"])
    return s, LocalPVM(pvm, group), Partition(blocks)


# ---------------------------------------------------------------------------

def lemma1_replay(samples: int = 200, seed: int = 0) -> TheoremResult:
    """Constructive distinguishability of orthogonal product sets with a
    two-dimensional side: the fixture trees, whose every leaf claims
    `lemma1-2xn`, verified whole, plus seeded random structured instances
    with a wide side of dimension 2 to 6."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    res = TheoremResult("lemma 1")
    for fixture in ("s1_discrimination", "s2_discrimination"):
        s, tree = fixture_protocol(fixture)
        try:
            leaves = leaf_branches(s, tree)
        except ProtocolError as exc:
            res.add(f"{fixture} tree", False, str(exc))
            continue
        for path, branch in leaves:
            res.add(f"{fixture} leaf {path}", True,
                    f"{len(branch)} states distinguished")
    rng = random.Random(seed)
    failures = 0
    for i in range(samples):
        wide = rng.randint(2, 6)
        s = random_lemma_structured_set(rng, wide)
        try:
            execute_and_verify(s, Leaf("lemma1-2xn"))
        except Exception:
            failures += 1
    res.add(f"{samples} random structured 2xn sets", failures == 0,
            f"{failures} failures")
    return res


def theorem1_replay() -> TheoremResult:
    """Dimension-2 parties cannot activate biseparable n x 2 x 2 sets.

    `check_dim2_nogo` decides this by the factor test alone, so the
    "20 random biseparable 3x2x2 sets" check only that the generator makes
    biseparable sets."""
    res = TheoremResult("theorem 1")
    samples = 20
    rng = random.Random(0)
    bad = 0
    for i in range(samples):
        s = random_biseparable_322(rng, n_states=rng.randint(4, 8))
        rep = check_dim2_nogo(s)
        if not rep.confirmed:
            bad += 1
    res.add(f"{samples} random biseparable 3x2x2 sets", bad == 0,
            f"{bad} failures")
    case1 = _type2_case_residue("2;0,1", outcome=1, compress=True)
    rep = check_dim2_nogo(case1)
    res.add("case-1 residue no-go", rep.confirmed,
            "dimension-2 parties reduced to effective n x 2 products")
    return res


def theorem2_replay() -> TheoremResult:
    """Single-party activation of the TYPE-I family."""
    res = TheoremResult("theorem 2")
    s = build_named_set("S1")
    first = LocalPVM(parse_pvm("0;1", [2]), (1,))
    p = Partition.trivial(3)
    s_fix, tree = fixture_protocol("s1_discrimination")
    report = verify_activation(s, first, p, protocol=tree)
    res.add("activation asserted", report.asserted)
    res.add("genuine (irredundant source)", report.genuine)
    expected_bases = [(0, 1, 2), (3, 4, 5)]
    for br, want in zip(report.branches, expected_bases):
        ok = (br.domino is not None and br.domino.col_basis == want
              and br.certified)
        res.add(f"outcome {br.outcome} domino + certificate", ok,
                f"support basis {br.domino.col_basis if br.domino else None}, "
                f"certificate {br.certificate.status if br.certificate else None}")
        if br.certificate:
            exact_levels = all(v in ("complete", "inert")
                               for v in br.certificate.block_levels.values())
            res.add(f"outcome {br.outcome} exact-mode certificate", exact_levels,
                    str(dict(br.certificate.block_levels)))
    return res


def _type2_case_residue(charlie_pvm: str, outcome: int,
                        compress: bool = False) -> StateSet:
    """Post-measurement set of the TYPE-II family under a third-party
    case-analysis PVM; with compress=True the collapsed third party is
    restricted to its surviving two-dimensional computational support,
    giving the effective 3 x 2 x 2 view."""
    s = build_named_set("S2")
    lp = LocalPVM(parse_pvm(charlie_pvm, [3]), (2,))
    br = apply(s, lp)[outcome]
    assert br.states is not None
    if compress:
        from .statesets import restrict_support
        return restrict_support(br.states)
    return br.states


def theorem3_replay() -> TheoremResult:
    """No single party can activate the TYPE-II family: first parties
    have no preserving direction at all, the third party's full case
    analysis leaves only distinguishable residues."""
    res = TheoremResult("theorem 3")
    s = build_named_set("S2")
    rep_a = rank1_op_directions(s, (0,))
    res.add("first party: none found (exact case split)",
            rep_a.is_none_found, str(rep_a.to_json()["none_found"]))
    rep_b = rank1_op_directions(s, (1,))
    res.add("second party: none found (exact case split)",
            rep_b.is_none_found, str(rep_b.to_json()["none_found"]))
    rep_c = rank1_op_directions(s, (2,))
    got = sorted(tuple(str(x) for x in th.entries)
                 for th in rep_c.nontrivial_directions())
    want = sorted([("0", "0", "1"), ("1", "-1", "0"), ("1", "1", "0")])
    res.add("third party: exactly the three directions", got == want, str(got))
    pvms = enumerate_op_pvms(s, (2,), max_outcomes=3)
    res.add("third party: four preserving PVMs", len(pvms) == 4,
            str([[e.rank() for e in lp.pvm.elements] for lp in pvms]))

    singles = Partition.trivial(3)
    residues = {
        "case 1 (rank-2 complement of |2>)": ("2;0,1", 1, True),
        "case 2 (complement of |0-1>)": ("0-1;0+1,2", 1, False),
        "case 3 (complement of |0+1>)": ("0+1;0-1,2", 1, True),
    }
    for label, (pvm_text, outcome, expect_no_alice) in residues.items():
        branch = _type2_case_residue(pvm_text, outcome)
        verdict = lpcc_search(branch, singles, depth=3)
        res.add(f"{label}: residue distinguishable",
                verdict.status == "distinguishable", verdict.status)
        if expect_no_alice:
            rep = rank1_op_directions(branch, (0,))
            res.add(f"{label}: no first-party direction",
                    rep.is_none_found or not rep.nontrivial_directions(),
                    "exact case split")
    m3 = is_m_activable(s, 3)
    res.add("not 3-activable (exact exhaustion)",
            m3.status == "not-activable" and m3.exact, m3.status)
    return res


def theorem4_replay() -> TheoremResult:
    """Joint activation of the TYPE-II family by the last two parties."""
    res = TheoremResult("theorem 4")
    s, first, p = fixture_activation("s2_joint_activation")
    _, tree = fixture_protocol("s2_discrimination")
    report = verify_activation(s, first, p, protocol=tree)
    res.add("activation asserted", report.asserted)
    res.add("genuine (irredundant source)", report.genuine)
    expected = [(0, 2, 4), (1, 5, 3)]      # |00>,|02>,|11> and |01>,|12>,|10>
    for br, want in zip(report.branches, expected):
        ok = br.domino is not None and br.domino.col_basis == want and br.certified
        labels = None
        if br.domino:
            from .activation import support_triple_labels
            labels = support_triple_labels(s, p, 1, br.domino.col_basis)
        res.add(f"outcome {br.outcome} domino + certificate", ok,
                f"support basis {labels}")
    return res


UNION_PLAN = (
    # tag, joint group, joint PVM, partition blocks, protocol script
    ("S2", (1, 2), "00,02,11;01,10,12;~", ((0,), (1, 2)),
     {"group": ["C"], "pvm": "0,1;2;~", "children": {
         "0": {"group": ["B"], "pvm": "0;1;~", "children": {
             "0": {"claim": "lemma1-2xn"}, "1": {"claim": "lemma1-2xn"}}},
         "1": {"claim": "lemma1-2xn"}}}),
    ("S2p", (2, 0), "33,35,44;34,43,45;~", ((1,), (2, 0)),
     {"group": ["A"], "pvm": "3,4;5;~", "children": {
         "0": {"group": ["C"], "pvm": "3;4;~", "children": {
             "0": {"claim": "lemma1-2xn"}, "1": {"claim": "lemma1-2xn"}}},
         "1": {"claim": "lemma1-2xn"}}}),
    ("S2pp", (0, 1), "65,67,76;66,75,77;~", ((2,), (0, 1)),
     {"group": ["B"], "pvm": "5,6;7;~", "children": {
         "0": {"group": ["A"], "pvm": "6;7;~", "children": {
             "0": {"claim": "lemma1-2xn"}, "1": {"claim": "lemma1-2xn"}}},
         "1": {"claim": "lemma1-2xn"}}}),
)

UNION_EXPECTED_SUPPORTS = {
    "S2": ((0, 1, 2), (0, 1), (0, 1, 2)),
    "S2p": ((3, 4, 5), (2, 3, 4), (3, 4)),
    "S2pp": ((6, 7), (5, 6, 7), (5, 6, 7)),
}


def theorem5_replay() -> TheoremResult:
    """The 8 x 8 x 8 union: first-party coarse separation, inherited
    single-party no-gos, and all three pairwise joint activations."""
    res = TheoremResult("theorem 5")
    u = build_named_set("UnionS")
    res.add("union orthogonal", bool(check_mutual_orthogonality(u)))
    coarse = LocalPVM(parse_pvm("0,1,2;3,4,5;6,7", [8]), (0,))
    branches = apply(u, coarse)
    subsets: dict[str, StateSet] = {}
    for o, tag in ((0, "S2"), (1, "S2p"), (2, "S2pp")):
        br = branches[o]
        labels = br.states.labels() if br.states else ()
        tags = {l.split(":")[0] for l in labels}
        supports = tuple(group_support(br.states, (p,))[2] for p in range(3))
        ok = (tags == {tag} and len(labels) == 9
              and supports == UNION_EXPECTED_SUPPORTS[tag])
        res.add(f"coarse outcome {o} isolates {tag}", ok,
                f"supports {supports}")
        subsets[tag] = br.states

    singles = Partition.trivial(3)
    for tag, sub in subsets.items():
        failed = True
        for party in range(3):
            cands = enumerate_op_pvms(sub, (party,))
            for lp in cands:
                refuted = False
                for o, br in apply(sub, lp).items():
                    if br.states is None:
                        continue
                    sv = lpcc_search(br.states, singles, depth=3)
                    if sv.status == "distinguishable":
                        refuted = True
                        break
                if not refuted:
                    failed = False
        res.add(f"{tag}: no single-party activation (inherited)", failed)

    for tag, group, pvm_text, blocks, script in UNION_PLAN:
        sub = subsets[tag]
        dims = [u.spec.dims[p] for p in group]
        first = LocalPVM(parse_pvm(pvm_text, dims), group)
        part = Partition(blocks)
        tree = tree_from_script(script, sub.spec)
        report = verify_activation(sub, first, part, protocol=tree)
        matched = all(b.domino is not None for b in report.branches
                      if b.certificate is not None)
        res.add(f"{tag}: joint activation on group {group}",
                report.asserted and matched,
                f"branches {[b.n_states for b in report.branches]}")
    return res


def theorem_replay(number: int) -> TheoremResult:
    replays = {1: theorem1_replay, 2: theorem2_replay, 3: theorem3_replay,
               4: theorem4_replay, 5: theorem5_replay}
    if number not in replays:
        raise ValueError(f"no theorem {number}; choose 1-5")
    return replays[number]()
