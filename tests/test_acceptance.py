"""Acceptance gate: one test per headline criterion, each printing a
single PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

from lpcckit.activation import check_dim2_nogo, classify, is_m_activable
from lpcckit.generators import (planted_direction_set, random_biseparable_322,
                                random_orthogonal_set, random_product_set,
                                random_two_state_set)
from lpcckit.measurements import (LocalPVM, PVM, Projector, apply,
                                  complement)
from lpcckit.opsolve import is_pvm_irreducible, rank1_op_directions
from lpcckit.statesets import (Partition, build_named_set,
                               check_mutual_orthogonality,
                               sets_equal_up_to_relabeling)
from lpcckit.theorems import (lemma1_replay, theorem2_replay, theorem3_replay,
                              theorem4_replay, theorem5_replay)


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {title}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {title} {detail}"


def test_criterion_1_orthogonality_goldens():
    t0 = time.time()
    named = ["S1", "S2", "S2prime", "S2doubleprime", "UnionS", "Domino"]
    ok = all(check_mutual_orthogonality(build_named_set(n)) for n in named)
    for m in (1, 2, 3, 4):
        ok = ok and check_mutual_orthogonality(build_named_set("S1m", m=m)).ok
        ok = ok and check_mutual_orthogonality(build_named_set("S2m", m=m)).ok
    ok = ok and sets_equal_up_to_relabeling(build_named_set("S1m", m=1),
                                            build_named_set("S1"))
    ok = ok and sets_equal_up_to_relabeling(build_named_set("S2m", m=1),
                                            build_named_set("S2"))
    elapsed = time.time() - t0
    report(1, "orthogonality goldens", ok and elapsed < 10.0,
           f"{elapsed:.1f}s")


def test_criterion_2_lemma1():
    result = lemma1_replay(samples=200, seed=0)
    report(2, "constructive two-dimensional-side protocol", result.passed,
           "; ".join(l for l, ok in result.checks if not ok) or "zero failures")


def test_criterion_3_single_party_activation():
    result = theorem2_replay()
    report(3, "single-party activation with domino branches", result.passed,
           "; ".join(l for l, ok in result.checks if not ok) or "both branches certified")


def test_criterion_4_no_single_party_activation_for_type2():
    result = theorem3_replay()
    report(4, "TYPE-II single-party no-go and case residues", result.passed,
           "; ".join(l for l, ok in result.checks if not ok) or "all cases closed")


def test_criterion_5_joint_activation():
    result = theorem4_replay()
    report(5, "joint two-party activation", result.passed,
           "; ".join(l for l, ok in result.checks if not ok) or "both outcomes domino-matched")


def test_criterion_6_union_set():
    t0 = time.time()
    result = theorem5_replay()
    elapsed = time.time() - t0
    report(6, "8x8x8 union separation and pairwise activations",
           result.passed and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_7_strong_local_recognitions():
    rng = random.Random(2026)
    ok = True
    details = []
    for i in range(10):
        s = random_two_state_set(rng, (rng.randint(2, 3), rng.randint(2, 3)))
        out = classify(s)
        if out.klass != "strong-local-evidence" or not out.exact:
            ok = False
            details.append(f"two-state #{i}: {out.klass}")
    for i in range(10):
        n = rng.randint(2, 5)
        s = random_product_set(rng, (n, 2), min(2 * n, n + 2))
        out = classify(s)
        if out.klass != "strong-local-evidence" or not out.exact:
            ok = False
            details.append(f"n x 2 product #{i}: {out.klass}")
    for i in range(20):
        s = random_biseparable_322(rng, n_states=rng.randint(4, 8))
        rep = check_dim2_nogo(s)
        if not rep.confirmed:
            ok = False
            details.append(f"biseparable #{i} not confirmed")
    report(7, "strong-local recognitions", ok, "; ".join(details) or
           "10 two-state, 10 product n x 2, 20 biseparable")


def test_criterion_8_domino_irreducible():
    verdict = is_pvm_irreducible(build_named_set("Domino"),
                                 Partition(((0,), (1,))))
    exact = all(level == "complete" for level in verdict.block_levels.values())
    report(8, "nine-state product basis irreducible in exact mode",
           verdict.irreducible and exact, str(verdict.block_levels))


def test_criterion_9_property_suites():
    ok = True
    details = []
    rng = random.Random(7)

    # measurement norm conservation
    for _ in range(15):
        s = random_orthogonal_set(rng, (2, 3), 3, complex_amps=True)
        theta = None
        while theta is None or theta.is_zero():
            from lpcckit.exact import Scalar, Vec
            theta = Vec([Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                         for _ in range(3)])
        p = Projector.from_ray(theta)
        lp = LocalPVM(PVM([p, complement([p], p.dim)]), (1,))
        branches = apply(s, lp)
        for label, v in s.states:
            from fractions import Fraction
            total = Fraction(0)
            for br in branches.values():
                if br.states is None:
                    continue
                try:
                    total += br.states.state(label).norm2()
                except KeyError:
                    pass
            if total != v.norm2():
                ok = False
                details.append("norm conservation broken")

    # merge invariance of inner products
    from lpcckit.exact import inner
    from lpcckit.statesets import merge_parties
    for _ in range(15):
        s = random_orthogonal_set(rng, (2, 2, 3), 4, complex_amps=True)
        part = rng.choice([Partition(((0,), (1, 2))), Partition(((1,), (2, 0))),
                           Partition(((0, 2), (1,)))])
        merged = merge_parties(s, part)
        for i in range(len(s)):
            for j in range(len(s)):
                if inner(s.vectors()[i], s.vectors()[j]) != \
                        inner(merged.vectors()[i], merged.vectors()[j]):
                    ok = False
                    details.append("merge changed an inner product")

    # planted-direction recovery, 1000 trials
    misses = 0
    for trial in range(1000):
        gd = rng.choice([2, 3, 3, 4])
        rd = rng.choice([3, 4])
        s, theta = planted_direction_set(rng, group_dim=gd, rest_dim=rd,
                                         n_states=rng.randint(2, rd))
        rep = rank1_op_directions(s, (0,))
        if not rep.contains_ray(theta):
            misses += 1
    if misses:
        ok = False
        details.append(f"{misses} planted-direction misses")

    # protocol label coverage across leaves
    from lpcckit.protocols import leaf_branches
    from lpcckit.theorems import fixture_protocol
    for fixture in ("s1_discrimination", "s2_discrimination"):
        s, tree = fixture_protocol(fixture)
        seen = set()
        for _path, branch in leaf_branches(s, tree):
            seen |= set(branch.labels())
        if seen != set(s.labels()):
            ok = False
            details.append(f"{fixture} lost labels")

    report(9, "property suites", ok,
           "; ".join(details) or "norms, merges, 1000 planted trials, labels")


def test_criterion_10_partition_monotonicity():
    s1 = build_named_set("S1")
    s2 = build_named_set("S2")
    ok = True
    details = []
    strong3 = is_m_activable(s1, 3, strong=True)
    two = is_m_activable(s1, 2)
    if strong3.status == "activable" and two.status == "not-activable":
        ok = False
        details.append("TYPE-I family: strong-3 but not 2")
    details.append(f"S1: strong-3 {strong3.status}, 2 {two.status}")
    v3 = is_m_activable(s2, 3)
    v2 = is_m_activable(s2, 2)
    if v3.status == "activable" and v2.status == "not-activable":
        ok = False
        details.append("TYPE-II family: 3 but not 2")
    details.append(f"S2: 3 {v3.status}, 2 {v2.status}")
    ok = ok and v3.status == "not-activable" and v2.status == "activable"
    report(10, "activability monotonicity consistency", ok, "; ".join(details))
