"""Command-line surface: exit codes, JSON reports, branch listings."""

import json
import shlex
from pathlib import Path

import pytest

from lpcckit.cli import main
from lpcckit.opsolve import clear_caches

# --json reports pinned byte for byte (elapsed_s aside), as the two-Fraction
# kernel wrote them; a file changes only when its verdict is meant to
GOLDEN = Path(__file__).with_name("golden")
GOLDEN_COMMANDS = {
    "theorem_3": "theorem 3",
    "classify_S1": "classify --name S1",
    "solve_pvms_S2_C": "solve pvms --name S2 --group C",
    "solve_rank1_Domino_A": "solve rank1 --name Domino --group A",
    "activate_S1_B_pvm_0_1": 'activate --name S1 --group B --pvm "0;1"',
    "theorem_5": "theorem 5",
    "classify_S2_joint_BC": "classify --name S2 --joint BC",
    "theorem_1": "theorem 1",
    "search_Domino_depth_2": "search --name Domino --depth 2",
    "protocol_s2_discrimination": "protocol --fixture s2_discrimination",
    "solve_rank1_Domino_AB": "solve rank1 --name Domino --group AB",
    "solve_rank1_S2_AC": "solve rank1 --name S2 --group AC",
    "solve_rank1_S1_AC": "solve rank1 --name S1 --group AC",
    "solve_pvms_Domino_AB": "solve pvms --name Domino --group AB",
    "lemma_1_samples_40": "lemma 1 --samples 40",
    "theorem_2": "theorem 2",
    "theorem_4": "theorem 4",
    "classify_S2_joint_BC_activable_m_3":
        "classify --name S2 --joint BC --activable-m 3",
    "classify_S1_activable_m_3_strong": "classify --name S1 --activable-m 3 --strong",
    "classify_S1_depth_1_activable_m_2": "classify --name S1 --depth 1 --activable-m 2",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sets_check_family(capsys):
    code, out = run(capsys, "sets", "check", "--name", "S1m", "--m", "4")
    assert code == 0
    assert "ok" in out


def test_sets_check_json_roundtrip(capsys):
    code, out = run(capsys, "--json", "sets", "export", "--name", "S2")
    assert code == 0
    data = json.loads(out)
    from lpcckit.statesets import StateSet, build_named_set
    back = StateSet.from_json(data["verdicts"][0])
    assert back.labels() == build_named_set("S2").labels()


def test_measure_apply_matches_published_branch(capsys):
    code, out = run(capsys, "--json", "measure", "apply", "--name", "S1",
                    "--group", "B", "--pvm", "0;1")
    assert code == 0
    data = json.loads(out)
    outcomes = [v for v in data["verdicts"] if "outcome" in v]
    assert len(outcomes) == 2
    assert all(len(v["states"]) == 9 for v in outcomes)


def test_complement_needs_mutually_orthogonal_elements():
    from lpcckit.kets import parse_pvm
    from lpcckit.measurements import Projector
    assert parse_pvm("0;~", [3]).elements[1] == Projector.diagonal([1, 2], 3)
    with pytest.raises(ValueError):
        parse_pvm("0,1;1;~", [3])
    assert main(["measure", "apply", "--name", "S1", "--group", "A",
                 "--pvm", "0,1;1;~"]) == 64
    # overlaps off the diagonal: tr(PQ) = 1/4; three elements, one pair
    # overlapping
    for text, dims in (("0+1;0+2;~", [3]), ("0;1+2;2;~", [4])):
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            parse_pvm(text, dims)
    assert main(["measure", "apply", "--name", "S2", "--group", "C",
                 "--pvm", "0+1;0+2;~"]) == 64
    # orthogonal non-diagonal elements still complete
    pvm = parse_pvm("0+1;0-1,2;~", [4])
    assert [e.rank() for e in pvm] == [1, 2, 1]


def test_lone_complement_is_the_identity_pvm():
    from lpcckit.kets import parse_pvm
    from lpcckit.measurements import Projector
    for dims in ([3], [2, 2]):
        pvm = parse_pvm("~", dims)
        assert list(pvm) == [Projector.full(pvm.dim)]


def test_solve_rank1_exit_codes(capsys):
    code, out = run(capsys, "solve", "rank1", "--name", "S2", "--group", "A")
    assert code == 0
    assert "no preserving rank-1 direction" in out
    code, out = run(capsys, "solve", "rank1", "--name", "S2", "--group", "C")
    assert code == 0
    assert out.count("direction:") == 3


def test_numeric_flag_is_gone():
    assert main(["solve", "rank1", "--name", "S2", "--group", "C",
                 "--numeric"]) == 64


def test_search_unknown_on_irrational_rays(capsys, tmp_path, irrational_2x3):
    path = tmp_path / "set.json"
    path.write_text(irrational_2x3.dumps())
    code, out = run(capsys, "--json", "search", "--file", str(path))
    assert code == 2
    assert json.loads(out)["verdicts"][1]["status"] == "unknown"
    assert "irrational endgame roots" in out


def test_protocol_fixture(capsys):
    code, out = run(capsys, "protocol", "--fixture", "s1_discrimination")
    assert code == 0
    assert "verified" in out


def test_search_exit_unknown_on_depth(capsys):
    code, _ = run(capsys, "search", "--name", "Domino", "--depth", "1")
    assert code == 0          # indistinguishable is a confirmed verdict


def test_activate_confirmed(capsys):
    code, out = run(capsys, "activate", "--name", "S1", "--group", "B",
                    "--pvm", "0;1")
    assert code == 0
    assert "activation asserted: True" in out


def test_activate_refuted(capsys):
    code, out = run(capsys, "activate", "--name", "S2", "--group", "C",
                    "--pvm", "0-1;~")
    assert code == 1


def test_theorem_exit_code(capsys):
    code, out = run(capsys, "theorem", "3")
    assert code == 0
    assert "confirmed" in out


def test_diagram_ascii(capsys):
    code, out = run(capsys, "diagram", "--name", "S2", "--partition", "A|BC")
    assert code == 0
    assert "rows" in out and "+" in out


def test_diagram_domino_grid(capsys):
    code, out = run(capsys, "diagram", "--name", "Domino")
    assert code == 0
    assert out.count("+---+") >= 3


def test_diagram_svg(capsys):
    code, out = run(capsys, "--json", "diagram", "--name", "Domino",
                    "--format", "svg")
    assert code == 0


def test_failed_self_check_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("solver emitted a direction failing re-verification")

    monkeypatch.setattr("lpcckit.cli.rank1_op_directions", broken)
    code = main(["solve", "rank1", "--name", "S2", "--group", "A"])
    assert code == 70
    assert "self-check" in capsys.readouterr().err


TWO_STATES = "<|00>, |11> in 2x2>"


@pytest.mark.parametrize("argv", [
    ["sets", "check", "--name", "NotASet"],
    ["protocol", "--name", "S1"],
    ["sets", "check"],
    ["lemma", "1", "--samples", "-3"],
    ["classify", "--name", "S2", "--joint", "A"],
    ["classify", "--name", "S2", "--joint", "ABC"],
    ["classify", "--name", "S1", "--joint", "AA"],
    ["search", "--name", "Domino", "--partition", "AA|B"],
    ["search", "--name", "S1", "--depth", "-2"],
    ["classify", "--name", "S1", "--depth", "-1"],
    ["classify", "--file", TWO_STATES, "--depth", "-1"],
    ["classify", "--file", TWO_STATES, "--depth", "-1", "--activable-m", "2", "--strong"],
    ["activate", "--name", "S1", "--group", "B", "--pvm", "0;1", "--depth", "-1"],
], ids=["unknown-set", "protocol-without-script", "set-verb-without-set",
        "negative-lemma-samples", "joint-single-party", "joint-three-parties",
        "joint-repeated-party", "partition-repeated-party",
        "negative-search-depth", "negative-classify-depth",
        "two-state-negative-classify-depth",
        "two-state-negative-strong-activability-depth", "negative-activate-depth"])
def test_usage_error(capsys, tmp_path, argv):
    if TWO_STATES in argv:
        # a set that classify and strong 2-activability answer without a
        # search, so only the entries' own depth refusal stops it
        path = tmp_path / "two_states.json"
        path.write_text(json.dumps({"dims": [2, 2], "states": [
            {"label": "a", "amps": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]},
            {"label": "b", "amps": [[0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1]]}]}))
        argv = [str(path) if a == TWO_STATES else a for a in argv]
        assert main(argv) == 64
        assert capsys.readouterr().err == "error: depth must be nonnegative, got -1\n"
        return
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


def test_invalid_m():
    assert main(["sets", "check", "--name", "S1m"]) == 64


def test_all_theorem_replays_green_and_timely(capsys):
    import time
    t0 = time.time()
    for n in range(1, 6):
        assert main(["theorem", str(n)]) == 0
    assert main(["lemma", "1", "--samples", "40"]) == 0
    capsys.readouterr()
    assert time.time() - t0 < 300.0


def assert_matches_golden_file(capsys, name):
    code, out = run(capsys, "--json", *shlex.split(GOLDEN_COMMANDS[name]))
    data = json.loads(out)
    assert data["exit_code"] == code
    del data["elapsed_s"]
    want = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(data, indent=2) + "\n" == want, name


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_report_matches_golden_file(capsys, name):
    assert_matches_golden_file(capsys, name)


def test_golden_reports_do_not_depend_on_store_order(capsys):
    # one process, one cleared store: every verb's report is the same
    # whichever verbs filled the store before it
    clear_caches()
    for name in sorted(GOLDEN_COMMANDS) + sorted(GOLDEN_COMMANDS, reverse=True):
        assert_matches_golden_file(capsys, name)


NON_ORTHOGONAL = {"dims": [2, 2], "states": [
    {"label": "a", "amps": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]},
    {"label": "b", "amps": [[1, 1, 0, 1], [1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]}]}


@pytest.mark.parametrize("verb", [["search"], ["classify"],
                                  ["solve", "rank1", "--group", "A"]])
def test_non_orthogonal_input_is_a_usage_error(capsys, tmp_path, verb):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(NON_ORTHOGONAL))
    assert main(verb + ["--file", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: states 'a' and 'b' are not orthogonal\n"


@pytest.mark.parametrize("verb", [["sets", "check"], ["classify"],
                                  ["solve", "rank1", "--group", "A"], ["search"]])
def test_empty_state_list_is_a_usage_error(capsys, tmp_path, verb):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dims": [2, 2], "states": []}))
    assert main(verb + ["--file", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state set has no states\n"


@pytest.mark.parametrize("claim", ["three-product", "lemma1-2xn"])
def test_failed_leaf_claim_is_refuted(capsys, tmp_path, claim):
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps({"tree": {"claim": claim}}))
    code, out = run(capsys, "protocol", "--name", "S2", "--script", str(path))
    assert code == 1
    assert out.startswith(f"protocol verification FAILED: leaf {claim}: ")


def test_protocol_on_non_orthogonal_set_names_the_pair(capsys, tmp_path):
    path, script = tmp_path / "set.json", tmp_path / "tree.json"
    path.write_text(json.dumps(NON_ORTHOGONAL))
    script.write_text(json.dumps({"tree": {
        "group": ["A"], "pvm": "0;1",
        "children": {"0": {"claim": "two-orthogonal"}}}}))
    code, out = run(capsys, "protocol", "--file", str(path), "--script", str(script))
    assert code == 1
    assert out == ("protocol verification FAILED: states 'a' and 'b' are not "
                   "orthogonal (branch path [])\n")


def test_lemma_fixture_tree_failing_verification_is_refuted(capsys, monkeypatch):
    # a fixture tree that does not verify is a failed check, not a traceback
    from lpcckit import theorems
    from lpcckit.protocols import Leaf
    from lpcckit.statesets import build_named_set
    monkeypatch.setattr(theorems, "fixture_protocol",
                        lambda name: (build_named_set("S1"), Leaf("three-product")))
    code, out = run(capsys, "lemma", "1", "--samples", "2")
    assert code == 1
    assert "FAIL s1_discrimination tree" in out
    assert out.endswith("lemma 1: REFUTED\n")


def test_sets_list_names_every_named_set(capsys):
    code, out = run(capsys, "sets", "list")
    assert code == 0
    assert len(out.splitlines()) == 8


def test_sets_check_reports_the_non_orthogonal_pair(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(NON_ORTHOGONAL))
    code, out = run(capsys, "--json", "sets", "check", "--file", str(path))
    assert code == 1
    assert json.loads(out)["verdicts"][1]["witness"] == [0, 1]


def test_measure_apply_lists_an_outcome_that_annihilates_every_state(capsys, tmp_path):
    # level 2 of A carries no amplitude, so outcome 0 of "2;~" keeps nothing
    e = lambda k: [[1 if j == k else 0, 1, 0, 1] for j in range(6)]
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dims": [3, 2], "states": [
        {"label": "a", "amps": e(0)}, {"label": "b", "amps": e(3)}]}))
    code, out = run(capsys, "--json", "measure", "apply", "--file", str(path),
                    "--group", "A", "--pvm", "2;~")
    assert code == 0
    first = json.loads(out)["verdicts"][1]
    assert first["outcome"] == 0 and first["states"] == []


def test_classify_without_search_depth_is_unknown(capsys):
    code, _ = run(capsys, "classify", "--name", "S1", "--depth", "0")
    assert code == 2


def test_only_lemma_1_is_implemented(capsys):
    code, out = run(capsys, "lemma", "2")
    assert code == 64
    assert out == "only lemma 1 is implemented\n"


@pytest.mark.parametrize("quad", [[1, 0, 0, 1], [1.5, 1, 0, 1], [1, 1, 0], [1, 1, 0, 1, 5]])
def test_malformed_amplitude_quad_is_a_usage_error(capsys, tmp_path, quad):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"dims": [2, 2], "states": [
        {"label": "a", "amps": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], quad]}]}))
    assert main(["sets", "check", "--file", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: amplitude {quad!r} is not four integers "
                            f"with nonzero denominators\n")
