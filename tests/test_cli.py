import os
import subprocess
import sys
from pathlib import Path

import pytest

import selogic
from selogic.certificates import parse_focused_proof
from selogic.cli import main
from selogic.focusing import check_focused
from selogic.formulas import Sequent
from selogic.parsing import parse_sequent, parse_signature, print_signature
from selogic.reduction import encode_halting, encoding_signature
from selogic.corpus import load_corpus


def lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_roundtrip_report(capsys):
    assert main(["roundtrip", "incra_halt"]) == 0
    assert lines(capsys) == [
        "outcome: halted",
        "steps: 2",
        "proof-decides: 7",
        "unfocused-rules: 28",
        "contractions: 4",
        "agreement: yes",
    ]


def test_simulate_halting(capsys):
    assert main(["simulate", "halt_only"]) == 0
    out = lines(capsys)
    assert out[0] == "outcome: halted"
    assert "steps: 1" in out
    assert "trace: halt" in out


def test_simulate_out_of_fuel(capsys):
    assert main(["simulate", "loop", "--fuel", "7"]) == 1
    out = lines(capsys)
    assert out[0] == "outcome: out-of-fuel"
    assert "steps: 7" in out
    assert any(line.startswith("state: ") for line in out)


def test_simulate_stuck_reports_configuration(capsys):
    assert main(["simulate", "stuck"]) == 1
    out = lines(capsys)
    assert out[0] == "outcome: stuck"
    assert "trace: (empty)" in out


def test_simulate_writes_trace_file(tmp_path, capsys):
    target = tmp_path / "t.trace"
    assert main(["simulate", "incra_halt", "--trace-out", str(target)]) == 0
    assert target.read_text() == "incra\nhalt\n"


def test_encode_prints_signature_and_goal(capsys):
    assert main(["encode", "incra_halt"]) == 0
    out = capsys.readouterr().out
    sig = parse_signature(out[: out.index("\n\n") + 1])
    assert "a" in sig.labels and "b" in sig.labels and "inf" in sig.labels


def test_encode_to_files(tmp_path, capsys):
    sig_f, goal_f = tmp_path / "m.sig", tmp_path / "m.goal"
    code = main(["encode", "incra_halt", "--signature-out", str(sig_f), "--goal-out", str(goal_f)])
    assert code == 0
    out = lines(capsys)
    assert "elements: 5" in out
    assert "context-size: 6" in out
    sig = parse_signature(sig_f.read_text())
    goal = parse_sequent(goal_f.read_text())
    assert len(goal.context) == 6
    assert sig.unbounded == frozenset({"inf"})


def test_prove_writes_checkable_proof(tmp_path, capsys):
    proof_f = tmp_path / "p.cert"
    assert main(["prove", "halt_only", "--max-decides", "4", "--proof-out", str(proof_f)]) == 0
    out = lines(capsys)
    assert out[0] == "outcome: proved"
    assert "proof-decides: 3" in out
    m, init = load_corpus("halt_only")
    bundle = encode_halting(m, init)
    proof = parse_focused_proof(proof_f.read_text())
    check_focused(bundle.signature, Sequent(bundle.goal), proof)


def test_prove_budget_exhaustion(capsys):
    assert main(["prove", "loop", "--max-decides", "3"]) == 1
    out = lines(capsys)
    assert out[0] == "outcome: exhausted"
    assert "reason: decide-budget" in out


def test_prove_reports_unprovable_goal(capsys):
    # a machine that starts halted never fires an entry, and the encoding
    # cannot close without firing halt at least once
    assert main(["prove", "already_halted", "--max-decides", "6"]) == 1
    out = lines(capsys)
    assert out[0] == "outcome: exhausted"
    assert "reason: unprovable" in out


def test_prove_node_budget_exhaustion(capsys):
    assert main(["prove", "drain_a", "--max-nodes", "1"]) == 1
    assert lines(capsys) == ["outcome: exhausted", "reason: node-budget", "nodes: 2", "rounds: 2"]


@pytest.fixture()
def incra_files(tmp_path):
    sig_f, goal_f, proof_f = (tmp_path / n for n in ("m.sig", "m.goal", "p.cert"))
    main(["encode", "incra_halt", "--signature-out", str(sig_f), "--goal-out", str(goal_f)])
    main(["synthesize", "incra_halt", "--proof-out", str(proof_f)])
    return sig_f, goal_f, proof_f


def test_synthesize_then_check_accepts(incra_files, capsys):
    sig_f, goal_f, proof_f = incra_files
    capsys.readouterr()
    code = main(
        ["check", "--signature", str(sig_f), "--sequent", str(goal_f), "--proof", str(proof_f)]
    )
    assert code == 0
    out = lines(capsys)
    assert out[0] == "outcome: accepted"
    assert "proof-size: 25" in out


def test_check_rejects_and_reports_reason(tmp_path, capsys):
    (tmp_path / "s").write_text("labels: u inf\nunbounded: inf\norder: u <= inf\n")
    (tmp_path / "g").write_text("x\n~x\n")
    (tmp_path / "p").write_text("(decide 1 (finit 0))\n")
    code = main(
        ["check", "--signature", str(tmp_path / "s"), "--sequent", str(tmp_path / "g"),
         "--proof", str(tmp_path / "p")]
    )
    assert code == 1
    out = lines(capsys)
    assert out[0] == "outcome: rejected"
    assert "reason: focus-on-negative" in out
    assert "path: (root)" in out
    assert any(line.startswith("detail: ") for line in out)


def test_check_rejects_a_deeply_banged_goal_without_a_traceback(tmp_path, capsys):
    # the label scan of the goal walks 3000 nested bangs under the
    # default recursion limit; the certificate then fails at its leaf
    (tmp_path / "s").write_text(print_signature(encoding_signature()))
    (tmp_path / "g").write_text("|- " + "!inf " * 3000 + "x, ~x\n")
    (tmp_path / "p").write_text("(decide 0 (f1))\n")
    code = main(
        ["check", "--signature", str(tmp_path / "s"), "--sequent", str(tmp_path / "g"),
         "--proof", str(tmp_path / "p")]
    )
    assert code == 1
    out = lines(capsys)
    assert out[0] == "outcome: rejected"
    assert "reason: context-mismatch" in out
    assert "path: 0" in out


def test_check_names_the_first_undeclared_label_under_any_hash_seed(tmp_path):
    # the goal's labels are scanned left to right, not in set order
    (tmp_path / "s").write_text("labels: u\n")
    (tmp_path / "g").write_text("|- !p ?q x, ~x\n")
    (tmp_path / "p").write_text("(decide 0 (f1))\n")
    args = ["check", "--signature", "s", "--sequent", "g", "--proof", "p"]
    src = str(Path(selogic.__file__).resolve().parent.parent)
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        out = subprocess.run([sys.executable, "-m", "selogic", *args], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (
            2, "error: label 'p' is not declared in the signature\n"), seed


def test_check_unfocused_calculus(tmp_path, capsys):
    (tmp_path / "s").write_text("labels: u inf\nunbounded: inf\norder: u <= inf\n")
    (tmp_path / "g").write_text("x\n~x\n")
    (tmp_path / "p").write_text("(init 0 1)\n")
    code = main(
        ["check", "--signature", str(tmp_path / "s"), "--sequent", str(tmp_path / "g"),
         "--proof", str(tmp_path / "p"), "--calculus", "unfocused"]
    )
    assert code == 0
    assert "proof-size: 1" in lines(capsys)


def test_extract_recovers_trace(incra_files, capsys):
    _, _, proof_f = incra_files
    capsys.readouterr()
    assert main(["extract", "incra_halt", "--proof", str(proof_f)]) == 0
    out = lines(capsys)
    assert "steps: 2" in out
    assert "trace: incra halt" in out


def test_extract_writes_trace_file(incra_files, tmp_path, capsys):
    _, _, proof_f = incra_files
    target = tmp_path / "t.trace"
    capsys.readouterr()
    assert main(["extract", "incra_halt", "--proof", str(proof_f), "--trace-out", str(target)]) == 0
    assert target.read_text() == "incra\nhalt\n"
    assert f"trace-file: {target}" in lines(capsys)


def test_extract_rejects_foreign_proof(incra_files, capsys):
    _, _, proof_f = incra_files
    capsys.readouterr()
    assert main(["extract", "halt_only", "--proof", str(proof_f)]) == 1
    assert capsys.readouterr().err == "error: context-mismatch at 0: ftensor positions out of range\n"


def test_extract_reports_a_bad_udecide_position_as_the_checker_does(tmp_path, capsys):
    proof_f = tmp_path / "p.cert"
    proof_f.write_text("(udecide 999 (f1))\n")
    assert main(["extract", "halt_only", "--proof", str(proof_f)]) == 1
    assert capsys.readouterr().err == (
        "error: context-mismatch at root: position 999 out of range for context of 5\n"
    )


def test_extract_walks_the_certificate_once(tmp_path, capsys, walks):
    proof_f = tmp_path / "p.cert"
    main(["synthesize", "drain_a", "--proof-out", str(proof_f)])
    walks.clear()
    assert main(["extract", "drain_a", "--proof", str(proof_f)]) == 0
    assert len(walks) == 1


def test_synthesize_empty_trace_is_the_honest_negative(capsys):
    assert main(["synthesize", "already_halted"]) == 1
    out = lines(capsys)
    assert out[0] == "outcome: empty-trace"
    assert any(line.startswith("reason: ") for line in out)


def test_synthesize_stuck_machine_is_the_honest_negative(capsys):
    assert main(["synthesize", "stuck"]) == 1
    assert lines(capsys) == ["outcome: stuck"]


def test_roundtrip_out_of_fuel_is_the_honest_negative(capsys):
    assert main(["roundtrip", "loop", "--fuel", "5"]) == 1
    assert lines(capsys) == ["outcome: out-of-fuel"]


def test_unknown_machine_name_is_an_input_error(capsys):
    assert main(["simulate", "no_such_machine"]) == 2
    assert "no_such_machine" in capsys.readouterr().err


def test_bad_machine_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.2rm"
    bad.write_text("states q0\n")
    assert main(["simulate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_selftest_small_run(capsys):
    assert main(["selftest", "--count", "4", "--seed", "3"]) == 0
    out = lines(capsys)
    assert "sequents: 4" in out
    assert "machines: 7" in out
    assert "agreed: 7" in out
    assert out[-1] == "outcome: ok"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prove", "halt_only", "--max-decides", "-1"], "--max-decides: must be at least 0, got -1"),
        (["prove", "halt_only", "--max-nodes", "0"], "--max-nodes: must be at least 1, got 0"),
        (["simulate", "loop", "--fuel", "-5"], "--fuel: must be at least 0, got -5"),
        (["roundtrip", "incra_halt", "--fuel", "-1"], "--fuel: must be at least 0, got -1"),
        (["selftest", "--count", "-3"], "--count: must be at least 0, got -3"),
        (["selftest", "--count", "many"], "--count: not an integer: 'many'"),
    ],
)
def test_impossible_budgets_are_input_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: selogic ")
    assert captured.err.splitlines()[-1].endswith(f"error: argument {message}")
    assert "Traceback" not in captured.err


def test_smallest_budgets_are_accepted(capsys):
    assert main(["prove", "halt_only", "--max-decides", "0", "--max-nodes", "1"]) == 1
    assert "outcome: exhausted" in lines(capsys)
    assert main(["simulate", "loop", "--fuel", "0"]) == 1
    assert "steps: 0" in lines(capsys)
