"""Command line surface: reports, constructions, exit codes, JSON."""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homkit import solver
from homkit.cli import main
from homkit.dsl import parse
from homkit.errors import SoundnessError
from homkit.linalg import Matrix, Vector
from homkit.reporting import CheckReport, CheckResult, Witness

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = str(ROOT / "demos" / "fixtures.hla")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passing_algebra(capsys):
    code, out, _ = run(capsys, "check", FIXTURES, "A2leib")
    assert code == 0
    assert "PASS multiplicative:bracket" in out
    assert "PASS hom_leibniz" in out


def test_check_failing_algebra_exit_one(capsys):
    code, out, _ = run(capsys, "check", FIXTURES, "A2assoc")
    assert code == 1
    assert "FAIL multiplicative:dot" in out
    assert "PASS hom_associative" in out


def test_check_large_empty_algebra(tmp_path, capsys):
    # The checks walk the nonzero products only: an empty dim-300 table
    # is checked at once, not over its 27 million basis triples.
    dim = 300
    twist = "\n".join(f"    e{i} -> e{i}" for i in range(1, dim + 1))
    path = tmp_path / "empty.hla"
    path.write_text(f"algebra E {{\n  dim {dim}\n  kind leibniz\n"
                    f"  alpha {{\n{twist}\n  }}\n}}\n")
    code, out, _ = run(capsys, "check", str(path), "E")
    assert code == 0
    assert out == "PASS multiplicative:bracket\nPASS hom_leibniz\n"


def test_check_unknown_name_exit_two(capsys):
    code, _, err = run(capsys, "check", FIXTURES, "nope")
    assert code == 2
    assert "nope" in err


def test_check_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no_such_file.hla", "A2leib")
    assert code == 2


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.hla"
    bad.write_text("algebra X { dim 2 kind leibniz bracket { [e1,e9] = e1 } }\n")
    code, _, err = run(capsys, "check", str(bad), "X")
    assert code == 2
    assert "line 1" in err


def test_huge_dim_is_a_parse_error(tmp_path, capsys):
    huge = "99999999999999999999"
    for text, where in (
            (f"algebra A {{ dim {huge} kind assoc }}\n", "line 1, column 17"),
            (f"algebra A {{ dim 1 kind assoc }}\n"
             f"representation R on A {{\n  dim {huge}\n}}\n", "line 3, column 7")):
        bad = tmp_path / "huge.hla"
        bad.write_text(text)
        code, _, err = run(capsys, "check", str(bad), "A")
        assert code == 2
        assert where in err and "too large" in err


def test_dim_too_large_to_allocate_is_a_parse_error(tmp_path, capsys):
    # A dim of 10**15 fails its first allocation at once: no memory is taken.
    huge = 10**15
    for text, where in (
            (f"algebra A {{ dim {huge} kind assoc }}\n", "line 1, column 17"),
            (f"algebra A {{ dim 1 kind assoc }}\n"
             f"representation R on A {{\n  dim {huge}\n}}\n", "line 3, column 7")):
        bad = tmp_path / "huge.hla"
        bad.write_text(text)
        code, out, err = run(capsys, "check", str(bad), "A")
        assert (code, out) == (2, "")
        assert err == f"error: {where}: dimension {huge} is too large to allocate\n"


def test_check_rep(capsys):
    code, out, _ = run(capsys, "check-rep", FIXTURES, "A2leib", "reg")
    assert code == 0
    assert "PASS left_bracket_composition" in out


def test_solve_rbo_assoc(capsys):
    code, out, _ = run(capsys, "solve-rbo", FIXTURES, "A2assoc")
    assert code == 0
    assert out.strip() == "finite: { T = 0 }"


def test_solve_rbo_leibniz_family(capsys):
    code, out, _ = run(capsys, "solve-rbo", FIXTURES, "A2leib")
    assert code == 0
    assert "family: t12 free" in out
    assert "T(e2) = t12 e1 + 2 t12 e2" in out


def test_solve_rbo_poisson(capsys):
    code, out, _ = run(capsys, "solve-rbo", FIXTURES, "A2poisson")
    assert code == 0
    assert out.strip() == "finite: { T = 0 }"


def test_solve_rbo_explicit_rep(capsys):
    code, out, _ = run(capsys, "solve-rbo", FIXTURES, "A2leib", "--rep", "reg")
    assert code == 0
    assert "family" in out


def test_solve_rbo_json(capsys):
    code, out, _ = run(capsys, "solve-rbo", FIXTURES, "A2leib",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "affine_family"
    assert data["family"]["params"] == ["t12"]
    assert data["family"]["basis"] == [[["0", "1"], ["0", "2"]]]


def test_check_json_matches_text_verdicts(capsys):
    code_t, out_t, _ = run(capsys, "check", FIXTURES, "A2assoc")
    code_j, out_j, _ = run(capsys, "check", FIXTURES, "A2assoc",
                           "--format", "json")
    assert code_t == code_j == 1
    data = json.loads(out_j)
    text_verdicts = [line.split()[0] == "PASS" for line in out_t.splitlines()]
    assert [d["pass"] for d in data] == text_verdicts
    failing = [d for d in data if not d["pass"]]
    assert failing[0]["witness"]["indices"] == [2, 2]


def test_semidirect_output_parses(capsys):
    code, out, _ = run(capsys, "semidirect", FIXTURES, "A2leib", "reg",
                       "--as", "sd")
    assert code == 0
    doc = parse(out)
    assert doc.algebra("sd").dim == 4


def test_semidirect_verify_comments(capsys):
    code, out, _ = run(capsys, "semidirect", FIXTURES, "A2leib", "reg",
                       "--verify")
    assert code == 0
    assert "# PASS hom_leibniz" in out
    # Comment lines keep the output parseable.
    assert parse(out).algebra("result").dim == 4


def test_twist_command(capsys):
    code, out, _ = run(capsys, "twist", FIXTURES, "A2leib", "--by", "beta",
                       "--verify")
    assert code == 0
    alg = parse(out).algebra("result")
    assert alg.bracket.basis_product(0, 1).entries[0] == -1


def test_twist_rejects_non_morphism(tmp_path, capsys):
    src = Path(FIXTURES).read_text() + (
        "\nmap badmap : A2leib -> A2leib {\n  e1 -> e1 + e2\n}\n")
    f = tmp_path / "with_bad.hla"
    f.write_text(src)
    code, _, err = run(capsys, "twist", str(f), "A2leib", "--by", "badmap")
    assert code == 2
    assert "self-morphism" in err


def test_deform_identity_map(tmp_path, capsys):
    src = Path(FIXTURES).read_text() + (
        "\nmap idmap : A2leib -> A2leib {\n  e1 -> e1\n  e2 -> e2\n}\n")
    f = tmp_path / "with_id.hla"
    f.write_text(src)
    code, out, _ = run(capsys, "deform", str(f), "A2leib",
                       "--nijenhuis", "idmap", "--verify")
    assert code == 0
    doc_out = parse(out)
    from homkit.fixtures import two_dim_leibniz
    assert doc_out.algebra("result") == two_dim_leibniz()


def test_induce_family_member(capsys):
    code, out, _ = run(capsys, "induce", FIXTURES, "A2leib", "--t", "T",
                       "--verify", "--as", "induced")
    assert code == 0
    alg = parse(out).algebra("induced")
    # [e1,e2]_T = rho_r(T e2) e1 = [e1, e1 + 2 e2] = 2 e1.
    assert alg.bracket.basis_product(0, 1).entries[0] == 2


def test_induce_rejects_non_operator(tmp_path, capsys):
    src = Path(FIXTURES).read_text() + (
        "\nmap notrbo : A2leib -> A2leib {\n  e1 -> e1\n}\n")
    f = tmp_path / "with_bad_t.hla"
    f.write_text(src)
    code, _, err = run(capsys, "induce", str(f), "A2leib", "--t", "notrbo")
    assert code == 2
    assert "Rota-Baxter" in err


@pytest.mark.parametrize("argv, err", [
    (("twist", "A2assoc", "--by", "beta"), "map 'beta' is on 'A2leib', not 'A2assoc'"),
    (("twist", "A2leib", "--by", "fromassoc"), "map 'fromassoc' is from 'A2assoc', not 'A2leib'"),
    (("twist", "A2leib", "--by", "intoassoc"), "map 'intoassoc' is into 'A2assoc', not 'A2leib'"),
    (("deform", "A2assoc", "--nijenhuis", "beta"), "map 'beta' is on 'A2leib', not 'A2assoc'"),
    (("induce", "A2assoc", "--t", "T"), "map 'T' is on 'A2leib', not 'A2assoc'"),
    (("induce", "A2leib", "--t", "fromassoc"), "map 'fromassoc' is from 'A2assoc', not 'A2leib'"),
    (("induce", "A2leib", "--t", "intoassoc", "--rep", "reg"),
     "map 'intoassoc' is into 'A2assoc', not 'A2leib'"),
])
def test_a_map_on_another_algebra_is_bad_input(tmp_path, capsys, argv, err):
    """twist and deform take a map declared ALG -> ALG; induce one into ALG,
    and out of it too for the regular representation."""
    f = tmp_path / "maps.hla"
    f.write_text(Path(FIXTURES).read_text() + (
        "\nmap fromassoc : A2assoc -> A2leib {\n  e2 -> e1 + 2 e2\n}\n"
        "\nmap intoassoc : A2leib -> A2assoc {\n  e1 -> e1\n  e2 -> e2\n}\n"))
    command, *rest = argv
    assert run(capsys, command, str(f), *rest) == (2, "", f"error: {err}\n")


def test_induce_with_a_named_representation_needs_only_the_target(tmp_path, capsys):
    # The operator T of the fixtures, declared out of another algebra of its carrier's dim.
    f = tmp_path / "maps.hla"
    f.write_text(Path(FIXTURES).read_text()
                 + "\nmap Tassoc : A2assoc -> A2leib {\n  e2 -> e1 + 2 e2\n}\n")
    assert (run(capsys, "induce", str(f), "A2leib", "--t", "Tassoc", "--rep", "reg")
            == run(capsys, "induce", FIXTURES, "A2leib", "--t", "T", "--rep", "reg"))


def test_matched_sum_command(tmp_path, capsys):
    # Degenerate matched pair: abelian second factor acting by zero.
    src = Path(FIXTURES).read_text() + """
algebra Abelian {
  dim 2
  kind leibniz
  alpha {
    e1 -> -e1
    e2 -> e1 + e2
  }
}

representation back on Abelian {
  dim 2
  phi {
    f1 -> -f1
    f2 -> f1 + f2
  }
}
"""
    f = tmp_path / "pair.hla"
    f.write_text(src)
    code, out, _ = run(capsys, "matched-sum", str(f), "A2leib", "Abelian",
                       "reg", "back", "--verify")
    assert code == 0
    alg = parse(out).algebra("result")
    assert alg.dim == 4


def test_exit_codes_deterministic(capsys):
    first = run(capsys, "check", FIXTURES, "A2poisson")
    second = run(capsys, "check", FIXTURES, "A2poisson")
    assert first == second
    assert first[0] == 1  # the audit failures are stable


def test_check_rep_wrong_base_exit_two(capsys):
    code, _, err = run(capsys, "check-rep", FIXTURES, "A2assoc", "reg")
    assert code == 2
    assert "A2leib" in err


def test_internal_error_is_exit_three(monkeypatch, capsys):
    def broken(alg, rep):
        raise SoundnessError("family verification failed on: t11 = 0")
    monkeypatch.setattr(solver, "solve_relative_rbo", broken)
    code, out, err = run(capsys, "solve-rbo", FIXTURES, "A2leib")
    assert code == 3
    assert out == ""
    assert err == ("internal error: SoundnessError: "
                   "family verification failed on: t11 = 0\n")


def test_a_solution_failing_its_recheck_is_exit_three(monkeypatch, capsys):
    # The solver's answer is checked again before anything is printed.
    failing = CheckReport((CheckResult("splits:bracket", False,
                                       Witness((0, 1), Vector([1, 0]))),))
    monkeypatch.setattr(solver, "check_relative_rbo", lambda ctx: failing)
    code, out, err = run(capsys, "solve-rbo", FIXTURES, "A2leib")
    assert (code, out) == (3, "")
    assert err == ("internal error: SoundnessError: family_sample[0] = Matrix([[Fraction(0, 1), "
                   "Fraction(1, 1)], [Fraction(0, 1), Fraction(2, 1)]]) fails: "
                   "FAIL splits:bracket at (1, 2): residual = e1\n")


def test_internal_error_is_not_an_input_error(monkeypatch, capsys):
    def broken(alg, rep):
        raise ZeroDivisionError("division by zero")
    monkeypatch.setattr(solver, "solve_relative_rbo", broken)
    code, _, err = run(capsys, "solve-rbo", FIXTURES, "A2leib", "--format", "json")
    assert code == 3
    assert err.splitlines() == ["internal error: ZeroDivisionError: division by zero"]


def test_unknown_names_are_input_errors(capsys):
    for args, message in (
            (("check-rep", FIXTURES, "nope", "R"), "no algebra named 'nope'"),
            (("check-rep", FIXTURES, "A2leib", "nope"), "no representation named 'nope'"),
            (("twist", FIXTURES, "A2leib", "--by", "nope"), "no map named 'nope'")):
        assert run(capsys, *args) == (2, "", f"error: {message}\n")


def test_lookup_and_value_faults_inside_homkit_are_exit_three(monkeypatch, capsys):
    # Only a missing name in the input is an input error; a KeyError or a
    # ValueError raised by homkit itself is a fault.
    for fault in (KeyError("v7"), ValueError("square root of a negative rational")):
        def broken(alg, rep, fault=fault):
            raise fault
        monkeypatch.setattr(solver, "solve_relative_rbo", broken)
        code, out, err = run(capsys, "solve-rbo", FIXTURES, "A2leib")
        assert (code, out) == (3, "")
        assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.hla"
    bad.write_bytes(b"\xff\xfe algebra")
    code, out, err = run(capsys, "check", str(bad), "A")
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_every_bad_input_message_starts_with_error(monkeypatch, capsys):
    import homkit.cli as cli
    for args, message in (
            (("check", FIXTURES, "nope"), "no algebra or representation named 'nope'"),
            (("check", FIXTURES, "beta"), "no algebra or representation named 'beta'"),
            (("check-rep", FIXTURES, "A2assoc", "reg"),
             "representation 'reg' is on 'A2leib', not 'A2assoc'"),
            (("solve-rbo", FIXTURES, "A2assoc", "--rep", "reg"),
             "representation 'reg' is on 'A2leib', not 'A2assoc'"),
            (("twist", FIXTURES, "A2leib", "--by", "beta", "--as", "1bad"),
             "invalid object name '1bad'"),
            (("semidirect", FIXTURES, "A2leib", "reg", "--as", "a-b", "--format", "json"),
             "invalid object name 'a-b'")):
        assert run(capsys, *args) == (2, "", f"error: {message}\n")
    # The name is refused before ``--verify`` checks the output.
    checked = []
    monkeypatch.setattr(cli, "check_algebra", lambda alg: checked.append(alg))
    assert run(capsys, "twist", FIXTURES, "A2leib", "--by", "beta", "--verify",
               "--as", "no good") == (2, "", "error: invalid object name 'no good'\n")
    assert checked == []


def test_family_text_uses_the_lincomb_sign_and_unit_rules(monkeypatch, capsys):
    # Constant, unit, negative and mixed entries, one column per case.
    family = solver.AffineFamily(
        Matrix([[1, -1, 0], [0, 0, -1]]),
        (Matrix([[0, 0, 0], [Fraction(-3, 5), 1, 0]]),
         Matrix([[0, 1, 0], [0, -1, 0]])),
        ("t11", "t21"))
    monkeypatch.setattr(solver, "solve_relative_rbo",
                        lambda alg, rep: solver.SolutionSet("affine_family", family=family))
    assert run(capsys, "solve-rbo", FIXTURES, "A2leib") == (0, (
        "family: t11, t21 free; T(e1) = e1 - 3/5 t11 e2; "
        "T(e2) = (-1 + t21) e1 + (t11 - t21) e2; T(e3) = -e2\n"), "")


def run_process(*args, stdout, buffered) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "homkit.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)


# With a buffered stdout the unwritten bytes outlive the failed write, and
# the interpreter's own flush at exit must not report them a second time.
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_device_is_an_internal_error_not_bad_input(buffered):
    with open("/dev/full", "w") as full:
        proc = run_process("check", FIXTURES, "A2leib", stdout=full, buffered=buffered)
    assert proc.returncode == 3
    assert proc.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_pipe_is_an_internal_error_not_bad_input(buffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_process("solve-rbo", FIXTURES, "A2leib", "--format", "json",
                           stdout=write, buffered=buffered)
    finally:
        os.close(write)
    assert proc.returncode == 3
    assert proc.stderr == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_an_unreadable_file_is_still_bad_input(tmp_path, capsys):
    assert run(capsys, "check", str(tmp_path), "A") == (
        2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_the_console_script_target_imports_and_runs(monkeypatch, capsys):
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    (target,) = re.findall(r'^homkit = "(.+)"$', scripts, re.M)
    module, attr = target.split(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["homkit", "check", FIXTURES, "A2assoc"])
    assert entry() == 1
    assert "FAIL multiplicative:dot" in capsys.readouterr().out
