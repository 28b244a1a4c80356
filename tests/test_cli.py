import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import schur_szego
from schur_szego import acceptance, cli, css, narayana, roots, spectra
from schur_szego.cli import ENVELOPE_SCHEMA, read_poly_file
from schur_szego.exactpoly import RationalPoly, TheoremViolation
from fractions import Fraction as F


def write_poly_file(path: str, poly: RationalPoly) -> None:
    """The polynomial file format that `read_poly_file` reads."""
    deg = 0 if poly.is_zero() else int(poly.degree)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{deg}\n")
        for i in range(deg + 1):
            fh.write(f"{poly.coeff(i)}\n")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_envelope(stdout: str) -> dict:
    env = json.loads(stdout)
    jsonschema.validate(env, ENVELOPE_SCHEMA)
    return env


def test_triangle_csv(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--rows", "5", "--csv")
    assert code == 0
    assert out.splitlines() == ["1", "1,1", "1,3,1", "1,6,6,1", "1,10,20,10,1"]


def test_triangle_json(capsys):
    code, out, _ = run_cli(capsys, "triangle", "--rows", "3", "--json")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["rows"] == [[1], [1, 1], [1, 3, 1]]


def test_narayana_checks(capsys):
    code, out, _ = run_cli(capsys, "narayana", "--n", "7", "--check-recurrence",
                           "--check-catalan", "--check-dyck")
    env = parse_envelope(out)
    assert code == 0
    assert env["status"] == "pass"
    assert env["payload"]["catalan"] == 429


def test_poly_file_round_trip(tmp_path):
    poly = RationalPoly([F(1, 3), F(-2), F(0), F(5, 7)])
    path = tmp_path / "p.poly"
    write_poly_file(str(path), poly)
    assert read_poly_file(str(path)) == poly
    lines = path.read_text().splitlines()
    assert lines[0] == "3"
    assert lines[1] == "1/3"


def test_css_compose(capsys, tmp_path):
    p = tmp_path / "p.poly"
    q = tmp_path / "q.poly"
    write_poly_file(str(p), RationalPoly([0, 1, 2, 1]))   # x(x+1)^2
    write_poly_file(str(q), RationalPoly([1, 2, 1]))      # (x+1)^2
    code, out, _ = run_cli(capsys, "css", "--compose", str(p), str(q), "--m", "3")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["coefficients"] == ["0", "2/3", "2/3"]


def test_css_phi(capsys):
    code, out, _ = run_cli(capsys, "css", "--phi", "3")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["linear"] == [["3/2", "-1/2"], ["0", "1"]]
    assert env["payload"]["offset"] == ["-1/2", "0"]


def test_css_usage_error(capsys):
    code, _, err = run_cli(capsys, "css")
    assert code == 2
    assert "need either" in err


def test_eigen(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--n", "6", "--j", "2")
    env = parse_envelope(out)
    assert code == 0
    assert env["status"] == "pass"
    assert env["payload"]["eigenvalues"][0] == "1"
    assert env["payload"]["eigenpolynomial"] == ["0", "1", "4", "6", "4", "1"]
    assert all(env["payload"]["structure_checks"].values())


def test_limits(capsys):
    code, out, _ = run_cli(capsys, "limits", "--j", "3", "--ns", "20,40,80")
    env = parse_envelope(out)
    assert code == 0
    assert env["status"] == "pass"
    assert env["payload"]["narayana_coefficients"] == [1, 3, 1]
    assert float(env["payload"]["max_deviation"]) <= 1e-2


def test_roots_modes(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "6")
    assert code == 0
    assert parse_envelope(out)["payload"]["hyperbolic"] is True
    code, out, _ = run_cli(capsys, "roots", "--n", "6", "--isolate")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["distinct_real_roots"] == 6
    code, out, _ = run_cli(capsys, "roots", "--n", "6", "--interlace")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["verdict"] == "strict-interlace"
    assert env["payload"]["gcd_is_x"] is True


def test_measure(capsys, tmp_path):
    out_path = tmp_path / "fig1.csv"
    code, out, _ = run_cli(capsys, "measure", "--n", "20", "--grid", "16",
                           "--out", str(out_path))
    env = parse_envelope(out)
    assert code == 0
    ks = float(env["payload"]["ks"])
    assert 0 < ks < 0.2
    assert env["payload"]["certificate"] == "sign-changes"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,empirical,theoretical"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    # 17 significant digits round-trip binary64 exactly
    for tok in lines[5].split(","):
        assert format(float(tok), ".17g") == tok
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0 and float(last[2]) == 1.0


def test_poincare_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--preset", "fibonacci",
                           "--tmax", "50")
    env = parse_envelope(out)
    assert code == 0
    assert abs(float(env["payload"]["limit"]) - (1 + math.sqrt(5)) / 2) < 1e-9


def test_poincare_narayana_no_limit(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--preset", "narayana",
                           "--x", "-1", "--tmax", "40")
    env = parse_envelope(out)
    assert code == 0
    assert env["payload"]["no_limit_claim"] is True
    assert "limit" not in env["payload"]


def test_poincare_negative_fraction_as_one_token(capsys):
    # "--x -1/2" reads -1/2 as an option; "--x=-1/2" passes it as the value.
    # Every rational x < 0 is exactly equimodular, so no limit is claimed.
    code, out, _ = run_cli(capsys, "poincare", "--preset", "narayana",
                           "--x=-1/2", "--tmax", "40")
    env = parse_envelope(out)
    assert code == 0
    assert env["parameters"]["x"] == "-1/2"
    assert env["payload"]["no_limit_claim"] is True


def test_poincare_narayana_x2(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--preset", "narayana",
                           "--x", "2", "--tmax", "60")
    env = parse_envelope(out)
    assert code == 0
    assert abs(float(env["payload"]["limit"]) - (3 + 2 * math.sqrt(2))) < 1e-3


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("roots", "--n", "0"),
    ("triangle", "--rows", "0"),
    ("narayana", "--n", "0"),
    ("narayana", "--n", "20", "--check-dyck"),
    ("limits", "--j", "3", "--ns", "10,20"),
    ("limits", "--j", "3", "--ns", "4,5,6"),
    ("limits", "--j", "3", "--tol", "-1"),
    ("eigen", "--n", "5", "--j", "0"),
    ("eigen", "--n", "5", "--j", "9"),
    ("eigen", "--n", "2"),
    ("css", "--phi", "2"),
    ("css", "--compose", "{tmp}/missing.poly", "{tmp}/cubic.poly", "--m", "3"),
    ("css", "--compose", "{tmp}/malformed.poly", "{tmp}/cubic.poly", "--m", "3"),
    ("css", "--compose", "{tmp}/cubic.poly", "{tmp}/cubic.poly", "--m", "2"),
    ("measure", "--n", "0", "--grid", "4", "--out", "{tmp}/fig1.csv"),
    ("measure", "--n", "3", "--grid", "0", "--out", "{tmp}/fig1.csv"),
    ("measure", "--n", "3", "--grid", "-2", "--out", "{tmp}/fig1.csv"),
    ("measure", "--n", "3", "--grid", "4", "--out", "{tmp}/missing/fig1.csv"),
    ("poincare", "--preset", "fibonacci", "--tmax", "1"),
    ("poincare", "--preset", "narayana", "--x", "abc"),
    ("verify-all", "--max-n", "1"),
    ("limits", "--j", "3", "--ns", "a,b,c"),
    ("limits", "--j", "1"),
    ("roots", "--n", "2", "--interlace"),
    ("poincare", "--preset", "narayana"),
    ("css", "--compose", "{tmp}/cubic.poly", "{tmp}/cubic.poly"),
    ("poincare", "--preset", "narayana", "--x", "0"),
    ("limits", "--j", "3", "--tol", "inf"),
])
def test_out_of_domain_input_exit_2(capsys, tmp_path, argv):
    write_poly_file(str(tmp_path / "cubic.poly"), RationalPoly([1, 3, 3, 1]))
    (tmp_path / "malformed.poly").write_text("1\n1/2\nx\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(argv[0] + ":")


def test_measure_opens_out_before_computing(capsys, tmp_path, monkeypatch):
    def must_not_run(n):
        raise AssertionError("root sample computed before --out was opened")

    monkeypatch.setattr(cli.asymptotics, "narayana_root_sample", must_not_run)
    code, out, err = run_cli(capsys, "measure", "--n", "300", "--grid", "4",
                             "--out", str(tmp_path / "missing" / "fig1.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("measure: cannot write --out")


def test_verify_all_smoke(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--max-n", "8")
    env = parse_envelope(out)
    assert code == 0
    assert env["status"] == "pass"
    assert len(env["payload"]["checks"]) == 10
    assert err.count("PASS") == 10


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(n):
        raise ValueError("internal bug")

    monkeypatch.setattr(narayana, "narayana_poly_direct", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["roots", "--n", "5"])
    assert capsys.readouterr().err == ""


def _limit_deviates(*args):
    raise TheoremViolation("M_3 deviates from N_3")


def _isolate_one_root_short(p, real=roots.isolate_roots):
    return real(p.exact_divide(RationalPoly.x()))


def _stirling_entry_perturbed(n, real=spectra._closed_form_b):
    b = real(n)
    b[1][3] += 1
    return b


def _nodes_merged(nodes, real=css._lagrange_basis):
    return real([nodes[1]] + nodes[1:])  # at n = 5 rows 1 and 2 share the node 3/2


def assert_falsified(code, out, err, command, falsified):
    env = parse_envelope(out)
    assert code == 1
    assert env["status"] == "fail"
    assert env["payload"]["falsified"] == falsified
    assert "witness" in env["payload"]
    assert not any(line.startswith(command + ":") for line in err.splitlines())


@pytest.mark.parametrize("argv, module, name, fake, falsified", [
    (("narayana", "--n", "7", "--check-recurrence"), narayana, "narayana_poly_recurrence",
     lambda n: narayana.narayana_poly_direct(n) + RationalPoly.x(), "recurrence-consistency"),
    (("narayana", "--n", "7", "--check-catalan"), narayana, "catalan",
     lambda n: 0, "catalan-row-sum"),
    (("narayana", "--n", "7", "--check-dyck"), narayana, "dyck_peak_count",
     lambda n, k: 0, "dyck-oracle"),
    (("eigen", "--n", "6"), spectra, "sigma_system_solve",
     lambda n, j: RationalPoly([1]), "sigma_route_matches_j1"),
    (("limits", "--j", "3"), spectra, "verify_mjnj", _limit_deviates, "limit-vs-narayana"),
    (("roots", "--n", "6"), roots, "is_hyperbolic", lambda p: False, "hyperbolicity"),
    (("roots", "--n", "6", "--isolate"), roots, "isolate_roots", _isolate_one_root_short,
     "hyperbolicity"),
    (("roots", "--n", "6", "--interlace"), roots, "interlace_check",
     lambda p, q: roots.FAIL, "interlacing"),
    # a certificate that raises inside the command
    (("eigen", "--n", "7"), spectra, "_closed_form_b", _stirling_entry_perturbed, "certificate"),
    (("css", "--phi", "5"), css, "_lagrange_basis", _nodes_merged, "certificate"),
])
def test_falsified_theorem_exit_1(capsys, monkeypatch, cold_spectrum_report, argv, module, name,
                                  fake, falsified):
    monkeypatch.setattr(module, name, fake)
    css.build_phi.cache_clear()
    code, out, err = run_cli(capsys, *argv)
    css.build_phi.cache_clear()
    assert_falsified(code, out, err, argv[0], falsified)
    if falsified == "certificate":  # the witness is the TheoremViolation's message
        assert json.loads(out)["payload"]["witness"] == {
            "eigen": "eigenvector 4 proposed by the closed-form B fails A v = lambda_(4,7) v",
            "css": "identities j = 0..n-2 do not determine sigma"}[argv[0]]


@pytest.mark.parametrize("argv, digest", [
    (("eigen", "--n", "10", "--j", "4"),
     "bc0562da01ad81c4c439d3272d1c78b6ef74513429d29c970dc526a025904676"),
    (("eigen", "--n", "21"), "70d29e685c6e7321658e42a4c999c85f440fe6ca02963266c9dac1c0c5d2d10a"),
    (("css", "--phi", "8"), "99f470abcf289f7d50326653ffc68d5a7b93c6b3fc1b824d9ea76a467bfe4f3c"),
    (("limits", "--j", "6"), "94de2caad5018a121145920d440ea84ab22d5e073de7723dcedb82e6e2342b69"),
    (("roots", "--n", "12", "--isolate"),
     "560f017450b416901bcf90847951f10c022151ab747360adaec1d6d9ab60b7d9"),
], ids=["eigen-n10-j4", "eigen-n21", "css-phi8", "limits-j6", "roots-n12-isolate"])
def test_pinned_stdout(capsys, argv, digest):
    # the exact bytes these commands print, so a rewrite of the routes behind them cannot move any
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_falsified_exit_1(capsys, monkeypatch):
    for attr, check in list(vars(acceptance).items()):
        if hasattr(check, "check_name"):
            outcome = (False, "Q_2 off") if check.check_name == "spectrum" else (True, "ok")
            monkeypatch.setattr(acceptance, attr,
                                acceptance._timed(check.check_name)(lambda *a, o=outcome: o))
    code, out, err = run_cli(capsys, "verify-all", "--max-n", "8")
    assert_falsified(code, out, err, "verify-all", "spectrum")
    env = json.loads(out)
    assert env["payload"]["witness"] == "Q_2 off"
    assert len(env["payload"]["checks"]) == 10
    assert err.count("PASS") == 9 and err.count("FAIL") == 1


def test_verify_all_bug_in_a_check_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(acceptance, "check_q_structure", acceptance._timed("q-structure")(broken))
    code, out, err = run_cli(capsys, "verify-all", "--max-n", "8")
    env = parse_envelope(out)
    assert code == 3
    assert env["status"] == "error"
    assert env["payload"]["errors"] == ["q-structure"]
    assert "falsified" not in env["payload"]
    check = env["payload"]["checks"]["q-structure"]
    assert (check["passed"], check["detail"]) == (False, "TypeError: unsupported operand")
    assert err.count("PASS") == 9 and err.count("ERROR") == 1 and "FAIL" not in err


def _cli_process(*argv, flags=(), unbuffered="1"):
    """`python [flags] -m schur_szego.cli argv` on this checkout's package."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(schur_szego.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen([sys.executable, *flags, "-m", "schur_szego.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv, read", [
    # the envelope print: the reader is gone before the command writes
    (("poincare", "--preset", "narayana", "--x=-1/2"), 0),
    # rows the command prints itself, about 1 MB: the reader takes a few bytes
    (("triangle", "--csv", "--rows", "200"), 8),
])
def test_closed_stdout_is_not_a_traceback(argv, read, unbuffered):
    proc = _cli_process(*argv, unbuffered=unbuffered)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_verify_all_under_python_O():
    """`python -O` strips assert statements; no check may go with them, and the
    Sturm route of root isolation (which `verify-all` does not reach) keeps its
    certificates."""
    proc = _cli_process("verify-all", "--max-n", "8", flags=("-O",))
    out, err = proc.communicate(timeout=120)
    env = parse_envelope(out.decode())
    assert proc.returncode == 0
    assert env["status"] == "pass"
    checks = env["payload"]["checks"].values()
    assert len(checks) == 10 and all(c["passed"] for c in checks)
    assert err.decode().count("PASS") == 10
    proc = _cli_process("roots", "--n", "12", "--isolate", flags=("-O",))
    out, _ = proc.communicate(timeout=120)
    env = parse_envelope(out.decode())
    assert proc.returncode == 0 and env["status"] == "pass"
    assert env["payload"]["multiplicities"] == [1] * 12
