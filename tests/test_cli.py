import json
import shlex
from pathlib import Path

import pytest
from mpmath import mp, mpf

from hyperzeta import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_zeta_json(capsys):
    code, out, err = run(
        capsys, ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "contour"
    assert record["value"]["re"].startswith("0.78321855390823734")


def test_eval_zeta_direct_method(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", "--method", "direct"],
    )
    assert code == 0
    assert json.loads(out)["method"] == "direct_sum"


def test_eval_complex_arguments(capsys):
    code, out, _ = run(
        capsys, ["eval", "zeta", "--s", "2.5-0.5j", "--w", "1+1j", "--omega", "1"]
    )
    assert code == 0
    assert json.loads(out)["target"] == "zeta"


def test_eval_p_plain_format(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "P", "--m", "1", "--k", "1", "--w", "1.5", "--omega", "1", "--format", "plain"],
    )
    assert code == 0
    assert out.startswith("P = 0.7510774842864115")


def test_eval_csv_format(capsys):
    code, out, _ = run(
        capsys,
        ["--format", "csv", "eval", "gamma-log", "--m", "1", "--k", "0", "--w", "1", "--omega", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value_re,value_im,err_estimate,method"
    assert lines[1].startswith("-0.91893853320467274")  # -log(2 pi)/2


def test_check_suite_passes(capsys):
    code, out, _ = run(capsys, ["check", "combinatorics"])
    assert code == 0
    records = json.loads(out)
    assert all(r["passed"] for r in records)


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["eval", "nonsense", "--w", "1"])
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["code"] == 2


def test_missing_s_is_domain_error(capsys):
    code, _, err = run(capsys, ["eval", "zeta", "--w", "1"])
    assert code == 3
    assert json.loads(err)["code"] == 3


def test_negative_w_exit_3(capsys):
    code, _, err = run(capsys, ["eval", "zeta", "--s", "2.5", "--w", "-1", "--omega", "1"])
    assert code == 3


def test_near_integer_s_exit_3(capsys):
    code, _, err = run(capsys, ["eval", "zeta", "--s", "2", "--w", "1", "--omega", "1"])
    assert code == 3
    assert "integer" in json.loads(err)["message"]


def test_lambda_out_of_range_exit_3(capsys):
    code, _, err = run(
        capsys,
        ["eval", "zeta", "--s", "2.5", "--w", "1", "--omega", "1", "--lambda", "50"],
    )
    assert code == 3


def test_lambda_override_matches_default(capsys):
    # 2 * lambda > 30 / Re(w), so the override also moves the ray's start
    argv = ["eval", "P", "--m", "1", "--k", "1", "--w", "20", "--omega", "1"]
    records = []
    for extra in (["--lambda", "2.5"], []):
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        records.append(json.loads(out))
    with mp.workprec(256):
        values = [mp.mpc(mpf(r["value"]["re"]), mpf(r["value"]["im"])) for r in records]
        errs = [mpf(r["err_estimate"]) for r in records]
        assert abs(values[0] - values[1]) <= errs[0] + errs[1]


def test_bad_grid_exit_3(capsys):
    code, _, err = run(capsys, ["asym", "--w-grid", "5,4,3,2"])
    assert code == 3


def test_nonpositive_grid_exit_3(capsys):
    # rejected with the experiment, before any integral runs
    code, _, err = run(capsys, ["asym", "--w-grid", "0,1,2,3"])
    assert code == 3
    assert "w_grid" in json.loads(err)["message"]


def test_asym_m0_through_w_1(capsys):
    # the m = 0 normaliser is finite where log w = 0
    code, out, _ = run(capsys, ["asym", "--m", "0", "--w-grid", "1,2,3,4"])
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_direct_unreachable_tol_exit_4(capsys):
    argv = ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", "--method", "direct"]
    code, out, err = run(capsys, argv + ["--tol", "1e-80"])
    assert code == 4
    assert out == ""
    assert json.loads(err)["code"] == 4


def test_asym_csv_columns(capsys):
    code, out, _ = run(capsys, ["asym", "--w-grid", "2,3,4,5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,lhs_re,lhs_im,rhs_re,rhs_im,err_abs,err_norm"
    assert len(lines) == 5
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_env_var_precision(capsys, monkeypatch):
    monkeypatch.setenv("HYPERZETA_PRECISION_BITS", "128")
    code, out, _ = run(capsys, ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1"])
    assert code == 0
    assert json.loads(out)["precision_bits"] == 128


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("HYPERZETA_PRECISION_BITS", "128")
    code, out, _ = run(
        capsys,
        ["--precision-bits", "192", "eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1"],
    )
    assert code == 0
    assert json.loads(out)["precision_bits"] == 192


def test_deterministic_output(capsys):
    argv = ["check", "qpoly", "--seed", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_parse_complex_forms():
    from mpmath import mp

    cases = {
        "1.5": mp.mpc(1.5),
        "-2": mp.mpc(-2),
        "1+2j": mp.mpc(1, 2),
        "0.5-0.25j": mp.mpc(0.5, -0.25),
        "2j": mp.mpc(0, 2),
        "-j": mp.mpc(0, -1),
        "1e-3+2.5e2j": mp.mpc(0.001, 250),
    }
    for text, want in cases.items():
        assert abs(cli.parse_complex(text) - want) < mp.mpf("1e-40")


def _readme_eval_commands():
    """The ``hyperzeta eval ...`` lines of the README's CLI block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("hyperzeta eval ")
    ]


README_EVALS = _readme_eval_commands()


def test_readme_has_eval_examples():
    assert len(README_EVALS) >= 4


@pytest.mark.parametrize(
    "argv", README_EVALS, ids=[f"{i}-{a[1]}" for i, a in enumerate(README_EVALS)]
)
def test_readme_eval_examples_run(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    record = json.loads(out)
    assert record["target"] == argv[1]
