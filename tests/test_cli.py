import argparse
import json
import shlex
import time
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

from hyperzeta import DEFAULT_POLICY, OmegaVector, checks, cli, log_hyper_gamma


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


def test_eval_prints_the_digits_its_estimate_resolves(capsys):
    # at 1e-70 the estimate is near 1e-74, finer than the 58 digits of 192
    # bits: the printed value, with as many digits as the estimate resolves,
    # lies within that estimate of the reference at the w the CLI parses
    code, out, _ = run(
        capsys, ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", "--tol", "1e-70"]
    )
    assert code == 0
    record = json.loads(out)
    with mp.workprec(192):
        w = mpf("1.3")
    with mp.workprec(500):
        err = mpf(record["err_estimate"])
        assert err < mpf("1e-70")
        assert abs(mpf(record["value"]["re"]) - mp.zeta(mpf("2.5"), w)) <= err


def test_eval_complex_arguments(capsys):
    code, out, _ = run(
        capsys, ["eval", "zeta", "--s", "2.5-0.5j", "--w", "1+1j", "--omega", "1"]
    )
    assert code == 0
    assert json.loads(out)["target"] == "zeta"


def test_eval_complex_periods(capsys):
    # --omega reads each field as --w is read, so a complex period reaches
    # the library: the printed value is log_hyper_gamma's at the same policy
    # and the same parse, within the estimate it prints
    argv = ["eval", "gamma-log", "--m", "2", "--k", "0", "--w", "0.5", "--omega", "1,0.9+0.3j"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    record = json.loads(out)
    with DEFAULT_POLICY.context():
        omega = OmegaVector.of(1, cli.parse_complex("0.9+0.3j"))
        res = log_hyper_gamma(2, 0, mpf("0.5"), omega, DEFAULT_POLICY)
    assert isinstance(omega.omegas[1], mp.mpc) and res.value.imag
    with mp.workprec(400):
        printed = mp.mpc(record["value"]["re"], record["value"]["im"])
        assert abs(printed - res.value) <= mpf(record["err_estimate"])
        assert mpf(record["err_estimate"]) == mpf(mp.nstr(res.err_estimate, 3))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1j"],
        ["eval", "P", "--w", "1.3", "--omega", "1,-0.5+2j"],
        ["asym", "--alpha", "1j"],
    ],
    ids=["omega", "omega-second", "alpha"],
)
def test_period_off_the_right_half_plane_exit_3(capsys, argv):
    # a complex period parses, and one with Re <= 0 is a domain error
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "positive real part" in json.loads(err)["message"]


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


@pytest.mark.parametrize("suite", checks.SUITES)
def test_check_suite_passes(capsys, suite):
    code, out, _ = run(capsys, ["check", suite])
    assert code == 0
    records = json.loads(out)
    assert all(r["passed"] for r in records)


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["eval", "nonsense", "--w", "1"])
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["code"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "inf", "--w", "1.3"],
        ["eval", "zeta", "--s", "2.5", "--w", "inf", "--method", "direct"],
        ["eval", "gamma-log", "--w", "1.3", "--omega", "inf"],
        ["asym", "--w-grid", "10,20,40,inf"],
    ],
    ids=["s", "w-direct", "omega", "w-grid"],
)
def test_non_finite_number_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "inf" in record["message"]


@pytest.mark.parametrize("number", ["1 2", "1e 3", "1+2 j"])
def test_whitespace_inside_a_number_exit_2(capsys, number):
    # deleting every space read "1 2" as 12 and "1e 3" as 1000; whitespace
    # may stand only at the ends and around the sign before the imaginary part
    code, out, err = run(capsys, ["eval", "zeta", "--s", "2.5", "--w", number, "--omega", "1"])
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "whitespace" in record["message"]


@pytest.mark.parametrize(
    "flag, number",
    [("--w", "1_3"), ("--s", "2_5"), ("--omega", "1_0"), ("--omega", "1,0_7"),
     ("--lambda", "0_1"), ("--tol", "1e-2_2")],
    ids=["w", "s", "omega", "omega-second", "lambda", "tol"],
)
def test_digit_separator_exit_2(capsys, flag, number):
    # float and mpf read "1_3" as 13: --w 1_3 evaluated at w = 13 (parse_complex),
    # --omega 1_0 at omega = 10 (parse_real_tuple), --lambda 0_1 at 1 (_finite_float)
    argv = ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", flag, number]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "digit separator" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "gamma-log", "--m", "1", "--k", "1_0", "--w", "1.5", "--omega", "1"],
        ["eval", "P", "--m", "1_0", "--w", "1.5"],
        ["asym", "--m", "1_0", "--w-grid", "10,20"],
        ["asym", "--k", "0_1", "--w-grid", "10,20"],
        ["check", "combinatorics", "--seed", "0_1"],
        ["--precision-bits", "1_92", "eval", "zeta", "--s", "2.5", "--w", "1.3"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--precision-bits", "1_92"],
    ],
    ids=["eval-k", "eval-m", "asym-m", "asym-k", "seed", "bits-top", "bits-sub"],
)
def test_integer_digit_separator_exit_2(capsys, argv):
    # int reads "1_0" as 10: --k 1_0 evaluated at k = 10, and --seed 0_1 ran
    # seed 1; every integer flag takes the one parser _integer
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "digit separator" in record["message"]


def test_digit_separator_parsers():
    for parse in (cli.parse_complex, cli.parse_real_tuple, cli._finite_float, cli._integer):
        with pytest.raises((ValueError, argparse.ArgumentTypeError), match="digit separator"):
            parse("1_3")
    with pytest.raises(ValueError, match="digit separator"):
        cli.parse_complex("1+2_0j")
    with pytest.raises(ValueError, match="digit separator"):
        cli.parse_real_tuple("1, 1_3")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1,,2"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1,"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", ",1"],
        ["eval", "P", "--w", "1.3", "--omega", "1, ,2"],
        ["asym", "--m", "1", "--k", "0", "--w-grid", "10,,20,40,80"],
        ["asym", "--alpha", "1,"],
    ],
    ids=["between", "after", "before", "blank", "w-grid", "alpha"],
)
def test_empty_list_field_exit_2(capsys, argv):
    # an empty field was dropped: --omega 1,,2 ran at omega = (1, 2), --omega 1,
    # at (1,) and --w-grid 10,,20,40,80 at four points
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "empty field" in record["message"]


def test_real_tuple_fields():
    # the whole empty string is the empty tuple; any other empty field is an error
    assert cli.parse_real_tuple("") == () == cli.parse_real_tuple("  ")
    assert cli.parse_real_tuple(" 1 , 0.7 ") == (1, mpf("0.7"))
    for text in ("1,,2", "1,", ",1", "1, ,2", ","):
        with pytest.raises(ValueError, match="empty field"):
            cli.parse_real_tuple(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--tol", "inf"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--tol", "inf", "--method", "direct"],
        ["--tol", "nan", "check", "combinatorics"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--lambda", "inf"],
        ["eval", "P", "--w", "1.3", "--lambda", "nan"],
    ],
    ids=["tol-contour", "tol-direct", "tol-nan", "lambda-inf", "lambda-nan"],
)
def test_non_finite_flag_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "non-finite number" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", "--tol", "1e-400"],
        ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--tol=-1e-400", "--method", "direct"],
        ["--tol", "1E-999", "check", "combinatorics"],
        ["eval", "P", "--w", "1.3", "--lambda", "1e-400"],
    ],
    ids=["tol-contour", "tol-negative-direct", "tol-check", "lambda"],
)
def test_underflowing_flag_exit_2(capsys, argv):
    # float("1e-400") is 0.0: the tolerance was read as 0 (exit 3, "must be
    # positive") and the radius as 0; a literal 0 still reaches the policy
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2 and "underflows a float" in record["message"]


def test_underflow_parser():
    with pytest.raises(argparse.ArgumentTypeError, match="underflows a float"):
        cli._finite_float(" 1e-400 ")
    assert cli._finite_float("5e-324") > 0
    for zero in ("0", "-0.0", "0e-400", "0.000"):
        assert cli._finite_float(zero) == 0


def test_huge_s_is_near_integer_exit_3(capsys):
    # finite s beyond the float range: the near-integer test stays in mpmath
    code, out, err = run(capsys, ["eval", "zeta", "--s", "1e400", "--w", "1.3"])
    assert code == 3
    assert out == ""
    assert "integer" in json.loads(err)["message"]

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


@pytest.mark.parametrize(
    "target",
    [
        ["zeta", "--s", "2.5"],
        ["zeta", "--s", "2.5", "--method", "direct"],
        ["P", "--m", "1", "--k", "1"],
        ["gamma-log", "--m", "1", "--k", "1"],
    ],
    ids=["zeta", "zeta-direct", "P", "gamma-log"],
)
def test_lambda_out_of_range_exit_3(capsys, target):
    # the direct sum takes no lambda, but an out-of-range one is still refused
    code, _, _ = run(capsys, ["eval", *target, "--w", "1", "--omega", "1", "--lambda", "50"])
    assert code == 3


@pytest.mark.parametrize(
    "target, method",
    [("P", "direct"), ("gamma-log", "direct"), ("gamma-log", "combination"), ("zeta", "combination")],
    ids=["P-direct", "gamma-log-direct", "gamma-log-combination", "zeta-combination"],
)
def test_method_the_target_lacks_exit_3(capsys, target, method):
    # zeta takes contour or direct, P contour or combination, gamma-log
    # contour; any other pair is refused, not run by the contour, and the
    # method is checked before the flags it would not read
    argv = ["eval", target, "--s", "2.5", "--m", "1", "--k", "1", "--w", "1.5", "--method", method]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 3 and record["parameter"] == "method"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["zeta", "--s", "2.5", "--w", "1.3", "--m", "3", "--k", "7"], "m"),
        (["P", "--s", "9", "--w", "1.5"], "s"),
        (["gamma-log", "--s", "9", "--w", "1.5"], "s"),
        (["zeta", "--s", "2.5", "--w", "1.3", "--method", "direct", "--lambda", "0.5"], "lambda"),
    ],
    ids=["zeta-m-k", "P-s", "gamma-log-s", "zeta-direct-lambda"],
)
def test_flag_the_target_does_not_read_exit_3(capsys, argv, flag):
    # a flag that the target and method would ignore is refused, not dropped
    code, out, err = run(capsys, ["eval", *argv])
    assert code == 3
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 3 and record["parameter"] == flag
    assert f"--{flag}" in record["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "combinatorics", "--lambda", "0.01"], "lambda"),
        (["--lambda", "0.01", "check", "combinatorics"], "lambda"),
        (["asym", "--w-grid", "10,20,40,80", "--lambda", "0.01", "--seed", "4"], "lambda"),
        (["eval", "zeta", "--s", "2.5", "--w", "1.3", "--seed", "5"], "seed"),
    ],
    ids=["check-lambda", "check-lambda-first", "asym-lambda-seed", "eval-seed"],
)
def test_global_flag_the_command_does_not_read_exit_3(capsys, argv, flag):
    # a global flag is refused, not dropped, by a command whose route does
    # not read it, given before or after the subcommand
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 3 and record["parameter"] == flag
    assert f"--{flag}" in record["message"]


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


def test_unstable_fit_exit_5(capsys):
    # at a = 1/2 the 1/w coefficient is exactly 0, so the fit's relative
    # stability test cannot pass
    code, out, err = run(capsys, ["asym", "--m", "1", "--k", "0", "--fit"])
    assert code == 5
    assert out == ""
    assert json.loads(err)["code"] == 5


def test_direct_unreachable_tol_exit_4(capsys):
    argv = ["eval", "zeta", "--s", "2.5", "--w", "1.3", "--omega", "1", "--method", "direct"]
    code, out, err = run(capsys, argv + ["--tol", "1e-80"])
    assert code == 4
    assert out == ""
    assert json.loads(err)["code"] == 4


@pytest.mark.parametrize("s", ["1e30", "2.5+1e30j"])
def test_direct_huge_s_exit_4(capsys, s):
    # the head would need about |s| lattice points: refused before any is summed
    argv = ["eval", "zeta", "--method", "direct", "--s", s, "--w", "1"]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert code == 4
    assert out == ""
    assert "lattice points" in json.loads(err)["message"]


@pytest.mark.parametrize("tol", ["1e-100", "1e-300"])
def test_contour_unreachable_tol_exit_4(capsys, tol):
    # refused up front, not after every doubling level
    argv = ["eval", "gamma-log", "--m", "1", "--k", "0", "--w", "1.3", "--omega", "1"]
    code, out, err = run(capsys, argv + ["--tol", tol])
    assert code == 4
    assert out == ""
    assert "below the working precision" in json.loads(err)["message"]


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


@pytest.mark.parametrize("env", ["abc", "1.5e2", "192 bits", "1_92"])
def test_env_var_not_an_integer_exit_2(capsys, monkeypatch, env):
    # exit 2, as --precision-bits abc gives, with a message and a parameter
    # that name the variable
    monkeypatch.setenv("HYPERZETA_PRECISION_BITS", env)
    code, out, err = run(capsys, ["eval", "zeta", "--s", "2.5", "--w", "1.3"])
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["code"] == 2
    assert record["parameter"] == "HYPERZETA_PRECISION_BITS"
    assert "HYPERZETA_PRECISION_BITS" in record["message"] and repr(env) in record["message"]


@pytest.mark.parametrize(
    "flags, env",
    [
        (["--precision-bits", "32"], None),
        ([], "32"),
        (["--tol", "0"], None),
        # argparse reads a bare "-1e-3" as a flag, so the value is attached
        (["--tol=-1e-3"], None),
    ],
    ids=["bits-flag", "bits-env", "tol-zero", "tol-negative"],
)
def test_invalid_policy_exit_3(capsys, monkeypatch, flags, env):
    # the policy checks itself; the CLI reports its InvalidParameter
    if env is not None:
        monkeypatch.setenv("HYPERZETA_PRECISION_BITS", env)
    code, out, err = run(capsys, flags + ["eval", "zeta", "--s", "2.5", "--w", "1.3"])
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["code"] == 3


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
        # the bare unit, a sign-only imaginary part after a real one, a
        # leading sign, and an exponent sign inside the imaginary part
        "j": mp.mpc(0, 1),
        "1+j": mp.mpc(1, 1),
        "+2j": mp.mpc(0, 2),
        "1-2e-3j": mp.mpc("1", "-2e-3"),
        "2e-3j": mp.mpc("0", "2e-3"),
        # whitespace at the ends and around the sign between the parts
        " 1 + 2j ": mp.mpc(1, 2),
        "0.5 -0.25j": mp.mpc(0.5, -0.25),
        "1e-3 - j": mp.mpc(0.001, -1),
    }
    for text, want in cases.items():
        assert abs(cli.parse_complex(text) - want) < mp.mpf("1e-40")


def _readme_commands():
    """The ``hyperzeta ...`` commands of the README's CLI block, continued
    lines joined, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("hyperzeta ")]


README_COMMANDS = _readme_commands()
README_EVALS = [argv for argv in README_COMMANDS if argv[0] == "eval"]


def _readme_command(*prefix):
    (argv,) = [argv for argv in README_COMMANDS if tuple(argv[: len(prefix)]) == prefix]
    return argv


# the runs whose stdout tests/cli_golden.json holds (tests/make_cli_golden.py)
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
# every eval route (the README's four and P on the contour) in csv and plain,
# check qpoly in json and csv, and the README asym line in json: with the
# README runs, every command in every format
_P_CONTOUR = ["eval", "P", "--m", "2", "--k", "1", "--w", "1.5", "--omega", "1,1.3"]
FORMAT_ARGVS = (
    [argv + ["--format", fmt] for argv in README_EVALS + [_P_CONTOUR] for fmt in ("csv", "plain")]
    + [["check", "qpoly", "--format", fmt] for fmt in ("json", "csv")]
    + [_readme_command("asym") + ["--format", "json"]]
)
GOLDEN_ARGVS = README_COMMANDS + [_readme_command("asym") + ["--format", "plain"]] + FORMAT_ARGVS


def golden_mpmath():
    """The mpmath version and backend, which the printed digits depend on."""
    return {"version": mpmath.__version__, "backend": mpmath.libmp.BACKEND}


def _assert_golden(argv, out):
    """out is the golden stdout of argv, byte for byte; skipped where this
    mpmath is not the one that printed the golden file."""
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["mpmath"] != golden_mpmath():
        pytest.skip(f"{GOLDEN_PATH.name} was printed by mpmath {golden['mpmath']}, "
                    f"not {golden_mpmath()}, so its last digits may differ")
    assert out == golden["stdout"][shlex.join(argv)]


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
    _assert_golden(argv, out)


def test_readme_check_all_passes(capsys):
    code, out, err = run(capsys, _readme_command("check", "all"))
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "22/22 checks passed"
    _assert_golden(_readme_command("check", "all"), out)


def test_readme_asym_fit_runs(capsys):
    argv = _readme_command("asym")
    assert "--fit" in argv
    code, csv, err = run(capsys, argv)
    assert code == 0, err
    # plain prints the fit and its reference as complex numbers, the real
    # reference of a real a included
    code, out, err = run(capsys, argv + ["--format", "plain"])
    assert code == 0, err
    fit_line = out.strip().splitlines()[-1]
    assert fit_line.startswith("fit: (") and fit_line.endswith(" + 0.0j)")
    _assert_golden(argv, csv)
    _assert_golden(argv + ["--format", "plain"], out)


@pytest.mark.parametrize("argv", FORMAT_ARGVS, ids=shlex.join)
def test_every_format_matches_golden(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    _assert_golden(argv, out)
