"""Command-line interface.

Subcommands:

* ``eval {zeta,P,gamma-log}``  single evaluations (JSON by default)
* ``check SUITE``  an invariant suite of checks.SUITES, or ``all`` of them
* ``asym``  asymptotic-expansion experiment over a w grid (CSV by default)

Every command builds its result once as a JSON payload, csv lines and plain
lines, and prints the one --format names (_print).  A number may carry
whitespace at its ends and around the sign between its real and imaginary
parts, and nowhere else: --w "1 2" exits 2.  Nor may it carry a digit
separator, which Python's float, int and mpf read: --w 1_3 and --k 1_0
exit 2.

``eval`` refuses a --method its target lacks with exit 3, and every command
refuses a flag that it and its route do not read (--s, --m, --k, --lambda,
--seed; see _FLAGS) with exit 3.

Exit codes: 0 success, 1 check/experiment failure, 2 argument parse error,
3 domain error, 4 precision unreachable, 5 unstable fit.  Error paths emit a
single JSON object on stderr: {"code": ..., "message": ..., "parameter": ...}.
Output is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

from mpmath import mp, mpf

from . import asymptotics, checks, evaluators
from .errors import (
    ConvergenceTooSlow,
    DomainError,
    FitUnstable,
    InvalidParameter,
    NodeBudgetExceeded,
    PolesTooClose,
    PrecisionUnreachable,
    TooCloseToInteger,
)
from .multibernoulli import OmegaVector
from .precision import DEFAULT_BITS, PrecisionPolicy

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PRECISION = 4
EXIT_FIT = 5

_DOMAIN_ERRORS = (InvalidParameter, DomainError, TooCloseToInteger)
_PRECISION_ERRORS = (
    PrecisionUnreachable,
    NodeBudgetExceeded,
    PolesTooClose,
    ConvergenceTooSlow,
)


def _emit_error(code: int, message: str, parameter: str | None = None) -> int:
    record = {"code": code, "message": message}
    if parameter is not None:
        record["parameter"] = parameter
    print(json.dumps(record), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose failures are machine-readable on stderr."""

    def error(self, message):
        _emit_error(EXIT_PARSE, message)
        raise SystemExit(EXIT_PARSE)


def _finite(x, text: str):
    if not mp.isfinite(x):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return x


def _unseparated(text: str) -> str:
    """text, if it holds no digit separator: mpf, float and int read '1_3'
    as 13."""
    if "_" in text:
        raise ValueError(f"digit separator '_' in the number {text.strip()!r}")
    return text


def parse_complex(text: str):
    """Parse '1.5', '-2', '1+2j', '0.5 - 0.25j', '2j' into a finite mpc.
    Whitespace may stand at the ends and around the sign between the real
    and imaginary parts, and nowhere else; a digit separator nowhere."""
    s = re.sub(r"(?<=[^eE\s])\s*([+-])\s*", r"\1", _unseparated(text).strip())
    if not s:
        raise ValueError("empty number")
    if re.search(r"\s", s):
        raise ValueError(f"whitespace inside the number {text.strip()!r}")
    if s[-1] not in "jJ":
        return _finite(mp.mpc(mpf(s)), text)
    body = s[:-1]
    # split at the last sign that is not leading and not an exponent sign
    split = next(
        (i for i in range(len(body) - 1, 0, -1) if body[i] in "+-" and body[i - 1] not in "eE"), 0
    )
    re_part, im_part = body[:split] or "0", body[split:]
    if im_part in ("", "+", "-"):
        im_part += "1"
    return _finite(mp.mpc(mpf(re_part), mpf(im_part)), text)


def _finite_float(text: str) -> float:
    """argparse type for --tol and --lambda: a finite float."""
    try:
        return _finite(float(_unseparated(text)), text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(text: str) -> int:
    """argparse type for --m, --k, --seed and --precision-bits, and the
    reader of HYPERZETA_PRECISION_BITS: an int, without a digit separator."""
    try:
        return int(_unseparated(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_real_tuple(text: str):
    """Parse '1,0.7' into a tuple of finite mpfs."""
    parts = [t for t in _unseparated(text).split(",") if t.strip()]
    return tuple(_finite(mpf(t.strip()), t) for t in parts)


def _digits(bits: int) -> int:
    return int(bits * 0.30103) + 1


def _value_digits(value, err, bits: int) -> int:
    """Significant digits for value: _digits(bits), or more where half a unit
    in the last place of value's larger part would exceed err.  With d
    digits and that part below 10^e, half a unit is 10^(e - d) / 2."""
    size = max(abs(mp.re(value)), abs(mp.im(value)))
    if not size or not err:
        return _digits(bits)
    e = int(mp.floor(mp.log10(size))) + 1
    return max(_digits(bits), int(mp.ceil(e - mp.log10(2 * err))))


def _fmt(x, digits: int) -> str:
    return mp.nstr(mpf(x), digits, strip_zeros=False)


def _fmt_complex(z, digits: int):
    z = mp.mpc(z)
    return {"re": _fmt(mp.re(z), digits), "im": _fmt(mp.im(z), digits)}


def _add_common(parser, suppress: bool):
    # registered on the top level with real defaults, and on each subcommand
    # with SUPPRESS so the flags are accepted in either position
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument(
        "--precision-bits",
        type=_integer,
        default=d(None),
        help="working precision in bits (default: HYPERZETA_PRECISION_BITS or 192)",
    )
    parser.add_argument(
        "--tol", type=_finite_float, default=d(1e-22), help="target absolute error"
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_finite_float,
        default=d(None),
        help="Hankel circle radius override (must satisfy the pole bound)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "plain"), default=d(None),
        help="output format (default: json for eval/check, csv for asym)",
    )
    parser.add_argument(
        "--seed", type=_integer, default=d(None),
        help="seed for randomized checks (default 0; check only)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperzeta", description=__doc__.splitlines()[0])
    _add_common(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single function value")
    _add_common(ev, suppress=True)
    ev.add_argument("target", choices=("zeta", "P", "gamma-log"))
    ev.add_argument("--s", help="zeta argument (complex; zeta only)")
    ev.add_argument("--w", required=True, help="base point (complex, Re > 0)")
    ev.add_argument("--m", type=_integer, help="derivative order m (default 1; P and gamma-log)")
    ev.add_argument("--k", type=_integer, help="integer shift k (default 0; P and gamma-log)")
    ev.add_argument("--omega", default="1", help="comma-separated periods, e.g. 1,0.7")
    ev.add_argument(
        "--method",
        choices=("contour", "direct", "combination"),
        default="contour",
        help="evaluation route: contour for every target, direct for zeta, combination for P",
    )

    ck = sub.add_parser("check", help="run an invariant suite")
    _add_common(ck, suppress=True)
    ck.add_argument("suite", choices=(*checks.SUITES, "all"))

    asy = sub.add_parser("asym", help="asymptotic-expansion experiment")
    _add_common(asy, suppress=True)
    asy.add_argument("--m", type=_integer, default=1)
    asy.add_argument("--k", type=_integer, default=0)
    asy.add_argument("--omega", default="1")
    asy.add_argument("--alpha", default="1")
    asy.add_argument("--a", default="0.5", help="absorbed shift (complex)")
    asy.add_argument(
        "--w-grid",
        default=",".join(str(w) for w in asymptotics.DEFAULT_W_GRID),
        help="comma-separated increasing grid",
    )
    asy.add_argument(
        "--fit",
        action="store_true",
        help="append the fitted 1/w coefficient and its predicted value (m = 1)",
    )
    asy.add_argument(
        "--strict-statement",
        action="store_true",
        help="evaluate the left side at w instead of w + a",
    )
    return parser


# (command, and for eval its target and --method) -> the optional flags that
# route reads; every other eval pair is refused, and so is a flag the route
# would ignore
_FLAGS = {
    ("eval", "zeta", "contour"): ("s", "lambda"),
    ("eval", "zeta", "direct"): ("s",),
    ("eval", "P", "contour"): ("m", "k", "lambda"),
    ("eval", "P", "combination"): ("m", "k", "lambda"),
    ("eval", "gamma-log", "contour"): ("m", "k", "lambda"),
    ("check",): ("seed",),
    ("asym",): ("m", "k"),
}


def _check_flags(args):
    """None if the command's route reads every optional flag given, else
    the exit code of the one JSON error that names the first it does not."""
    if args.command == "eval":
        route, where = (args.command, args.target, args.method), f"eval {args.target} --method {args.method}"
    else:
        route, where = (args.command,), args.command
    reads = _FLAGS.get(route)
    if reads is None:
        methods = [key[2] for key in _FLAGS if key[1:2] == (args.target,)]
        message = f"eval {args.target} takes --method {' or '.join(methods)}, not {args.method}"
        return _emit_error(EXIT_DOMAIN, message, "method")
    for flag, dest in (("s", "s"), ("m", "m"), ("k", "k"), ("lambda", "lam"), ("seed", "seed")):
        if getattr(args, dest, None) is not None and flag not in reads:
            return _emit_error(EXIT_DOMAIN, f"{where} does not read --{flag}", flag)
    return None


def _print(fmt: str, payload, csv_lines, plain_lines) -> None:
    """Print a command's result in one of its three renderings: the JSON
    payload, or its csv or plain lines."""
    if fmt == "json":
        print(json.dumps(payload))
    else:
        print("\n".join(csv_lines if fmt == "csv" else plain_lines))


def _run_eval(args, p: PrecisionPolicy) -> int:
    omega = OmegaVector.of(*parse_real_tuple(args.omega))
    w = parse_complex(args.w)
    m = 1 if args.m is None else args.m
    k = 0 if args.k is None else args.k
    if args.target == "zeta":
        if args.s is None:
            raise InvalidParameter("eval zeta requires --s")
        s = parse_complex(args.s)
        if args.method == "direct":
            res = evaluators.zeta_direct(s, w, omega, p)
        else:
            res = evaluators.zeta_contour(s, w, omega, p, args.lam)
    elif args.target == "gamma-log":
        res = evaluators.log_hyper_gamma(m, k, w, omega, p, args.lam)
    else:
        # --method contour and combination are evaluators.METHOD_CONTOUR and METHOD_COMBINATION
        res = evaluators.balanced_P(m, k, w, omega, p, args.method, args.lam)
    digits = _value_digits(res.value, res.err_estimate, p.precision_bits)
    # past the policy's digits the value is printed from every bit it
    # carries, not rounded to the policy's bits first
    bits = max(mp.prec, *(x._mpf_[3] for x in (mp.re(res.value), mp.im(res.value))))
    with mp.workprec(mp.prec if digits == _digits(p.precision_bits) else bits):
        value = _fmt_complex(res.value, digits)
    err = _fmt(res.err_estimate, 3)
    _print(
        args.format or "json",
        {
            "target": args.target,
            "value": value,
            "err_estimate": err,
            "method": res.method,
            "precision_bits": p.precision_bits,
        },
        ["value_re,value_im,err_estimate,method", ",".join((*value.values(), err, res.method))],
        [
            f"{args.target} = {value['re']} + {value['im']}j",
            f"err_estimate <= {err}  ({res.method})",
        ],
    )
    return EXIT_OK


def _run_check(args, p: PrecisionPolicy) -> int:
    results = checks.run_suite(args.suite, p, 0 if args.seed is None else args.seed)
    passed = sum(r.passed for r in results)
    _print(
        args.format or "json",
        [dataclasses.asdict(r) for r in results],
        ["suite,name,passed,detail"]
        + [f"{r.suite},{r.name},{int(r.passed)},{r.detail}" for r in results],
        [
            f"{'PASS' if r.passed else 'FAIL'}  {r.suite}/{r.name}"
            + (f"  {r.detail}" if r.detail else "")
            for r in results
        ]
        + [f"{passed}/{len(results)} checks passed"],
    )
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


def _run_asym(args, p: PrecisionPolicy) -> int:
    exp = asymptotics.AsymExperiment(
        omega=OmegaVector.of(*parse_real_tuple(args.omega)),
        alpha=OmegaVector.of(*parse_real_tuple(args.alpha)),
        a=parse_complex(args.a),
        m=args.m,
        k=args.k,
        w_grid=parse_real_tuple(args.w_grid),
        strict_statement=args.strict_statement,
        policy=p,
    )
    rows = asymptotics.run_experiment(exp)
    digits = _digits(p.precision_bits)
    records = [
        {
            "w": _fmt(row.w, digits),
            "lhs": _fmt_complex(row.lhs, digits),
            "rhs": _fmt_complex(row.rhs_sum, digits),
            "err_abs": _fmt(abs(row.error), 3),
            "err_norm": _fmt(row.normalized_error, 3),
        }
        for row in rows
    ]
    payload = {"rows": records}
    csv_lines = ["w,lhs_re,lhs_im,rhs_re,rhs_im,err_abs,err_norm"] + [
        ",".join((r["w"], *r["lhs"].values(), *r["rhs"].values(), r["err_abs"], r["err_norm"]))
        for r in records
    ]
    plain_lines = [
        f"w={_fmt(row.w, 6)}  err_abs={r['err_abs']}  err_norm={r['err_norm']}"
        for row, r in zip(rows, records)
    ]
    if args.fit:
        fit = asymptotics.fit_one_over_w(exp, rows)
        fitted, reference = (_fmt_complex(x, digits) for x in fit)
        payload["fit"] = {"fitted": fitted, "reference": reference}
        csv_lines.append(",".join(("# fit", *fitted.values(), *reference.values())))
        # the reference too as a complex number, as it is where a is complex
        plain_lines.append(
            "fit: {}  reference: {}".format(*(mp.nstr(mp.mpc(x), digits) for x in fit))
        )
    _print(args.format or "csv", payload, csv_lines, plain_lines)
    return EXIT_OK


_RUNNERS = {"eval": _run_eval, "check": _run_check, "asym": _run_asym}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    refused = _check_flags(args)
    if refused is not None:
        return refused
    bits = args.precision_bits
    if bits is None:
        # an integer, as --precision-bits is; the policy checks its range
        env = os.environ.get("HYPERZETA_PRECISION_BITS")
        try:
            bits = _integer(env) if env else DEFAULT_BITS
        except argparse.ArgumentTypeError:
            return _emit_error(
                EXIT_PARSE,
                f"HYPERZETA_PRECISION_BITS must be an integer, got {env!r}",
                "HYPERZETA_PRECISION_BITS",
            )
    try:
        p = PrecisionPolicy(precision_bits=bits, target_abs_error=args.tol)
        with p.context():
            return _RUNNERS[args.command](args, p)
    except _DOMAIN_ERRORS as exc:
        return _emit_error(EXIT_DOMAIN, str(exc))
    except _PRECISION_ERRORS as exc:
        return _emit_error(EXIT_PRECISION, str(exc))
    except FitUnstable as exc:
        return _emit_error(EXIT_FIT, str(exc))
    except ValueError as exc:
        return _emit_error(EXIT_PARSE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
