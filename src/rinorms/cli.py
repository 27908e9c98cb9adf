"""Command-line surface: norms, operators, K-functionals and verification runs.

Output is deterministic for a given flag set and seed (floats printed as
``repr`` prints them, in bulk through orjson, and no timestamps); ``verify``
exits nonzero when any requested check fails, so the tool can gate CI runs.
Plot output is data-only CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys

from .counterexamples import report_rows, step_function_report
from .harness import (
    CHECK_IDS,
    default_check_reports,
    generate_corpus,
    reports_to_csv,
    reports_to_json,
)
from .hardy import GridSpec, envelope_norm, hardy_lower, hardy_upper
from .interp import (
    FunctorParams,
    LorentzCouple,
    functor_norm,
    holmstedt_k,
    k_exact_l1_linf,
    k_upper_oracle,
    select_parameters,
)
from .lorentz import (
    LorentzParams,
    SpaceDescriptor,
    _check_exponent,
    dilation_operator_norm,
    estimate_boyd_indices,
    lorentz_norm,
)
from .stepfn import INF, StepFunction, _float_texts


def _exponent(text: str) -> float:
    try:
        return _check_exponent(text, "exponent")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _max_decade(text: str) -> int:
    """``--max-decade``: 10**d floats are summed, so d stays in 2..7."""
    try:
        d = int(text)
    except ValueError:
        d = None
    if d is None or not 2 <= d <= 7:
        raise argparse.ArgumentTypeError(f"must be an integer in 2..7, got {text}")
    return d


def _load_function(path: str) -> StepFunction:
    try:
        with open(path) as fh:
            return StepFunction.from_json(fh.read())
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e}")
    except ValueError as e:
        raise SystemExit(f"invalid function file {path}: {e}")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> LorentzParams:
    return LorentzParams(args.p, args.q)


def _grid(args) -> GridSpec:
    return GridSpec(points_per_decade=args.grid_per_decade)


def _couple(args) -> LorentzCouple:
    return LorentzCouple(LorentzParams(args.p0, args.q0), LorentzParams(args.p1, args.q1))


def cmd_rearrange(args) -> int:
    f = _load_function(args.input)
    _emit(args, f.rearrange().to_json() + "\n")
    return 0


def cmd_norm(args) -> int:
    f = _load_function(args.input)
    _emit(args, repr(lorentz_norm(f, _params(args))) + "\n")
    return 0


def cmd_dilate(args) -> int:
    f = _load_function(args.input)
    _emit(args, f.dilate(args.a).to_json() + "\n")
    return 0


def cmd_hardy(args) -> int:
    f = _load_function(args.input)
    if (args.U is None) == (args.V is None):
        raise SystemExit("hardy needs exactly one of --U (averaging over (0,t)) or --V (over (t,inf))")
    if (args.p is None) != (args.q is None):
        raise SystemExit("hardy's norm enclosure needs both --p and --q")
    if args.U is not None:
        env = hardy_upper(f, args.U, args.W, _grid(args))
    else:
        env = hardy_lower(f, args.V, args.W, _grid(args))
    if env.diverged:
        raise SystemExit(
            "the lower Hardy average diverges: f has a positive tail, so the "
            "integral over (t, inf) is infinite for every t"
        )
    # the lower bound at each grid point is the value there; the upper bound
    # is the value at the point before (upper_on_grid), the head bound first
    values = _float_texts(env.values)
    upper = [repr(float(env.upper_on_grid()[0])), *values[:-1]]
    rows = zip(_float_texts(env.grid), values, values, upper)
    text = "t,value,lower,upper\n" + "\n".join(map(",".join, rows)) + "\n"
    if args.p is not None:
        enc = envelope_norm(env, _params(args))
        text += f"norm_enclosure,{enc.lo!r},{enc.hi!r},{enc.width!r}\n"
    _emit(args, text)
    return 0


def cmd_kfun(args) -> int:
    # f* once: the three K forms take it back unchanged from their own rearrange()
    fs = _load_function(args.input).rearrange()
    couple = _couple(args)
    lines = [f"oracle_upper {repr(k_upper_oracle(fs, args.t, couple))}"]
    if couple.params0 == LorentzParams(1.0, 1.0) and couple.params1 == LorentzParams(INF, INF):
        lines.insert(0, f"exact {repr(k_exact_l1_linf(fs, args.t))}")
    if args.theta is not None:
        lines.append(f"holmstedt {repr(holmstedt_k(fs, args.t, couple, args.theta))}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_functor_norm(args) -> int:
    f = _load_function(args.input)
    couple = _couple(args)
    space = SpaceDescriptor.for_lorentz(_params(args))
    r = args.r if args.r is not None else args.p0
    enc = functor_norm(f, FunctorParams(args.theta, r, space), couple, _grid(args))
    _emit(args, f"{repr(enc.lo)} {repr(enc.hi)}\n")
    return 0


def cmd_boyd(args) -> int:
    space = SpaceDescriptor.for_lorentz(_params(args))
    corpus = generate_corpus(args.seed, args.corpus_size)
    s_values = [2.0**k for k in (1, 5, 10, 20)]
    lower, upper = estimate_boyd_indices(space, s_values, corpus)
    lines = [
        f"boyd_lower_estimate {repr(lower)}",
        f"boyd_upper_estimate {repr(upper)}",
        f"dilation_norm_half {repr(dilation_operator_norm(space.params, 0.5))}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_params(args) -> int:
    space = SpaceDescriptor.for_lorentz(_params(args))
    p0, p1, theta = select_parameters(space)
    _emit(args, f"p0={repr(p0)} p1={repr(p1)} theta={repr(theta)}\n")
    return 0


def cmd_example18(args) -> int:
    if not 0.0 < args.q < 1.0:
        raise SystemExit(f"the borderline family needs q in (0, 1), got {args.q}")
    n_values = [10**k for k in range(2, args.max_decade + 1)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "l1_partial", "l1q_partial"])
    for n, l1, l1q in report_rows(args.q, n_values):
        writer.writerow([n, repr(l1), repr(l1q)])
    if args.with_norms:
        _, norms = step_function_report(args.q, n_values[-1])
        writer.writerow(["norms", repr(norms["l1"]), repr(norms["l1q"])])
    _emit(args, buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    reports = default_check_reports(args.which, args.seed, args.corpus_size, _grid(args))
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
    _emit(args, text)
    return 0 if all(r.passed for r in reports) else 1


def _add_function_arg(p) -> None:
    p.add_argument("--input", required=True, help="step function JSON file")


def _add_space_args(p, required: bool = True) -> None:
    p.add_argument("--p", type=_exponent, required=required)
    p.add_argument("--q", type=_exponent, required=required)


def _add_couple_args(p) -> None:
    p.add_argument("--p0", type=_exponent, required=True)
    p.add_argument("--q0", type=_exponent, required=True)
    p.add_argument("--p1", type=_exponent, required=True)
    p.add_argument("--q1", type=_exponent, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rinorms",
        description="Exact Lorentz quasi-norms, Hardy averages and K-functional checks on step functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rearrange", help="non-increasing rearrangement of a function file")
    _add_function_arg(p)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_rearrange)

    p = sub.add_parser("norm", help="Lorentz quasi-norm of a function file")
    _add_function_arg(p)
    _add_space_args(p)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("dilate", help="dilate a function: f(a .)")
    _add_function_arg(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_dilate)

    p = sub.add_parser("hardy", help="Hardy average as plot-ready CSV (t, value, lower, upper)")
    _add_function_arg(p)
    p.add_argument("--U", type=_exponent, help="averaging exponent over (0, t)")
    p.add_argument("--V", type=_exponent, help="averaging exponent over (t, inf)")
    p.add_argument("--W", type=_exponent, default=1.0, help="inner exponent (inf for sup form)")
    p.add_argument("--p", type=_exponent, help="with --q: also print the norm enclosure")
    p.add_argument("--q", type=_exponent)
    p.add_argument("--grid-per-decade", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_hardy)

    p = sub.add_parser("kfun", help="K-functional values at t for a Lorentz couple")
    _add_function_arg(p)
    _add_couple_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta", type=_exponent)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_kfun)

    p = sub.add_parser("functor-norm", help="enclosure of the E-functor norm over a couple")
    _add_function_arg(p)
    _add_couple_args(p)
    _add_space_args(p)
    p.add_argument("--theta", type=_exponent, required=True)
    p.add_argument("--r", type=_exponent, help="defaults to p0")
    p.add_argument("--grid-per-decade", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_functor_norm)

    p = sub.add_parser("boyd", help="Boyd index estimates from a seeded corpus")
    _add_space_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus-size", type=int, default=100)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_boyd)

    p = sub.add_parser("params", help="interpolation parameters (p0, p1, theta) for a space")
    _add_space_args(p)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("example18", help="borderline-family partial sums as CSV")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--max-decade", type=_max_decade, default=6, help="largest N is 10**max_decade (2..7)")
    p.add_argument("--with-norms", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_example18)

    p = sub.add_parser("verify", help="run verification checks; nonzero exit on failure")
    p.add_argument("which", choices=CHECK_IDS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus-size", type=int, default=1000)
    p.add_argument("--grid-per-decade", type=int, default=64)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)

    return parser


# built on the first call to main, not at import: parsing leaves the parser
# as it was, so one process reuses it for every query
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:
        raise SystemExit(str(e))


if __name__ == "__main__":
    sys.exit(main())
