"""Command-line surface: reproducible runs with serialized outputs.

Exit codes: 0 success, 2 inconclusive verdict, 1 computation error,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DomainError, ProdisoError
from .halfspace import (
    HalfSpace,
    INCONCLUSIVE,
    classify_stationary,
    coordinate_stability,
    noncoordinate_stability,
)
from .isoprofile import clt_upper_bound, profile_1d, profile_envelope
from .measures import BumpFunction, MeasureSpec
from .perturb import design_bump, finite_diff_validate, perturbation_slopes
from .spectral import DEFAULT_SOLVER_MARGIN, GapOptions, spectral_gap
from .spectral import random_oracle_instance, tensor_oracle_2d

_USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error.  Long options are not abbreviated, so a
    flag a command does not read (``clt --h``) is refused instead of being
    taken for the prefix of another (``--help``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text}")
        return value
    return integer


def _parse_halfspace(text: str, dim: int) -> HalfSpace:
    """Parse 'coordinate[:t]', 'bisector[+|-][:t]' or 'v1,v2,...;t'."""
    s = text.strip()
    if s.startswith("coordinate"):
        rest = s[len("coordinate"):].lstrip(":").strip()
        return HalfSpace.coordinate(0, float(rest) if rest else 0.0, dim)
    if s.startswith("bisector"):
        rest = s[len("bisector"):]
        sign = 1
        if rest[:1] in ("+", "-"):
            sign = 1 if rest[0] == "+" else -1
            rest = rest[1:]
        rest = rest.lstrip(":").strip()
        return HalfSpace.bisector(sign, float(rest) if rest else 0.0, dim)
    if ";" in s:
        vec, _, off = s.partition(";")
        comps = tuple(float(c) for c in vec.split(","))
        if len(comps) != dim:
            raise DomainError("direction length does not match --dim")
        return HalfSpace(comps, float(off))
    raise DomainError(f"unrecognized half-space spec: {text!r}")


def _dict_to_csv(d: dict) -> str:
    lines = ["key,value"]
    for k, v in d.items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                lines.append(f"{k}.{kk},{vv}")
        elif isinstance(v, (list, tuple)):
            lines.append(f"{k},\"{';'.join(str(x) for x in v)}\"")
        else:
            lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, summary: str, artifact: dict,
          csv_text: str | None = None) -> None:
    """Print the summary; write the artifact to --out in --format, if set."""
    print(summary)
    if args.out is None:
        return
    if args.format == "csv":
        text = csv_text if csv_text is not None else _dict_to_csv(artifact)
    else:
        text = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)


def _add_common(p: argparse.ArgumentParser, measure: bool = True) -> None:
    if measure:
        p.add_argument("--measure", default="logistic",
                       help="measure name or JSON descriptor")
    p.add_argument("--out", default=None, help="artifact file path")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _add_gap_options(p: argparse.ArgumentParser) -> None:
    """The flags read into GapOptions, with its defaults."""
    p.add_argument("--grid-n", type=int, default=GapOptions.n)
    p.add_argument("--tail-mass", type=float, default=GapOptions.tail_mass)


def _gap_options(args: argparse.Namespace) -> GapOptions:
    return GapOptions(tail_mass=args.tail_mass, n=args.grid_n)


def _measure(args: argparse.Namespace) -> MeasureSpec:
    return MeasureSpec.from_descriptor(args.measure)


def _cmd_spectral_gap(args) -> int:
    m = _measure(args)
    lam = spectral_gap(m, _gap_options(args))
    _emit(args, f"spectral-gap {lam:.6f}",
          {"measure": m.label, "lambda": lam})
    return 0


def _cmd_stationary(args) -> int:
    m = _measure(args)
    hs = _parse_halfspace(args.halfspace, args.dim)
    verdict = classify_stationary([m] * args.dim, hs)
    _emit(args, f"stationary {verdict.tag} residual={verdict.residual:.3g}",
          {"measure": m.label, **verdict.to_json_dict()})
    return 0


def _cmd_stable(args) -> int:
    m = _measure(args)
    hs = _parse_halfspace(args.halfspace, args.dim)
    active = hs.nonzero
    if len(active) == 1:
        verdict = coordinate_stability(m, hs.tau, args.solver_margin,
                                       _gap_options(args))
    elif len(active) == 2 and abs(abs(hs.alpha(active[0]))
                                  - abs(hs.alpha(active[1]))) <= 1e-12:
        other = active[1] if hs.reference == active[0] else active[0]
        alpha = int(round(hs.alpha(other)))
        verdict = noncoordinate_stability(m, alpha, hs.tau, args.dim,
                                          args.solver_margin,
                                          _gap_options(args), n=args.grid_n)
    else:
        raise DomainError(
            "stability handles coordinate and two-equal-component "
            "directions only")
    certs = " ".join(f"{k}={v:.6g}" for k, v in verdict.certificates.items())
    _emit(args, f"stable {verdict.tag} {certs}",
          {"measure": m.label, **verdict.to_json_dict()})
    return 2 if verdict.tag == INCONCLUSIVE else 0


def _cmd_profile(args) -> int:
    m = _measure(args)
    val = profile_1d(m, args.t)
    _emit(args, f"profile {val:.6f}",
          {"measure": m.label, "t": args.t, "profile": val})
    return 0


def _cmd_envelope(args) -> int:
    m = _measure(args)
    ts = np.linspace(0.0, 1.0, args.grid_t)
    pb = profile_envelope(m, ts, _gap_options(args), clt_n_max=args.n_max)
    mid = pb.lower[args.grid_t // 2]
    artifact = {
        "measure": m.label,
        "t": [float(v) for v in pb.ts],
        "one_dim": [float(v) for v in pb.one_dim],
        "lower": [float(v) for v in pb.lower],
        "upper": [float(v) for v in pb.upper],
        "clt_trace": list(pb.clt_trace),
    }
    _emit(args, f"envelope levels={args.grid_t} lower(1/2)={mid:.6f}",
          artifact, csv_text=pb.to_csv())
    return 0


def _cmd_clt(args) -> int:
    m = _measure(args)
    trace = clt_upper_bound(m, args.t, args.n_max)
    sigma = math.sqrt(m.variance)
    artifact = {"measure": m.label, "t": args.t, "trace": trace,
                "sigma": sigma}
    csv_text = "N,value\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in enumerate(trace, start=1))
    _emit(args, f"clt N={args.n_max} value={trace[-1]:.6f}", artifact, csv_text)
    return 0


def _cmd_perturb_slopes(args) -> int:
    bump = BumpFunction.from_json(args.bump)
    ld, kd, ad = perturbation_slopes(bump)
    _emit(args,
          f"perturb-slopes lambda_dot={ld:.6f} k_dot={kd:.6f} a_dot={ad:.6f}",
          {"lambda_dot": ld, "k_dot": kd, "a_dot": ad})
    return 0


def _cmd_perturb_design(args) -> int:
    bump, report = design_bump()
    ld, kd, ad = report.slopes
    _emit(args,
          f"perturb-design feasible={report.feasible} k_dot={kd:.6f} "
          f"lambda_dot-a_dot={ld - ad:.6f}",
          json.loads(report.to_json()))
    return 0


def _cmd_perturb_validate(args) -> int:
    if args.bump is not None:
        bump = BumpFunction.from_json(args.bump)
    else:
        bump, _ = design_bump()
    report = finite_diff_validate(bump, tuple(args.eps))
    rel = max(abs(f - a) / (abs(a) + 1e-6)
              for f, a in zip(report.fd_slopes, report.slopes))
    _emit(args,
          f"perturb-validate max_rel_err={rel:.4f} "
          f"baselines={tuple(round(b, 6) for b in report.baselines)}",
          json.loads(report.to_json()))
    return 0


def _cmd_tensor_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    disagree = 0
    inconclusive = 0
    for i in range(args.count):
        nu, tau, theta, grid = random_oracle_instance(rng, n=args.grid_n)
        r = tensor_oracle_2d(nu, tau, theta, grid)
        disagree += 0 if r.agrees else 1
        inconclusive += 1 if r.inconclusive else 0
        rows.append({"instance": i, "lambda_2d": r.lambda_2d,
                     "p1": r.p1.value, "p2": r.p2.value,
                     "agrees": r.agrees, "inconclusive": r.inconclusive})
    artifact = {"seed": args.seed, "count": args.count, "instances": rows,
                "disagreements": disagree, "inconclusive": inconclusive}
    csv_text = "instance,lambda_2d,p1,p2,agrees,inconclusive\n" + "".join(
        f"{r['instance']},{r['lambda_2d']:.12g},{r['p1']:.12g},"
        f"{r['p2']:.12g},{r['agrees']},{r['inconclusive']}\n" for r in rows)
    _emit(args,
          f"tensor-oracle count={args.count} disagreements={disagree} "
          f"inconclusive={inconclusive}", artifact, csv_text)
    if disagree:
        return 1
    return 2 if inconclusive else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prodiso",
                     description="Spectral gaps, half-space stability and "
                                 "isoperimetric bounds for product measures")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("spectral-gap", help="spectral gap of a measure")
    _add_common(p)
    _add_gap_options(p)
    p.set_defaults(func=_cmd_spectral_gap)

    p = sub.add_parser("stationary", help="classify half-space stationarity")
    _add_common(p)
    p.add_argument("--halfspace", required=True)
    p.add_argument("--dim", type=_int_at_least(1), default=2)
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("stable", help="half-space stability verdict")
    _add_common(p)
    _add_gap_options(p)
    p.add_argument("--solver-margin", type=float,
                   default=DEFAULT_SOLVER_MARGIN)
    p.add_argument("--halfspace", required=True)
    p.add_argument("--dim", type=_int_at_least(1), default=2)
    p.set_defaults(func=_cmd_stable)

    p = sub.add_parser("profile", help="1-D isoperimetric profile value")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("envelope", help="profile bounds over a level grid")
    _add_common(p)
    _add_gap_options(p)
    p.add_argument("--grid-t", type=_int_at_least(1), default=101)
    p.add_argument("--n-max", type=int, default=0, dest="n_max",
                   help="optional CLT trace length")
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("clt", help="half-space upper bounds from sums")
    _add_common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--n-max", type=int, default=16, dest="n_max")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("perturb-slopes", help="analytic slopes of a bump")
    _add_common(p, measure=False)
    p.add_argument("--bump", required=True, help="bump JSON")
    p.set_defaults(func=_cmd_perturb_slopes)

    p = sub.add_parser("perturb-design", help="design a feasible bump")
    _add_common(p, measure=False)
    p.set_defaults(func=_cmd_perturb_design)

    p = sub.add_parser("perturb-validate",
                       help="finite-difference slope validation")
    _add_common(p, measure=False)
    p.add_argument("--bump", default=None, help="bump JSON (default: design)")
    p.add_argument("--eps", type=float, nargs="+", default=[0.01, 0.02])
    p.set_defaults(func=_cmd_perturb_validate)

    p = sub.add_parser("tensor-oracle",
                       help="randomized 2-D tensorization checks")
    _add_common(p, measure=False)
    p.add_argument("--grid-n", type=int, default=101, dest="grid_n")
    p.add_argument("--count", type=_int_at_least(0), default=25)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_tensor_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProdisoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
