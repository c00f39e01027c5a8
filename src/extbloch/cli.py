"""Command line interface.

Exit codes: 0 success, 2 validation failure, 3 numeric-residual failure
(selftest), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import config
from .chains import is_cycle
from .chainio import chain_to_obj, emit_report, parse_cycle_file, write_json
from .errors import CcsError
from .fixtures import five_term_boundary, torsion_cycle
from .pipeline import ccs_value


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return integer


def _tolerance(text: str) -> float:
    """An argparse type: the comparison tolerance (``config.check_cmp``)."""
    try:
        return config.check_cmp(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_eval(args) -> int:
    chain = parse_cycle_file(args.cycle)
    report = ccs_value(chain, seed=args.seed, trials=args.trials,
                       tol=args.tolerance)
    emit_report(report, path=args.out, out=sys.stdout,
                extra={"trials_requested": args.trials})
    return 0


def cmd_check_cycle(args) -> int:
    chain = parse_cycle_file(args.cycle)
    ok, residual = is_cycle(chain, args.tolerance)
    doc = {"file": args.cycle, "degree": chain.degree, "terms": len(chain),
           "is_cycle": ok, "boundary_terms": len(residual)}
    write_json(doc, sys.stdout, args.out)
    return 0 if ok else 2

def cmd_torsion(args) -> int:
    chain = torsion_cycle(args.n)
    write_json(chain_to_obj(chain), sys.stdout, args.out)
    return 0


def cmd_five_term(args) -> int:
    try:
        x = complex(args.x)
        y = complex(args.y)
    except ValueError:
        print("error: --x and --y must parse as complex numbers", file=sys.stderr)
        return 2
    chain = five_term_boundary(x, y)  # DegenerateFT (exit 2) names a coordinate
    ok, _ = is_cycle(chain)
    if args.verify:
        report = ccs_value(chain, seed=args.seed, trials=2)
        doc = {
            "x": [x.real, x.imag], "y": [y.real, y.imag],
            "is_cycle": ok,
            "value": [report.value_mod1.real, report.value_mod1.imag],
            "volume": report.volume,
            "residuals": report.residuals,
        }
        write_json(doc, sys.stdout, args.out)
        dist = min(report.value_mod1.real, 1.0 - report.value_mod1.real)
        return 0 if ok and dist < 1e-6 and abs(report.volume) < 1e-6 else 3
    write_json(chain_to_obj(chain), sys.stdout, args.out)
    return 0 if ok else 2


def cmd_real_check(args) -> int:
    from .real_sl2 import sample_agreement_suite

    reports = sample_agreement_suite(args.seed, samples=args.samples)
    worst = max(r.agreement_error for r in reports)
    doc = {
        "samples": len(reports),
        "worst_agreement_error": worst,
        "all_principal_branch": all(
            r.covering_p == 0 and r.covering_q == 0 for r in reports),
        "all_cross_ratios_in_unit_interval": all(
            0.0 < r.cross_ratio < 1.0 for r in reports),
    }
    write_json(doc, sys.stdout, args.out)
    ok = (doc["all_principal_branch"]
          and doc["all_cross_ratios_in_unit_interval"] and worst <= 1e-10)
    return 0 if ok else 3


def cmd_lift_path(args) -> int:
    from .covering import five_tuple
    from .path_lift import find_positive_base, verify_pq_pattern

    if args.base:
        try:
            xs, ys = args.base.split(",", 1)
            base = (complex(xs), complex(ys))
        except ValueError:
            print("error: --base expects 'x,y' complex pair", file=sys.stderr)
            return 2
    else:
        base = find_positive_base()
    five_tuple(*base)  # DegenerateFT (exit 2) names a coordinate on 0 or 1
    ok, details = verify_pq_pattern(args.p0, args.q0, args.r,
                                    args.p1, args.q1, base=base)
    doc = {
        "base": [[base[0].real, base[0].imag], [base[1].real, base[1].imag]],
        "windings": [args.p0, args.q0, args.r, args.p1, args.q1],
        "lifted": [list(b) for b in details["got"]],
        "expected": [list(b) for b in details["expected"]],
        "match": ok,
        "five_term_sum_abs": abs(details["five_term_sum"]),
    }
    write_json(doc, sys.stdout, args.out)
    return 0 if ok else 3


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(seed=args.seed)
    return 0 if failures == 0 else 3


@functools.cache  # parse_args leaves the parser as it was: build it once
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccs",
        description="Evaluate degree-three characteristic values of "
                    "SL(2,C) bar-complex cycles.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tolerance=True):
        p.add_argument("--out", help="write the JSON result to this file")
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, help=f"comparison "
                           f"tolerance cmp (default {config.CMP:g})")

    p = sub.add_parser("eval", help="evaluate a cycle file")
    p.add_argument("cycle")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--trials", type=_at_least(1), default=5)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-cycle", help="validate a chain file and test d=0")
    p.add_argument("cycle")
    common(p)
    p.set_defaults(func=cmd_check_cycle)

    p = sub.add_parser("torsion", help="emit a rotation torsion cycle")
    p.add_argument("--n", type=_at_least(2), required=True)
    common(p, tolerance=False)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("five-term",
                       help="emit (or verify) a five-term boundary fixture")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--verify", action="store_true",
                   help="evaluate the fixture instead of emitting it")
    p.add_argument("--seed", type=_at_least(0), default=0)
    common(p, tolerance=False)
    p.set_defaults(func=cmd_five_term)

    p = sub.add_parser("real-check", help="run the small-positive agreement suite")
    p.add_argument("--samples", type=_at_least(1), default=500)
    p.add_argument("--seed", type=_at_least(0), default=0)
    common(p, tolerance=False)
    p.set_defaults(func=cmd_real_check)

    p = sub.add_parser("lift-path", help="lift a composite winding loop")
    p.add_argument("--p0", type=int, default=0)
    p.add_argument("--q0", type=int, default=0)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--p1", type=int, default=0)
    p.add_argument("--q1", type=int, default=0)
    p.add_argument("--base",
                   help="base point as 'x,y' (default: 0.25+0.5j,0.5+1.5j)")
    common(p, tolerance=False)
    p.set_defaults(func=cmd_lift_path)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except CcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    return code


if __name__ == "__main__":
    sys.exit(main())
