"""Command-line surface: parse the arguments, call the library, emit the
report; no module arithmetic (fp-scan's brick scan is repmod.scan_candidates).

Subcommands: spectral, quiver, fp-scan, resolve, tables.  All machine output
is JSON (or CSV/DOT where stated), deterministic for a fixed seed: rationals
travel as 'p/q' strings, floats appear only in estimate fields (a non-finite
one as null), and keys are sorted before serialization.

Exit codes: 0 success, 2 parse error (also an unreadable input file, an
unwritable --out and a negative count), 3 budget exhaustion with partial
output, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import takewhile

from . import __version__
from .exactlin import InputError, InvariantViolation, dump_json
from .spectral import matrix_from_json, rho_extended
from .quiver import (classify_underlying_graph, cycle_number, quiver_from_json,
                     quiver_fpdim, quiver_to_dot)
from .algebra import algebra_from_json
from .repmod import (ExtCalculator, RepresentationError, module_from_json,
                     scan_candidates, simple, simples)
from .fpcore import FpBudgets, complexity_estimate, ext_assignment, fp_report
from .tables import surface_grid_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _emit(payload, out_path):
    """Write payload to out_path or stdout: a str (DOT or CSV) as it is,
    anything else as sorted, strict JSON."""
    text = payload if isinstance(payload, str) else dump_json(payload) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectral_value_dict(sv):
    return {"rho": sv.value, "certified": sv.certified,
            "tolerance": sv.tolerance}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectral(args) -> int:
    with open(args.matrix) as fh:
        m = matrix_from_json(fh.read())
    sv = rho_extended(m)
    _emit({"tool": {"name": "fproot", "version": __version__},
           **_spectral_value_dict(sv)}, args.out)
    return EXIT_OK


def cmd_quiver(args) -> int:
    with open(args.quiver) as fh:
        q = quiver_from_json(fh.read())
    if args.action == "fpdim":
        _emit({"fpdim": _spectral_value_dict(quiver_fpdim(q))}, args.out)
    elif args.action == "cycles":
        cn = cycle_number(q)
        _emit({"per_vertex": cn.per_vertex, "theta": cn.theta,
               "theta_meaning": cn.describe()}, args.out)
    elif args.action == "classify":
        cls = classify_underlying_graph(q)
        _emit({"family": None if cls is None else cls[0],
               "rank": None if cls is None else cls[1]}, args.out)
    elif args.action == "dot":
        _emit(quiver_to_dot(q), args.out)
    return EXIT_OK


def cmd_fp_scan(args) -> int:
    with open(args.algebra) as fh:
        alg = algebra_from_json(fh.read())
    cands, truncated = scan_candidates(alg, args.budget_dim, args.seed,
                                       max_candidates=args.max_candidates)
    budgets = FpBudgets(max_set_size=args.budget_set_size,
                        max_power=args.budget_power,
                        extra={"dim_budget": args.budget_dim, "seed": args.seed,
                               "max_candidates": args.max_candidates,
                               "candidate_count": len(cands)})
    report = fp_report(cands, ext_assignment(alg), budgets)
    payload = {"tool": {"name": "fproot", "version": __version__},
               **report.as_dict(), "truncated": truncated}
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(payload, args.out)
    return EXIT_BUDGET if truncated else EXIT_OK


def cmd_resolve(args) -> int:
    with open(args.algebra) as fh:
        alg = algebra_from_json(fh.read())
    depth, verts = args.depth, alg.quiver.vertices
    if args.module:
        with open(args.module) as fh:
            m = module_from_json(alg, fh.read())
        calc = ExtCalculator(alg)
        ext = {w: [calc.ext(n, m, s) for n in range(depth + 1)]
               for w, s in zip(verts, simples(alg))}
    else:
        m = simple(alg, args.simple)
    comp = complexity_estimate(alg, max(depth, 4))
    if not args.module:
        ext = {w: comp.ext_table[(args.simple, w)][:depth + 1] for w in verts}
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = max(map(max, [*comp.ext_table.values(), *ext.values()]), default=0)
    if digits and top.bit_length() > 3 * digits and top >= 10 ** digits:  # exact: 10**d > 8**d
        raise RepresentationError(f"an Ext dimension within depth {depth} has "
                                  f"more than {digits} digits, the int-to-string "
                                  "limit of this Python; lower --depth")
    # step n of M's minimal resolution holds P_w dim Ext^n(M, S_w) times; the
    # resolution ends at its first empty step
    steps = ({w: dims[n] for w, dims in ext.items() if dims[n]} for n in range(depth + 1))
    pattern = list(takewhile(bool, steps))
    payload = {
        "tool": {"name": "fproot", "version": __version__},
        "module": m.name,
        "depth": depth,
        "resolution": {"multiplicities": pattern,
                       "finite_length": len(pattern) - 1 if len(pattern) <= depth else None},
        "ext_module_to_simples": ext,
        "ext_simple_pairs": {f"{i}->{j}": dims[:depth + 1]
                             for (i, j), dims in sorted(comp.ext_table.items())},
        "complexity": {"estimate": comp.cx_estimate,
                       "curvature": comp.fpv_estimate,
                       "agc_holds": comp.agc.holds},
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_tables(args) -> int:
    text = surface_grid_csv(args.surface, radius=args.range, genus=args.genus)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def nonnegative(text: str) -> int:
    """argparse type of the count options: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args returns a fresh
    namespace on each call, so one call's options never reach the next."""
    p = argparse.ArgumentParser(prog="fproot", description="Frobenius-Perron invariants of "
                                "quivers, bound quiver algebras and their module categories")
    p.add_argument("--version", action="version", version=f"fproot {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="spectral radius of a matrix file "
                                         "(entries may be p/q, inf, -inf)")
    sp.add_argument("matrix")

    qp = sub.add_parser("quiver", help="quiver invariants")
    qp.add_argument("quiver")
    qp.add_argument("action", choices=["fpdim", "cycles", "classify", "dot"])

    fp = sub.add_parser("fp-scan", help="brick scan and fp report for an algebra file")
    fp.add_argument("algebra")
    fp.add_argument("--budget-dim", type=nonnegative, default=5,
                    help="max total dimension for candidate generation")
    fp.add_argument("--budget-set-size", type=nonnegative, default=4)
    fp.add_argument("--budget-power", type=nonnegative, default=2)
    fp.add_argument("--max-candidates", type=nonnegative, default=64)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--format", choices=["json", "csv"], default="json")

    rp = sub.add_parser("resolve", help="minimal resolution and Ext tables")
    rp.add_argument("algebra")
    one = rp.add_mutually_exclusive_group(required=True)
    one.add_argument("--module", help="module JSON file")
    one.add_argument("--simple", help="vertex label of a simple module")
    rp.add_argument("--depth", type=nonnegative, default=8)

    tp = sub.add_parser("tables", help="closed-form fp tables as CSV")
    tp.add_argument("surface", choices=["p1-twist", "p1-serre", "a2", "polyring"])
    tp.add_argument("--range", type=nonnegative, default=6)
    tp.add_argument("--genus", type=nonnegative, default=3)
    p.commands = sub.choices  # name -> sub-parser; run parses through the one named
    for command in p.commands.values():
        command.add_argument("--out")
    return p


def dispatch(args) -> int:
    try:
        return args.func(args)
    except InvariantViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (InputError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def run(argv=None) -> int:
    # argv goes through the sub-parser it names, as the full parser passes it on; the
    # full parser sees only an unknown name or left-over arguments.  cmd_* is looked up
    # per call, so that a wrapper installed later (a tracer, a monkeypatch) is called
    argv, parser = sys.argv[1:] if argv is None else argv, build_parser()
    sub = argv and parser.commands.get(argv[0])
    args, extras = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
                    if sub else (None, True))
    args = parser.parse_args(argv) if extras else args
    args.func = globals()["cmd_" + args.command.replace("-", "_")]
    return dispatch(args)


def main():  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
