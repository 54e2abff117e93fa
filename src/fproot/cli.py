"""Command-line surface.

Subcommands: spectral, quiver, fp-scan, resolve, tables.  All machine output
is JSON (or CSV/DOT where stated), deterministic for a fixed seed: rationals
travel as 'p/q' strings, floats appear only in estimate fields (a non-finite
one as null), and keys are sorted before serialization.

Exit codes: 0 success, 2 parse error, 3 budget exhaustion with partial
output, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .exactlin import InvariantViolation, RatMatrix, rat_str
from .spectral import SpectralError, matrix_from_json, rho_extended
from .quiver import (QuiverError, classify_underlying_graph, cycle_number,
                     quiver_from_json, quiver_fpdim, quiver_to_dot)
from .algebra import AlgebraError, algebra_from_json
from . import repmod
from .repmod import (Representation, RepresentationError, hom_dim, is_brick,
                     is_isomorphic_brick, minimal_resolution, module_from_json,
                     simple, simples)
from .fpcore import (ExtCalculator, FpBudgets, complexity_estimate,
                     ext_assignment, fp_report)
from .tables import surface_grid_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _strict(x):
    """x with every non-finite float replaced by None, so that it serializes
    as strict JSON (null instead of a bare Infinity or NaN)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return x


def _emit(payload, out_path, fmt="json"):
    if fmt == "json":
        text = json.dumps(_strict(payload), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        text = payload
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
        _emit(quiver_to_dot(q), args.out, fmt="raw")
    return EXIT_OK


# the sampler's entries, built once: Fractions are immutable and shared
_SMALL = {k: Fraction(k) for k in range(-2, 3)}


def _random_representation(alg, dimvec, rng):
    """One random sample at a dimension vector: each arrow matrix is either
    zero (often the only way to satisfy the relations) or small random."""
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dimvec[a.target], dimvec[a.source]
        if rng.random() < 0.4:
            maps[a.label] = RatMatrix.zeros(r, c)
        else:
            maps[a.label] = RatMatrix(
                [[_SMALL[rng.randint(-2, 2)] for _ in range(c)]
                 for _ in range(r)], cols=c)
    try:
        return Representation(alg, dimvec, maps, check=True)
    except RepresentationError:
        return None


def _dimension_vectors(vertices, budget):
    def rec(i, left):
        if i == len(vertices):
            yield {}
            return
        for d in range(left + 1):
            for rest in rec(i + 1, left - d):
                yield {vertices[i]: d, **rest}
    for dv in rec(0, budget):
        if sum(dv.values()) >= 1:
            yield dv


def scan_candidates(alg, dim_budget, seed, samples_per_dimvec=40,
                    max_candidates=64):
    """Deterministic brick-candidate generation for an arbitrary algebra.

    Simples and projectives are always included; the rest comes from seeded
    random sampling at every dimension vector within the budget, with exact
    brick verification and exact isomorphism dedup.  Returns (candidates,
    truncated_flag).
    """
    rng = random.Random(seed)
    cands = []

    def push(rep):
        if len(cands) >= max_candidates:
            return False
        if any(is_isomorphic_brick(rep, c) for c in cands):
            return True
        cands.append(rep)
        return True

    for s in simples(alg):
        push(s)
    for v in alg.quiver.vertices:
        p = repmod.projective(alg, v)
        if not p.is_zero() and is_brick(p):
            push(p)

    truncated = False
    for dv in sorted(_dimension_vectors(list(alg.quiver.vertices), dim_budget),
                     key=lambda d: (sum(d.values()), tuple(sorted(d.items())))):
        for _ in range(samples_per_dimvec):
            rep = _random_representation(alg, dv, rng)
            if rep is None or rep.is_zero():
                continue
            if is_brick(rep):
                named = rep.rename(
                    "B(" + ",".join(str(dv[v]) for v in alg.quiver.vertices)
                    + f")#{len(cands)}")
                if not push(named):
                    truncated = True
                    break
        if truncated:
            break
    return cands, truncated


def cmd_fp_scan(args) -> int:
    with open(args.algebra) as fh:
        alg = algebra_from_json(fh.read())
    cands, truncated = scan_candidates(alg, args.budget_dim, args.seed,
                                       max_candidates=args.max_candidates)
    budgets = FpBudgets(max_set_size=args.budget_set_size,
                        max_power=args.budget_power,
                        dim_budget=args.budget_dim,
                        extra={"seed": args.seed,
                               "max_candidates": args.max_candidates,
                               "candidate_count": len(cands)})
    report = fp_report(cands, ext_assignment(alg), budgets,
                       truncated=truncated)
    payload = {"tool": {"name": "fproot", "version": __version__},
               **report.as_dict()}
    if args.format == "csv":
        _emit(report.to_csv(), args.out, fmt="raw")
    else:
        _emit(payload, args.out)
    return EXIT_BUDGET if truncated else EXIT_OK


def cmd_resolve(args) -> int:
    with open(args.algebra) as fh:
        alg = algebra_from_json(fh.read())
    if args.module:
        with open(args.module) as fh:
            m = module_from_json(alg, fh.read())
    elif args.simple:
        m = simple(alg, args.simple)
    else:
        raise AlgebraError("resolve needs --module FILE or --simple VERTEX")
    res = minimal_resolution(m, args.depth)
    pattern = [{v: k for v, k in res.multiplicities(i).items() if k}
               for i in range(len(res.steps))]
    table = repmod.ext_simple_table(alg, args.depth)
    comp = complexity_estimate(alg, max(args.depth, 4))
    calc = ExtCalculator(alg)
    ext_to_simples = {
        v: [calc.ext(i, m, simple(alg, v)) for i in range(args.depth + 1)]
        for v in alg.quiver.vertices}
    payload = {
        "tool": {"name": "fproot", "version": __version__},
        "module": m.name,
        "depth": args.depth,
        "resolution": {
            "multiplicities": pattern,
            "finite_length": res.length,
        },
        "ext_module_to_simples": ext_to_simples,
        "ext_simple_pairs": {f"{i}->{j}": dims
                             for (i, j), dims in sorted(table.items())},
        "complexity": {"estimate": comp.cx_estimate,
                       "curvature": comp.fpv_estimate,
                       "agc_holds": comp.agc.holds},
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_tables(args) -> int:
    text = surface_grid_csv(args.surface, radius=args.range, genus=args.genus)
    _emit(text, args.out, fmt="raw")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fproot",
        description="Frobenius-Perron invariants of quivers, bound quiver "
                    "algebras and their module categories")
    p.add_argument("--version", action="version", version=f"fproot {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="spectral radius of a matrix file "
                                         "(entries may be p/q, inf, -inf)")
    sp.add_argument("matrix")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectral)

    qp = sub.add_parser("quiver", help="quiver invariants")
    qp.add_argument("quiver")
    qp.add_argument("action", choices=["fpdim", "cycles", "classify", "dot"])
    qp.add_argument("--out")
    qp.set_defaults(func=cmd_quiver)

    fp = sub.add_parser("fp-scan", help="brick scan and fp report for an "
                                        "algebra file")
    fp.add_argument("algebra")
    fp.add_argument("--budget-dim", type=int, default=5,
                    help="max total dimension for candidate generation")
    fp.add_argument("--budget-set-size", type=int, default=4)
    fp.add_argument("--budget-power", type=int, default=2)
    fp.add_argument("--max-candidates", type=int, default=64)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--out")
    fp.add_argument("--format", choices=["json", "csv"], default="json")
    fp.set_defaults(func=cmd_fp_scan)

    rp = sub.add_parser("resolve", help="minimal resolution and Ext tables")
    rp.add_argument("algebra")
    rp.add_argument("--module", help="module JSON file")
    rp.add_argument("--simple", help="vertex label of a simple module")
    rp.add_argument("--depth", type=int, default=8)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_resolve)

    tp = sub.add_parser("tables", help="closed-form fp tables as CSV")
    tp.add_argument("surface",
                    choices=["p1-twist", "p1-serre", "a2", "polyring"])
    tp.add_argument("--range", type=int, default=6)
    tp.add_argument("--genus", type=int, default=3)
    tp.add_argument("--out")
    tp.set_defaults(func=cmd_tables)
    return p


def dispatch(args) -> int:
    try:
        return args.func(args)
    except InvariantViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SpectralError, QuiverError, AlgebraError, RepresentationError,
            FileNotFoundError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def run(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


def main():  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
