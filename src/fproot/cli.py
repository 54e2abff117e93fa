"""Command-line surface.

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
import math
import random
import sys
from collections import Counter
from itertools import combinations_with_replacement, takewhile

from . import __version__
from .exactlin import InputError, InvariantViolation, RatMatrix, dump_json
from .spectral import matrix_from_json, rho_extended
from .quiver import (classify_underlying_graph, cycle_number, quiver_from_json,
                     quiver_fpdim, quiver_to_dot)
from .algebra import algebra_from_json
from . import repmod
from .repmod import (Representation, RepresentationError, ext_to_simples,
                     is_brick, minimal_resolution, module_from_json, simple,
                     simples)
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


def _random_maps(alg, dimvec, rng):
    """One random draw at a dimension vector (zeros may be left out),
    hashable: per arrow None for a zero map (often the only way to satisfy
    the relations), otherwise the integer rows of a small random matrix.
    Each entry is k - 2 for the first k = rng.getrandbits(3) below 5, the
    draw rng.randint(-2, 2) makes."""
    draw, bits = [], rng.getrandbits
    for a in alg.quiver.arrows:
        r, c = dimvec.get(a.target, 0), dimvec.get(a.source, 0)
        if rng.random() < 0.4:
            draw.append(None)
        else:  # r rows of c entries, grouped from one flat list
            flat = []
            for _ in range(r * c):
                k = bits(3)
                while k > 4:
                    k = bits(3)
                flat.append(k - 2)
            draw.append(tuple(zip(*[iter(flat)] * c)) if c else ((),) * r)
    return tuple(draw)


def _dimension_vectors(vertices, budget):
    """Every dimension vector of total 1..budget as its support (the nonzero
    counts, in the order of vertices), in scan order: by total, then by the
    counts in sorted-label order, which orders supports of one total as their
    (-position, count) pairs listed by sorted-label position do."""
    position = {v: i for i, v in enumerate(sorted(vertices))}
    dvs = [dict(Counter(picked)) for total in range(1, budget + 1)
           for picked in combinations_with_replacement(vertices, total)]
    return sorted(dvs, key=lambda d: (sum(d.values()), [(-i, k) for i, k in sorted(
        (position[v], k) for v, k in d.items())]))


def _brick_bound(alg, support):
    """The most bricks, up to isomorphism, that a support (a dimension vector
    as its nonzero counts) can hold, read off the support and the arrows
    inside it: 0 if those arrows leave it disconnected (every module there
    is a direct sum).  On a relation-free algebra, which is hereditary,
    dim End(X) - dim Ext^1(X, X) is the Tits form q(d) = sum_v d_v^2 -
    sum_{a: s->t} d_s d_t (Ringel), so there is none if q(d) > 1, and at
    most one if q(d) = 1: over the algebraic closure a brick stays a brick,
    the real root d has a unique indecomposable there (Kac), and
    Noether-Deuring brings the isomorphism back.  Else math.inf."""
    inner = [a for a in alg.quiver.arrows if a.source in support and a.target in support]
    reached = {next(iter(support))}
    for _ in support:
        reached.update(v for a in inner if a.source in reached or a.target in reached
                       for v in (a.source, a.target))
    if len(reached) < len(support):
        return 0
    if alg.relations:
        return math.inf
    tits = repmod.euler_form(alg, support, support)
    return 0 if tits > 1 else 1 if tits == 1 else math.inf


def scan_candidates(alg, dim_budget, seed, samples_per_dimvec=40,
                    max_candidates=64):
    """Deterministic brick-candidate generation for an arbitrary algebra.

    Simples and projectives come first, then seeded random draws at every
    dimension vector within the budget.  A draw repeated at one dimension
    vector is examined once, on its integer rows (None for a zero map): its
    relations (failing_relation), its End nullity (row_hom_dim) and, by one
    Hom system each, whether it is isomorphic to a candidate of its support
    (row_isomorphic_to_brick, exact since every candidate is a brick).  Only
    a brick new up to isomorphism meets the cap and is built as a module.
    The draws at a dimension vector stop being examined once its candidates
    reach _brick_bound, which certifies that no further brick there is new;
    all of them are still drawn, so the rng stream, the names and the output
    are those of the scan that examines every draw.
    Returns (candidates, truncated): capped at N, the scan lists the first N
    candidates of the uncapped scan, truncated iff that lists more than N.
    """
    rng, arrows = random.Random(seed), alg.quiver.arrows
    cands, rows_by_support = [], {}

    def admit(rows, module):  # False iff the cap refuses a new brick
        same = rows_by_support.setdefault(frozenset(rows[0].items()), [])
        if any(repmod.row_isomorphic_to_brick(arrows, rows, c) for c in same):
            return True
        if len(cands) >= max_candidates:
            return False
        cands.append(module())
        same.append(rows)
        return True

    projectives = (repmod.projective(alg, v) for v in alg.quiver.vertices)
    if not all(admit(m.rows, lambda: m) for m in simples(alg) + [
            p for p in projectives if is_brick(p)]):
        return cands, True
    vertices = alg.quiver.vertices
    for support in _dimension_vectors(vertices, dim_budget):
        # a repeated draw is, or matches, a candidate, or is no brick
        draws = dict.fromkeys(_random_maps(alg, support, rng)
                              for _ in range(samples_per_dimvec))
        most = _brick_bound(alg, support)
        same = rows_by_support.setdefault(frozenset(support.items()), [])
        for draw in draws:
            if len(same) >= most:
                break  # every brick left here is isomorphic to a candidate
            rows = (support, draw)
            if repmod.failing_relation(alg, rows) is None \
                    and repmod.row_hom_dim(arrows, rows, rows) == 1 \
                    and not admit(rows, lambda: Representation(
                        alg, support, {a.label: RatMatrix(r, support.get(a.source, 0))
                                       for a, r in zip(arrows, draw) if r is not None},
                        name=f"B({','.join(str(support.get(v, 0)) for v in vertices)})"
                             f"#{len(cands)}", check=False)):
                return cands, True
    return cands, False


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
    if args.module:
        with open(args.module) as fh:
            m = module_from_json(alg, fh.read())
        res = minimal_resolution(m, args.depth)
        pattern, length = res.multiplicity_pattern(), res.length
    else:
        m = simple(alg, args.simple)
    comp = complexity_estimate(alg, max(args.depth, 4))
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and max(map(max, comp.ext_table.values()), default=0) >= 10 ** digits:
        raise RepresentationError(f"an Ext dimension within depth {args.depth} has "
                                  f"more than {digits} digits, the int-to-string "
                                  "limit of this Python; lower --depth")
    if not args.module:
        # step n of S_v's resolution holds P_w dim Ext^n(S_v, S_w) times; the
        # resolution ends at its first empty step
        row = [(w, comp.ext_table[(args.simple, w)]) for w in alg.quiver.vertices]
        steps = ({w: dims[n] for w, dims in row if dims[n]} for n in range(args.depth + 1))
        pattern = list(takewhile(bool, steps))
        length = len(pattern) - 1 if len(pattern) <= args.depth else None
    payload = {
        "tool": {"name": "fproot", "version": __version__},
        "module": m.name,
        "depth": args.depth,
        "resolution": {
            "multiplicities": pattern,
            "finite_length": length,
        },
        "ext_module_to_simples": ext_to_simples(pattern, alg.quiver.vertices,
                                                args.depth),
        "ext_simple_pairs": {f"{i}->{j}": dims[:args.depth + 1]
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
    p = argparse.ArgumentParser(
        prog="fproot",
        description="Frobenius-Perron invariants of quivers, bound quiver "
                    "algebras and their module categories")
    p.add_argument("--version", action="version", version=f"fproot {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="spectral radius of a matrix file "
                                         "(entries may be p/q, inf, -inf)")
    sp.add_argument("matrix")

    qp = sub.add_parser("quiver", help="quiver invariants")
    qp.add_argument("quiver")
    qp.add_argument("action", choices=["fpdim", "cycles", "classify", "dot"])

    fp = sub.add_parser("fp-scan", help="brick scan and fp report for an "
                                        "algebra file")
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
    tp.add_argument("surface",
                    choices=["p1-twist", "p1-serre", "a2", "polyring"])
    tp.add_argument("--range", type=nonnegative, default=6)
    tp.add_argument("--genus", type=nonnegative, default=3)
    for command in sub.choices.values():
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
    args = build_parser().parse_args(argv)
    # looked up per call, not bound into the parser, so that a wrapper
    # installed later (a tracer, a test's monkeypatch) is the one called
    args.func = globals()["cmd_" + args.command.replace("-", "_")]
    return dispatch(args)


def main():  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
