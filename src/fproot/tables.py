"""Closed-form fp-dimension tables for the classical worked examples.

These are pure case formulas, used as oracles for the engine and as CLI
output.  Case boundaries are the dominant risk, so the boundary rows and the
substitution identity relating the two projective-line tables are covered by
dedicated tests rather than trusted.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

from .spectral import NUMERIC_TOL


def p1_twist_surface(a: int, b: int) -> float:
    """fp dimension of (suspension^a compose degree-twist(b)) on the derived
    category of the projective line; the same at every set size n >= 1."""
    if a not in (0, 1):
        return 0.0
    if a == 0:
        return float(b + 1) if b >= 0 else 1.0
    return 1.0 if b >= -1 else float(-b - 1)


def p1_serre_surface(a: int, b: int) -> float:
    """fp dimension of (suspension^a compose Serre^b) on the projective line,
    the same at every set size n >= 1.

    The Serre functor is the suspension composed with the degree twist by -2,
    so this must equal p1_twist_surface(a + b, -2 b) everywhere.
    """
    s = a + b
    if s not in (0, 1):
        return 0.0
    if s == 0:
        return 1.0 if b > 0 else float(-(2 * b - 1))
    return 1.0 if b <= 0 else float(2 * b - 1)


def a2_surface(a: int, b: int) -> float:
    """fp dimension of (suspension^a compose Serre^b) for the linear
    two-vertex quiver: the indicator of 3a + b in {0, 1}, the same at every
    set size n >= 1."""
    return 1.0 if 3 * a + b in (0, 1) else 0.0


def polyring_surface(g: int, i: int) -> int:
    """fp dimension of suspension^i over a polynomial ring in g variables:
    the binomial coefficient (g choose i), zero outside 0 <= i <= g."""
    if g < 0:
        raise ValueError("need g >= 0")
    if i < 0 or i > g:
        return 0
    return math.comb(g, i)


_SURFACES = {
    "p1-twist": p1_twist_surface,
    "p1-serre": p1_serre_surface,
    "a2": a2_surface,
}


def surface_grid_csv(name: str, radius: int = 6, genus: int = 3) -> str:
    """CSV grid of a named surface, rows a = radius..-radius, columns
    b = -radius..radius (or a single binomial row for 'polyring')."""
    buf = io.StringIO()
    w = csv.writer(buf)
    if name == "polyring":
        w.writerow(["i"] + list(range(genus + 1)))
        w.writerow([f"g={genus}"] + [polyring_surface(genus, i)
                                     for i in range(genus + 1)])
        return buf.getvalue()
    if name not in _SURFACES:
        raise KeyError(f"unknown surface {name!r}; "
                       f"known: {sorted(_SURFACES)} and 'polyring'")
    f = _SURFACES[name]
    w.writerow(["a\\b"] + list(range(-radius, radius + 1)))
    for a in range(radius, -radius - 1, -1):
        w.writerow([a] + [f(a, b) for b in range(-radius, radius + 1)])
    return buf.getvalue()


@dataclass
class KroneckerCrossCheck:
    engine_values: dict     # set size -> engine fp dimension at power 1
    surface_value: float    # the closed-form value at (1, 0)
    quiver_value: float     # fp dimension of the Kronecker quiver itself
    agrees: bool
    strict_gap: bool        # category value strictly above the quiver value


def cross_check_kronecker(report, quiver_value: float) -> KroneckerCrossCheck:
    """Compare an engine scan over Kronecker modules with the closed-form
    projective-line table.

    The derived categories agree, so the engine's fpdim^n at power 1 must
    equal the Serre-table value at (1, 0) for every scanned set size, while
    the quiver's own fp dimension stays strictly below (the combinatorial
    invariant does not see the category).  Both comparisons allow the
    declared tolerance of an uncertified radius (spectral.NUMERIC_TOL).
    """
    surface = p1_serre_surface(1, 0)
    sizes = sorted({n for (n, m) in report.cells if m == 1})
    engine = {n: report.cells[(n, 1)].value.value for n in sizes}
    agrees = all(abs(v - surface) <= NUMERIC_TOL for v in engine.values())
    return KroneckerCrossCheck(engine, surface, quiver_value, agrees,
                               quiver_value < surface - NUMERIC_TOL)
