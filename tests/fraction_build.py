"""A test-only reference for the basis and normal forms of a bound quiver
algebra: the length-by-length construction of `fproot.algebra` run wholly
over `fractions.Fraction`, on the relations' own rational coefficients, with
textbook Gauss-Jordan (`gauss_jordan`) in place of the fraction-free
elimination.  Every normal-form coefficient it returns is a Fraction.
"""

from fractions import Fraction

from fproot.algebra import Path

from gauss_jordan import gauss_jordan


def _consequence(rel, v, nf, cindex):
    """Coordinates of rel * v on the candidate list, as Fractions."""
    vec = [Fraction(0)] * len(cindex)
    for coeff, p in rel:
        state = {v: Fraction(1)}
        for a in reversed(p.arrows[1:]):
            nxt = {}
            for bp, c in state.items():
                for tp, d in nf[(a, bp)].items():
                    nxt[tp] = nxt.get(tp, Fraction(0)) + c * d
            state = {k: x for k, x in nxt.items() if x}
        for bp, c in state.items():
            vec[cindex[(p.arrows[0], bp)]] += Fraction(coeff) * c
    return vec


def fraction_build(quiver, relations):
    """(basis, normal forms) of kQ/(R) for a quiver and normalized relations
    (BoundAlgebra.relations): the basis paths ordered by length then
    creation, and {(arrow label, basis path): {basis path: Fraction}} for
    every basis path an arrow composes with below the top length."""
    levels = [[Path((), v, v) for v in quiver.vertices]]
    nf = {}
    while levels[-1]:
        length = len(levels) - 1
        candidates = [(a.label, p) for p in levels[-1] for a in quiver.arrows
                      if a.source == p.target]
        cindex = {c: i for i, c in enumerate(candidates)}
        rows = [_consequence(rel, v, nf, cindex) for rel in relations
                if len(rel[0][1]) <= length + 1
                for v in levels[length + 1 - len(rel[0][1])]
                if v.target == rel[0][1].source]
        reduced, pivots = gauss_jordan(rows, len(candidates))
        new = {i: Path((a,) + p.arrows, p.source, quiver.arrow(a).target)
               for i, (a, p) in enumerate(candidates) if i not in pivots}
        for i, path in new.items():
            nf[candidates[i]] = {path: Fraction(1)}
        for row, i in zip(reduced, pivots):
            nf[candidates[i]] = {new[j]: -x for j, x in enumerate(row) if x and j != i}
        levels.append(list(new.values()))
    return tuple(p for level in levels for p in level), nf
