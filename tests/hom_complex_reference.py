"""A test-only reference for Ext: dim Ext^i(M, N) read off the Hom complex
of a minimal projective resolution of M, independent of the dimension shift
in `fproot.repmod.ext_from_resolution`.  It applies Hom(-, N) to the
resolution and takes dim Hom(P_i, N) minus the ranks of the two
differentials at P_i, computed from the stored differential entries and
path columns of N.
"""

from itertools import accumulate

from fproot.exactlin import rank_of_rows


def hom_complex_rank(res, n, i):
    """Rank of Hom(P_{i-1}, n) -> Hom(P_i, n) induced by the differential,
    whose blocks are sums of c times path matrices, read column by column."""
    col_off = list(accumulate((n.dimvec[v] for v in res.steps[i - 1].generators),
                              initial=0))
    rows = []
    for gv, entry in zip(res.steps[i].generators, res.steps[i].differential):
        block = [[0] * col_off[-1] for _ in range(n.dimvec[gv])]
        for (pcopy, ppath), c in entry.items():
            for b in range(n.dimvec[ppath.source]):
                for a, x in enumerate(n.path_column(ppath, b)):
                    if x:
                        block[a][col_off[pcopy] + b] += c * x
        rows += block
    return rank_of_rows(rows)


def ext_by_hom_complex(res, n, i):
    """dim Ext^i(res.module, n) from the Hom complex; 0 past the last step
    of res."""
    if i >= len(res.steps):
        return 0
    dim_ci = sum(n.dimvec[v] for v in res.steps[i].generators)
    rank_in = hom_complex_rank(res, n, i) if i >= 1 else 0
    rank_out = hom_complex_rank(res, n, i + 1) if i + 1 < len(res.steps) else 0
    return dim_ci - rank_in - rank_out
