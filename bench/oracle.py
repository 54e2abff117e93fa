"""Result checks for every job the benchmark runs.

* spectral matrices and `quiver ... fpdim`: the Perron root from mpmath
  eigenvalues at 25 digits, taken block by block over the strongly connected
  components found here (not by the program).  A certified value must match
  to 1e-12 relative and carry tolerance 0; an uncertified one must lie within
  its declared tolerance.
* `quiver ... cycles`: first-return closed walks counted by matrix powers.
* `quiver ... classify`: the family the quiver was built from.
* `resolve` on radical-square-zero and hereditary algebras: the closed-form
  multiplicities of the minimal resolution of a simple (row v of A^n, or
  e_v, row v of A) and the Ext tables they determine.
* all `scan` and `resolve` jobs: the mathematical fields of reference
  outputs recorded by `record_refs.py` over the whole job universe.

A non-finite number and a `null` in its place count as equal, so that a later
strict-JSON encoding of infinity still passes.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import mpmath

mpmath.mp.dps = 25
REL = 1e-12
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _reject_constant(name):
    raise ValueError(name)


def is_strict_json(text):
    """False when the text holds a bare Infinity/NaN (not valid JSON)."""
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------

def _nonfinite(x):
    return x is None or (isinstance(x, float) and not math.isfinite(x))


def same(a, b, slack=0.0, path="$"):
    """None when a (observed) matches b (reference), else a reason."""
    if _nonfinite(a) and _nonfinite(b):
        return None
    if isinstance(b, bool) or isinstance(a, bool):
        return None if a is b else f"{path}: {a!r} != {b!r}"
    if isinstance(b, (int, float)) and isinstance(a, (int, float)):
        if _nonfinite(a) or _nonfinite(b):
            return f"{path}: {a!r} != {b!r}"
        if isinstance(a, int) and isinstance(b, int):
            return None if a == b else f"{path}: {a} != {b}"
        if abs(a - b) <= max(REL * max(abs(a), abs(b)), slack):
            return None
        return f"{path}: {a!r} != {b!r}"
    if isinstance(b, dict):
        if not isinstance(a, dict) or set(a) != set(b):
            return f"{path}: keys differ"
        for k in sorted(b):
            why = same(a[k], b[k], slack, f"{path}.{k}")
            if why:
                return why
        return None
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            why = same(x, y, slack, f"{path}[{i}]")
            if why:
                return why
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def math_fields(workload, payload):
    """The mathematical part of a scan or resolve payload: numbers, certified
    flags, candidate counts, multiplicities and Ext dimensions."""
    if workload == "scan":
        return {
            "candidate_count": len(payload["candidates"]),
            "truncated": payload["truncated"],
            "grid": [{k: c[k] for k in ("set_size", "power", "value",
                                        "certified", "tolerance")}
                     for c in payload["grid"]],
            "aggregates": payload["aggregates"],
        }
    return {k: v for k, v in payload.items() if k != "tool"}


def load_refs(workload):
    path = os.path.join(REF_DIR, f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)


def check_reference(workload, ref, rc, payload):
    if ref is None:
        return "no reference output for this job"
    if rc != ref["rc"]:
        return f"exit code {rc}, reference {ref['rc']}"
    fields, want = math_fields(workload, payload), ref["fields"]
    if workload == "scan":
        # an uncertified grid value may move within its declared tolerance
        grid, want_grid = fields.pop("grid"), want["grid"]
        want = {k: v for k, v in want.items() if k != "grid"}
        if len(grid) != len(want_grid):
            return f"grid has {len(grid)} cells, reference {len(want_grid)}"
        for i, (cell, cref) in enumerate(zip(grid, want_grid)):
            why = same(cell, cref, cref["tolerance"], f"$.grid[{i}]")
            if why:
                return why
    return same(fields, want)


# ---------------------------------------------------------------------------
# spectral radius oracle
# ---------------------------------------------------------------------------

def _parse_entry(x):
    if x in ("inf", "+inf"):
        return math.inf
    return Fraction(str(x))


def _reach(n, adj):
    """reach[i] = vertices reachable from i by a walk of length >= 1."""
    out = []
    for i in range(n):
        seen, stack = set(), [i]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
    return out


def blocks(rows):
    """(diagonal blocks of the strongly connected components, True when a
    +inf entry lies on a cycle) for a matrix whose entries may be +inf."""
    m = [[_parse_entry(x) for x in row] for row in rows]
    n = len(m)
    reach = _reach(n, [[j for j in range(n) if m[i][j]] for i in range(n)])
    # the nonzero entry (i, j) lies on a cycle iff j reaches i
    inf_on_cycle = any(m[i][j] == math.inf and i in reach[j]
                       for i in range(n) for j in range(n))
    out, done = [], set()
    for i in range(n):
        if i not in done:
            block = [i] + [j for j in range(n)
                           if j != i and j in reach[i] and i in reach[j]]
            done.update(block)
            out.append([[m[a][b] for b in block] for a in block])
    return out, inf_on_cycle


def perron_root(rows):
    """max |eigenvalue| of a nonnegative matrix whose entries may be +inf,
    as an mpf (or math.inf).  An +inf entry on a cycle makes the radius
    infinite; one off every cycle is irrelevant."""
    diag, inf_on_cycle = blocks(rows)
    if inf_on_cycle:
        return math.inf
    best = mpmath.mpf(0)
    for block in diag:
        sub = [[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in block]
        if len(sub) == 1:
            best = max(best, sub[0][0])
            continue
        ev = mpmath.eig(mpmath.matrix(sub), left=False, right=False)
        best = max(best, max(abs(e) for e in ev))
    return best


def check_radius(sv, expected):
    """sv: {"rho", "certified", "tolerance"} as printed."""
    if not isinstance(sv, dict):
        return "no spectral value"
    rho, cert, tol = sv.get("rho"), sv.get("certified"), sv.get("tolerance")
    if expected == math.inf:
        return None if rho is None or rho == math.inf else \
            f"rho {rho!r}, expected +inf"
    if not isinstance(rho, (int, float)) or _nonfinite(rho):
        return f"rho {rho!r}, expected {mpmath.nstr(expected, 17)}"
    err = abs(mpmath.mpf(rho) - expected)
    if cert is True:
        if tol != 0:
            return f"certified value with tolerance {tol!r}"
        if err > REL * expected:
            return f"certified rho {rho!r} off by {mpmath.nstr(err, 3)}"
        return None
    if cert is not False or not isinstance(tol, (int, float)) or tol < 0:
        return f"bad certified/tolerance fields {cert!r}/{tol!r}"
    if err > tol:
        return f"uncertified rho {rho!r} off by {mpmath.nstr(err, 3)} > {tol}"
    return None


# ---------------------------------------------------------------------------
# quiver oracles
# ---------------------------------------------------------------------------

def quiver_matrix(doc):
    """(vertex labels, arrow-count matrix) of a quiver file."""
    verts = doc["vertices"]
    idx = {v: i for i, v in enumerate(verts)}
    a = [[0] * len(verts) for _ in verts]
    for arr in doc["arrows"]:
        a[idx[arr["from"]]][idx[arr["to"]]] += 1
    return verts, a


def cycle_counts(doc):
    """Per vertex v, the number of closed walks that leave v and first return
    to it, saturated at 2.  Two such walks, if they exist, show up within
    length 2n: two simple cycles through v, or one plus a detour around a
    cycle that meets it."""
    verts, a = quiver_matrix(doc)
    n = len(verts)
    per = {}
    for v in range(n):
        total = a[v][v]
        vec = [a[v][u] if u != v else 0 for u in range(n)]   # walks avoiding v
        for _ in range(2 * n):
            if total >= 2:
                break
            total += sum(vec[u] * a[u][v] for u in range(n) if u != v)
            vec = [sum(vec[u] * a[u][w] for u in range(n) if u != v)
                   if w != v else 0 for w in range(n)]
        per[verts[v]] = min(total, 2)
    return per, max(per.values()) if per else 0


# ---------------------------------------------------------------------------
# resolve closed forms
# ---------------------------------------------------------------------------

def check_closed_form(check, payload, labels):
    """labels: vertex labels of the algebra, index order."""
    depth = payload["depth"]

    def pattern(rows):
        out = []
        for row in rows:
            if not any(row):
                return out, len(out) - 1
            out.append({labels[w]: k for w, k in enumerate(row) if k})
        return out, None

    mult, length = pattern(check["multiplicities"])
    res = payload["resolution"]
    if res["multiplicities"] != mult:
        return "resolution multiplicities differ from row v of A^n"
    if res["finite_length"] != length:
        return f"finite_length {res['finite_length']!r}, expected {length!r}"
    rows = check["multiplicities"]
    want = {labels[w]: [rows[k][w] for k in range(depth + 1)]
            for w in range(len(labels))}
    if payload["ext_module_to_simples"] != want:
        return "ext_module_to_simples differs from the multiplicities"
    tables = check["tables"]
    want = {f"{labels[i]}->{labels[j]}":
            [tables[i][k][j] for k in range(depth + 1)]
            for i in range(len(labels)) for j in range(len(labels))}
    if payload["ext_simple_pairs"] != want:
        return "ext_simple_pairs differ from the multiplicities"
    return None


# ---------------------------------------------------------------------------
# one entry point
# ---------------------------------------------------------------------------

class Checker:
    """Checks (exit code, stdout) of a job; caches oracle values per job."""

    def __init__(self, workload):
        self.workload = workload
        self.refs = load_refs(workload) if workload in ("scan", "resolve") else {}
        self._expected = {}

    def check(self, job, rc, stdout):
        """None when the result is right, else the reason it is wrong."""
        if rc is None or not isinstance(stdout, str) or not stdout.strip():
            return f"no output (exit {rc!r})"
        try:
            payload = json.loads(stdout)
        except ValueError as e:
            return f"unparsable output: {e}"
        try:
            return self._check(job, rc, payload)
        except (KeyError, TypeError, AttributeError, IndexError) as e:
            return f"malformed output: {type(e).__name__}: {e}"

    def _check(self, job, rc, payload):
        check = job["check"]
        kind = check["kind"]
        if kind.startswith("reference"):
            why = check_reference(self.workload, self.refs.get(job["id"]),
                                  rc, payload)
            if why or kind == "reference":
                return why
            labels = [str(i + 1) for i in range(len(check["tables"]))]
            return check_closed_form(check, payload, labels)
        if rc != 0:
            return f"exit code {rc}"
        if kind in ("spectral", "quiver_fpdim"):
            key = job["id"]
            if key not in self._expected:
                rows = check.get("matrix") or quiver_matrix(check["quiver"])[1]
                self._expected[key] = perron_root(rows)
            sv = payload if kind == "spectral" else payload.get("fpdim")
            return check_radius(sv, self._expected[key])
        if kind == "quiver_cycles":
            per, theta = cycle_counts(check["quiver"])
            if payload["per_vertex"] != per or payload["theta"] != theta:
                return f"cycle numbers {payload['per_vertex']}/{payload['theta']}, " \
                       f"expected {per}/{theta}"
            return None
        if kind == "quiver_classify":
            got = (payload["family"], payload["rank"])
            want = (check["family"], check["rank"])
            return None if got == want else f"classified {got}, expected {want}"
        return f"unknown check kind {kind!r}"
