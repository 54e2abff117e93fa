"""Spans around the public functions of every fproot layer, from outside.

`Tracer.install()` replaces each listed function in every `fproot.*`
namespace that binds it (repmod, fpcore and cli import functions by name),
and each listed method on its class.  Nothing under `src/` is edited.  A span
is (name, start, end, parent span); spans stay in memory until `write()`.

A span's self time is its duration minus the time its child spans cover, so
time spent in `fractions` or numpy counts toward the layer that called it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("exactlin", "spectral", "quiver", "algebra", "repmod", "fpcore", "cli")


def _rows_cols(args, result):
    return {"exactlin.rref.cells": args[0].rows * args[0].cols}


def _hom_unknowns(args, result):
    m, n = args[0], args[1]
    return {"repmod.hom.unknowns": sum(m.dimvec[v] * n.dimvec[v] for v in m.dimvec)}


def _steps(args, result):
    return {"repmod.minimal_resolution.steps": len(result.steps)}


def _path(args, result):
    return "certified" if result.certified else "numeric"


def _truth(args, result):
    return "true" if result else "false"


# (module, attribute, span name, tag(args, result), count(args, result));
# an attribute "Class.method" is patched on the class.  A tag splits the span
# name by outcome, e.g. spectral.rho.certified / spectral.rho.numeric.
WRAPPED = [
    ("exactlin", "rref", "exactlin.rref", None, _rows_cols),
    ("exactlin", "rank", "exactlin.rank", None, None),
    ("exactlin", "nullspace_basis", "exactlin.nullspace_basis", None, None),
    ("exactlin", "solve", "exactlin.solve", None, None),
    ("exactlin", "RatMatrix.__matmul__", "exactlin.matmul", None, None),
    ("spectral", "matrix_from_json", "spectral.matrix_from_json", None, None),
    ("spectral", "rho", "spectral.rho", _path, None),
    ("spectral", "rho_extended", "spectral.rho_extended", None, None),
    ("spectral", "rho_nonnegative_via_scc", "spectral.rho_nonnegative_via_scc", None, None),
    ("spectral", "spectral_radius", "spectral.spectral_radius", None, None),
    ("spectral", "characteristic_polynomial", "spectral.characteristic_polynomial", None, None),
    ("spectral", "largest_real_root", "spectral.largest_real_root", None, None),
    ("quiver", "quiver_from_json", "quiver.quiver_from_json", None, None),
    ("quiver", "quiver_fpdim", "quiver.quiver_fpdim", None, None),
    ("quiver", "simple_cycles", "quiver.simple_cycles", None, None),
    ("quiver", "cycle_number", "quiver.cycle_number", None, None),
    ("quiver", "classify_underlying_graph", "quiver.classify_underlying_graph", None, None),
    ("algebra", "algebra_from_json", "algebra.algebra_from_json", None, None),
    ("repmod", "Representation.path_matrix", "repmod.path_matrix", None, None),
    ("repmod", "simple", "repmod.simple", None, None),
    ("repmod", "projective", "repmod.projective", None, None),
    ("repmod", "projective_cover_multiplicities", "repmod.projective_cover_multiplicities", None, None),
    ("repmod", "hom", "repmod.hom", None, _hom_unknowns),
    ("repmod", "hom_dim", "repmod.hom_dim", None, None),
    ("repmod", "is_brick", "repmod.is_brick", _truth, None),
    ("repmod", "is_isomorphic_brick", "repmod.is_isomorphic_brick", _truth, None),
    ("repmod", "minimal_resolution", "repmod.minimal_resolution", None, _steps),
    ("repmod", "ext_from_resolution", "repmod.ext_from_resolution", None, None),
    ("repmod", "ext_simple_table", "repmod.ext_simple_table", None, None),
    ("fpcore", "ExtCalculator.ext", "fpcore.ext", None, None),
    ("fpcore", "ExtCalculator.resolution", "fpcore.resolution", None, None),
    ("fpcore", "Assignment.matrix", "fpcore.assignment_matrix", None, None),
    ("fpcore", "fp_report", "fpcore.fp_report", None, None),
    ("fpcore", "complexity_estimate", "fpcore.complexity_estimate", None, None),
    ("cli", "run", "cli.run", None, None),
    ("cli", "cmd_spectral", "cli.cmd_spectral", None, None),
    ("cli", "cmd_quiver", "cli.cmd_quiver", None, None),
    ("cli", "cmd_fp_scan", "cli.cmd_fp_scan", None, None),
    ("cli", "cmd_resolve", "cli.cmd_resolve", None, None),
    ("cli", "scan_candidates", "cli.scan_candidates", None, None),
]


class Tracer:
    def __init__(self):
        self.names = []            # span name by id
        self._name_ids = {}
        self.spans = []            # (name id, start, end, parent index or -1)
        self.counters = Counter()
        self._stack = [-1]
        self._undo = []

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn, tag, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock, nid, nid_of = time.perf_counter, self._nid(name), self._nid

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if tag is not None:
                spans[idx] = (nid_of(f"{name}.{tag(args, result)}"), start, end, parent)
            if count is not None:
                counters.update(count(args, result))
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from fproot import algebra, repmod
        modules = [m for name, m in sys.modules.items()
                   if name == "fproot" or name.startswith("fproot.")]
        for modname, attr, name, tag, count in WRAPPED:
            mod = importlib.import_module(f"fproot.{modname}")
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(mod, cls)
                self._patch(owner, meth, self._span(name, getattr(owner, meth), tag, count))
                continue
            orig = getattr(mod, attr)
            new = self._span(name, orig, tag, count)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, new)
        self._count_only(algebra.BoundAlgebra, "left_multiply", "algebra.left_multiply.calls")
        self._count_representations(repmod)

    def _count_only(self, owner, attr, counter):
        orig, counters = getattr(owner, attr), self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return orig(*args, **kwargs)
        self._patch(owner, attr, wrapper)

    def _count_representations(self, repmod):
        """Checked Representation constructions, and those rejected because
        a relation does not vanish (or a shape is wrong)."""
        orig, counters = repmod.Representation.__init__, self.counters

        def wrapper(self_, algebra, dimvec, maps, name="", check=True):
            try:
                orig(self_, algebra, dimvec, maps, name, check)
            except repmod.RepresentationError:
                counters["repmod.representation.rejected"] += bool(check)
                raise
            finally:
                counters["repmod.representation.checked"] += bool(check)
        self._patch(repmod.Representation, "__init__", wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        """One JSON line per span: [name, start, end, parent index]."""
        with open(path, "w") as fh:
            for nid, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")

    # -- aggregation -----------------------------------------------------
    def metrics(self, wall_s, passes):
        """Per-layer metrics of `passes` traced passes over the mix, which
        took wall_s in all; counts and times are given per pass."""
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        layer_self = Counter()
        roots = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            name, dur = names[nid], end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            layer_self[name.split(".")[0]] += dur - child[i]
            if parent < 0:
                roots += dur

        def name_of(i):
            return names[spans[i][0]]

        def under(i, prefix):
            """True when some ancestor of span i has a name starting with prefix."""
            p = spans[i][3]
            while p >= 0:
                if name_of(p).startswith(prefix):
                    return True
                p = spans[p][3]
            return False

        rho_idx = [i for i in range(len(spans)) if name_of(i).startswith("spectral.rho.")]
        scc_blocks = sum(1 for i in rho_idx if spans[i][3] >= 0
                         and name_of(spans[i][3]) == "spectral.rho_nonnegative_via_scc")
        fp_report_rho = sum(1 for i in rho_idx if under(i, "fpcore.fp_report"))
        resolved = {spans[i][3] for i in range(len(spans))
                    if name_of(i) == "repmod.minimal_resolution" and spans[i][3] >= 0
                    and name_of(spans[i][3]) == "fpcore.resolution"}
        requests = calls["fpcore.resolution"]
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        uncovered = wall_s - roots
        out = {
            "exactlin.rref.calls": calls["exactlin.rref"],
            "exactlin.rref.self_s": self_s["exactlin.rref"],
            "exactlin.rref.cells": c["exactlin.rref.cells"],
            "exactlin.nullspace_basis.calls": calls["exactlin.nullspace_basis"],
            "exactlin.matmul.calls": calls["exactlin.matmul"],
            "exactlin.matmul.self_s": self_s["exactlin.matmul"],
            "spectral.rho.certified_calls": calls["spectral.rho.certified"],
            "spectral.rho.numeric_calls": calls["spectral.rho.numeric"],
            "spectral.rho.certified_s": incl["spectral.rho.certified"],
            "spectral.rho.numeric_s": incl["spectral.rho.numeric"],
            "spectral.characteristic_polynomial.self_s":
                self_s["spectral.characteristic_polynomial"],
            "spectral.largest_real_root.self_s": self_s["spectral.largest_real_root"],
            "spectral.rho_nonnegative_via_scc.blocks": scc_blocks,
            "quiver.simple_cycles.calls": calls["quiver.simple_cycles"],
            "quiver.simple_cycles.self_s": self_s["quiver.simple_cycles"],
            "quiver.classify_underlying_graph.self_s":
                self_s["quiver.classify_underlying_graph"],
            "algebra.algebra_from_json.self_s": self_s["algebra.algebra_from_json"],
            "algebra.left_multiply.calls": c["algebra.left_multiply.calls"],
            "repmod.hom.calls": calls["repmod.hom"],
            "repmod.hom.self_s": self_s["repmod.hom"],
            "repmod.hom.unknowns": c["repmod.hom.unknowns"],
            "repmod.is_brick.calls": calls["repmod.is_brick.true"]
                + calls["repmod.is_brick.false"],
            "repmod.is_brick.true_ratio": ratio(
                calls["repmod.is_brick.true"],
                calls["repmod.is_brick.true"] + calls["repmod.is_brick.false"]),
            "repmod.is_isomorphic_brick.calls": calls["repmod.is_isomorphic_brick.true"]
                + calls["repmod.is_isomorphic_brick.false"],
            "repmod.is_isomorphic_brick.true_ratio": ratio(
                calls["repmod.is_isomorphic_brick.true"],
                calls["repmod.is_isomorphic_brick.true"]
                + calls["repmod.is_isomorphic_brick.false"]),
            "repmod.representation.rejected_ratio": ratio(
                c["repmod.representation.rejected"], c["repmod.representation.checked"]),
            "repmod.minimal_resolution.calls": calls["repmod.minimal_resolution"],
            "repmod.minimal_resolution.steps": c["repmod.minimal_resolution.steps"],
            "repmod.minimal_resolution.self_s": self_s["repmod.minimal_resolution"],
            "repmod.path_matrix.calls": calls["repmod.path_matrix"],
            "repmod.path_matrix.self_s": self_s["repmod.path_matrix"],
            "fpcore.ext.calls": calls["fpcore.ext"],
            "fpcore.resolution.calls": requests,
            "fpcore.resolution_reuse_ratio": ratio(requests - len(resolved), requests),
            "fpcore.complexity_estimate.self_s": self_s["fpcore.complexity_estimate"],
            "fpcore.fp_report.self_s": self_s["fpcore.fp_report"],
            "fpcore.fp_report.rho_calls": fp_report_rho,
            "cli.scan_candidates.self_s": self_s["cli.scan_candidates"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = uncovered
        out["trace.accounted_ratio"] = ratio(sum(layer_self.values()) + uncovered, wall_s)
        out["trace.spans"] = len(spans)
        return {k: v if k.endswith("_ratio") else v / passes for k, v in out.items()}
