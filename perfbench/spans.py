"""Span recording from outside the program.

`Tracer.patch()` replaces public functions and methods of `bwlab` modules
with wrappers that record one span per call: the wrapped name, the parent
span, start and end (`time.perf_counter`), and whether the call raised.  A
function bound into several modules by `from .x import f` is replaced in each
of them.  Spans stay in memory in flat arrays; `save()` writes them all once.
`unpatch()` restores every original, so untraced ops run the unmodified code.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, metric of the layer's self time).  A dotted attribute is
# a method on a class.
TARGETS = (
    ("bwlab.cli", "main", "cli.self_s"),
    ("bwlab.config", "parse_config", "config.parse_s"),
    ("bwlab.report", "base_report", "report.render_s"),
    ("bwlab.report", "energy_section", "report.render_s"),
    ("bwlab.report", "controversy_section", "report.render_s"),
    ("bwlab.report", "render_json", "report.render_s"),
    ("bwlab.report", "render_table", "report.render_s"),
    ("bwlab.pipeline", "run_pipeline", "pipeline.self_s"),
    ("bwlab.identities", "identity_suite", "identities.suite_self_s"),
    ("bwlab.identities", "suite_passes", "identities.suite_self_s"),
    ("bwlab.model", "build_spectrum", "model.build_s"),
    ("bwlab.model", "build_basis", "model.build_s"),
    ("bwlab.model", "build_interaction", "model.build_s"),
    ("bwlab.operators", "projectors", "operators.build_s"),
    ("bwlab.operators", "build_D", "operators.build_s"),
    ("bwlab.operators", "build_Dc", "operators.build_s"),
    ("bwlab.operators", "build_Hc", "operators.build_s"),
    ("bwlab.operators", "build_HDelta1", "operators.build_s"),
    ("bwlab.operators", "build_G0", "operators.build_s"),
    ("bwlab.bw", "solve_no_pair", "bw.no_pair_s"),
    ("bwlab.bw", "bw_selfconsistent", "bw.fixed_point_s"),
    ("bwlab.bw", "bw_terms", "bw.fixed_point_s"),
    ("bwlab.bw", "Resolvent.__init__", "bw.resolvent_s"),
    ("bwlab.bw", "Resolvent.apply", "bw.resolvent_s"),
    ("bwlab.bw", "Resolvent.matrix", "bw.resolvent_s"),
    ("bwlab.controversy", "h_delta2_ladder", "controversy.ladder_s"),
    ("bwlab.controversy", "ladder_kernel", "controversy.ladder_s"),
    ("bwlab.controversy", "deltaE1_direct", "controversy.conventions_s"),
    ("bwlab.controversy", "deltaE2b_direct", "controversy.conventions_s"),
    ("bwlab.controversy", "combined_variant", "controversy.conventions_s"),
    ("bwlab.controversy", "predicted_discrepancy", "controversy.conventions_s"),
    ("bwlab.controversy", "model_oracle", "controversy.model_oracle_s"),
    ("bwlab.controversy", "coupling_scan", "controversy.scan_self_s"),
    ("bwlab.controversy", "fit_power_law", "controversy.scan_self_s"),
    ("bwlab.propagators", "xj_matrix", "propagators.xj_s"),
    ("bwlab.propagators", "xj_matrix_ssum_route", "propagators.xj_ssum_s"),
    ("bwlab.propagators", "sandwich_integral", "propagators.sandwich_s"),
    ("bwlab.propagators", "ChainIntegrator.finv_product", "propagators.chain_s"),
    ("bwlab.propagators", "ChainIntegrator.ssum_product", "propagators.chain_s"),
    ("bwlab.residues", "pole_product_integral", "residues.pole_integral_s"),
    ("bwlab.quadrature", "quadrature_oracle", "quadrature.oracle_s"),
    ("bwlab.quadrature", "quadrature_finv", "quadrature.oracle_s"),
    ("bwlab.quadrature", "quadrature_chain", "quadrature.oracle_s"),
)

# Calls whose arguments or result feed a count: name -> extractor.
_NOTES = {
    "bwlab.propagators.xj_matrix": lambda args, result: ("direct", args["E"], args["order"]),
    "bwlab.propagators.xj_matrix_ssum_route":
        lambda args, result: ("ssum", args["E"], args["order"]),
    "bwlab.bw.bw_selfconsistent": lambda args, result: result.iterations,
}


_QUADRATURE = ("bwlab.quadrature.quadrature_oracle", "bwlab.quadrature.quadrature_finv",
               "bwlab.quadrature.quadrature_chain")


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr, _ in TARGETS]
        self.metrics = [metric for _, _, metric in TARGETS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.notes = {name: [] for name in _NOTES}
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, name):
        nid = self.name_id[name]
        note = _NOTES.get(name)
        sig = inspect.signature(fn) if note else None
        names, parents, starts, ends, raised = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
            self.span_raised,
        )
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if note:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.notes[name].append(note(bound.arguments, result))
            return result

        return wrapper

    def patch(self):
        """Wrap every target in every `bwlab` module that binds it."""
        if self._saved:
            raise RuntimeError("already patched")
        modules = [m for n, m in sys.modules.items() if n == "bwlab" or n.startswith("bwlab.")]
        for (mod_name, attr, _), name in zip(TARGETS, self.names):
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def unpatch(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def mark(self):
        """Position to pass to `summary` for the spans recorded after now."""
        return len(self.span_start), {k: len(v) for k, v in self.notes.items()}

    def summary(self, mark):
        """Per-layer self time, per-name calls and the derived counts of the
        spans recorded since `mark`."""
        first, note_marks = mark
        # slicing an array.array copies it, so no buffer of the live arrays
        # stays exported (which would block further appends)
        name = np.frombuffer(self.span_name[first:], dtype=np.int32)
        parent = np.frombuffer(self.span_parent[first:], dtype=np.int64) - first
        dur = np.frombuffer(self.span_end[first:]) - np.frombuffer(self.span_start[first:])
        raised = np.frombuffer(self.span_raised[first:], dtype=np.int8)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(self.names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
        calls_by_name = np.bincount(name, minlength=n_names)
        raised_by_name = np.bincount(name, weights=raised, minlength=n_names)

        layer_self = dict.fromkeys(self.metrics, 0.0)
        for metric, value in zip(self.metrics, self_by_name):
            layer_self[metric] += float(value)

        # a chain lookup that computed no pole integral was served from cache
        chain_ids = [self.name_id["bwlab.propagators.ChainIntegrator.finv_product"],
                     self.name_id["bwlab.propagators.ChainIntegrator.ssum_product"]]
        pole_id = self.name_id["bwlab.residues.pole_product_integral"]
        is_chain = np.isin(name, chain_ids)
        pole_parents = parent[(name == pole_id) & has_parent]
        computed = np.zeros(len(dur), dtype=bool)
        computed[pole_parents] = True
        lookups = int(is_chain.sum())
        hits = int((is_chain & ~computed).sum())

        def calls(*full_names):
            return int(sum(calls_by_name[self.name_id[n]] for n in full_names))

        notes = {k: v[note_marks[k]:] for k, v in self.notes.items()}
        builds = notes["bwlab.propagators.xj_matrix"] + notes["bwlab.propagators.xj_matrix_ssum_route"]
        return {
            "layer_self_s": layer_self,
            "spans": int(len(dur)),
            "counts": {
                "propagators.xj_builds": calls("bwlab.propagators.xj_matrix"),
                "propagators.xj_ssum_builds": calls("bwlab.propagators.xj_matrix_ssum_route"),
                "propagators.xj_distinct_ratio":
                    len(set(builds)) / len(builds) if builds else 1.0,
                "propagators.chain_cache_hit_ratio": hits / lookups if lookups else 1.0,
                "residues.pole_integrals": calls("bwlab.residues.pole_product_integral"),
                "bw.iterations": int(sum(notes["bwlab.bw.bw_selfconsistent"])),
                "bw.resolvent_solves": calls("bwlab.bw.Resolvent.apply",
                                             "bwlab.bw.Resolvent.matrix"),
                "controversy.ladder_calls": calls("bwlab.controversy.ladder_kernel"),
                "quadrature.calls": calls(*_QUADRATURE),
                "quadrature.failures":
                    int(sum(raised_by_name[self.name_id[n]] for n in _QUADRATURE)),
            },
        }

    def save(self, path):
        """Write every recorded span once (numpy .npz), without copying."""
        np.savez(
            path,
            names=np.array(self.names),
            metrics=np.array(self.metrics),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            raised=np.frombuffer(self.span_raised, dtype=np.int8),
        )
