"""Spans around grasseff's layers, recorded from the benchmark's own files.

`Tracer.install` replaces functions at the names their callers look up
(for example `cones.solve_nonneg_combination`, which `cones.cone_membership`
calls, or `orbits.rank`, which `orbit_dimension` calls) with wrappers that
record a span: name, start, end, parent span and the benchmark operation
it ran under. Spans stay in memory as int64 records and are written out by
`dump` when the round ends. Nothing under src/ changes.
"""

from __future__ import annotations

import json
import os
import time
from array import array

# (owner, attribute, span name); owner is a dotted path below grasseff.
LAYERS = (
    ("cones", "solve_nonneg_combination", "simplex.solve"),
    ("cones", "cone_membership", "cones.membership"),
    ("cones.ConeSpec", "build", "cones.build"),
    ("cones", "thm44_generators", "cones.build"),
    ("cones", "sgen_cycle_cone", "cones.build"),
    ("cones", "g24_sgen_cone", "cones.build"),
    ("cones", "lemma41_decompose", "cones.decompose"),
    ("cones", "lemma42_decompose", "cones.decompose"),
    ("cones", "quadric_curve_decompose", "cones.decompose"),
    ("cones", "g25_threecycle_decompose", "cones.decompose"),
    ("chow", "multiply", "chow.multiply"),
    ("chow", "pieri", "chow.pieri"),
    ("chow", "degree", "chow.degree"),
    ("chow", "enumerate_box", "partitions.enumerate"),
    ("multiplicity", "rz_multiplicity", "multiplicity.rz"),
    ("multiplicity", "det_bareiss", "linalg.det"),
    ("orbits", "rank", "linalg.rank"),
    ("orbits", "rref", "linalg.rref"),
    ("orbits", "reduce_mod", "linalg.reduce_mod"),
    ("orbits", "orbit_dimension", "orbits.dimension"),
    ("orbits", "oracle_check", "orbits.oracle"),
    ("orbits", "ff_rank", "orbits.ff_rank"),
    ("orbits", "enumerate_orbits", "orbits.enumerate"),
    ("radicals.RadicalNumber", "sign", "radicals.sign"),
    ("delpezzo", "verify_case", "delpezzo.verify_case"),
)

# per-layer metric -> (span name, what is summed); "calls" counts spans,
# "ms" sums the outermost spans of that name, "self_ms" sums each span's
# duration minus the time its child spans cover.
METRICS = {
    "simplex.solve_calls": ("simplex.solve", "calls"),
    "simplex.solve_ms": ("simplex.solve", "ms"),
    "cones.membership_self_ms": ("cones.membership", "self_ms"),
    "cones.build_ms": ("cones.build", "ms"),
    "cones.decompose_ms": ("cones.decompose", "ms"),
    "chow.multiply_calls": ("chow.multiply", "calls"),
    "chow.multiply_self_ms": ("chow.multiply", "self_ms"),
    "chow.pieri_calls": ("chow.pieri", "calls"),
    "chow.pieri_ms": ("chow.pieri", "ms"),
    "chow.degree_ms": ("chow.degree", "ms"),
    "partitions.enumerate_ms": ("partitions.enumerate", "ms"),
    "multiplicity.rz_calls": ("multiplicity.rz", "calls"),
    "multiplicity.rz_self_ms": ("multiplicity.rz", "self_ms"),
    "linalg.det_ms": ("linalg.det", "ms"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_ms": ("linalg.rank", "ms"),
    "linalg.rref_ms": ("linalg.rref", "ms"),
    "linalg.reduce_mod_calls": ("linalg.reduce_mod", "calls"),
    "linalg.reduce_mod_ms": ("linalg.reduce_mod", "ms"),
    "orbits.dimension_self_ms": ("orbits.dimension", "self_ms"),
    "orbits.oracle_ms": ("orbits.oracle", "ms"),
    "orbits.ff_rank_calls": ("orbits.ff_rank", "calls"),
    "orbits.enumerate_ms": ("orbits.enumerate", "ms"),
    "radicals.sign_calls": ("radicals.sign", "calls"),
    "radicals.sign_ms": ("radicals.sign", "ms"),
    "delpezzo.verify_case_self_ms": ("delpezzo.verify_case", "self_ms"),
}

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "outermost")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.next_id = 0
        self.op = -1  # index of the running benchmark operation; -1 in set-up

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        idx = self._name_index(name)
        clock = time.perf_counter_ns
        stack, depth, records = self.stack, self.depth, self.records

        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            depth[idx] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[idx] -= 1
                stack.pop()
                records.extend((span, idx, start, end, parent, self.op, depth[idx] == 0))

        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS; grasseff must be importable."""
        import importlib
        for owner_path, attr, name in LAYERS:
            module_name, _, cls_name = owner_path.partition(".")
            owner = importlib.import_module("grasseff." + module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def metrics(self, factors: list[float], setup_factor: float) -> dict[str, float]:
        """Per-layer metrics; each span's time is scaled by its operation's factor."""
        n = len(FIELDS)
        recs = self.records
        count = len(recs) // n
        dur = [0] * self.next_id
        child = [0] * self.next_id
        for r in range(count):
            base = r * n
            dur[recs[base]] = recs[base + 3] - recs[base + 2]
        for r in range(count):
            base = r * n
            if recs[base + 4] >= 0:
                child[recs[base + 4]] += dur[recs[base]]
        totals = {(name, kind): 0.0 for name, kind in METRICS.values()}
        for r in range(count):
            base = r * n
            span, name, op, outer = recs[base], self.names[recs[base + 1]], recs[base + 5], \
                recs[base + 6]
            factor = setup_factor if op < 0 else factors[op]
            if (name, "calls") in totals:
                totals[(name, "calls")] += 1
            if outer and (name, "ms") in totals:
                totals[(name, "ms")] += dur[span] * factor / 1e6
            if (name, "self_ms") in totals:
                totals[(name, "self_ms")] += (dur[span] - child[span]) * factor / 1e6
        return {metric: totals[key] for metric, key in METRICS.items()}

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header at path and the int64 records at path + '.bin'."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": FIELDS,
                       "spans": len(self.records) // len(FIELDS),
                       "records": os.path.basename(path) + ".bin"}, fh)
        with open(path + ".bin", "wb") as fh:
            self.records.tofile(fh)
