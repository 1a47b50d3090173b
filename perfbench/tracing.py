"""Spans around the public functions of each assoform module.

``Tracer.install()`` replaces every traced function at each of its import
sites (``from .linalg import rref`` binds a second name in ``ideals``, and
that name is rebound too), so calls between modules are recorded as well
as calls from the benchmark.  A span is (name, start, end, parent index);
spans stay in memory until ``write``.  Self time is a span's duration
minus the durations of its direct children.  A few counters are taken at
the same boundaries; their bookkeeping runs in a ``trace.count`` span so it
is not charged to any traced function.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "parsing": ["parse_system"],
    "poly": ["jacobian_det", "apolar_apply"],
    "linalg": ["rref", "rank", "kernel_basis", "row_space_basis", "solve_square",
               "in_row_space"],
    "ideals": ["GradedIdeal.graded_piece", "GradedIdeal.dim_piece",
               "GradedIdeal.contains", "is_regular_sequence", "hilbert_function",
               "koszul_matrices", "koszul_exactness_check", "min_nonideal_monomial",
               "intersect_with_coordinates"],
    "inverse_system": ["hilbert_point_functional", "associated_form", "perp_piece",
                       "milnor_associated_form"],
    "stability": ["torus_destabilizer", "binary_stability", "recognize_decomposable",
                  "degeneration_limit", "semistability_audit"],
    "invariants": ["mather_yau_point"],
    "cli": ["main"],
}

FUNCTIONS = [f"{module}.{name.split('.')[-1]}"
             for module, names in TRACED.items() for name in names]

# (metric, unit) beyond calls and self time
COUNTERS = [
    ("linalg.rref.cells", "count"),
    ("linalg.rref.max_bits", "bits"),
    ("linalg.rank.cells", "count"),
    ("linalg.rank.full_ratio", "ratio"),
    ("linalg.solve_square.found_ratio", "ratio"),
    ("stability.torus_destabilizer.found_ratio", "ratio"),
]


def _max_bits(result) -> int:
    reduced, _pivots = result
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in reduced.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts = {"linalg.rref.cells": 0, "linalg.rref.max_bits": 0,
                       "linalg.rank.cells": 0, "linalg.rank.full": 0,
                       "linalg.solve_square.found": 0,
                       "stability.torus_destabilizer.found": 0}

    # -- counters taken at the boundary --------------------------------------

    def _count(self, name, args, result):
        c = self.counts
        if name == "linalg.rref":
            c["linalg.rref.cells"] += args[0].rows * args[0].cols
            c["linalg.rref.max_bits"] = max(c["linalg.rref.max_bits"], _max_bits(result))
        elif name == "linalg.rank":
            c["linalg.rank.cells"] += args[0].rows * args[0].cols
            c["linalg.rank.full"] += result == min(args[0].rows, args[0].cols)
        elif name in ("linalg.solve_square", "stability.torus_destabilizer"):
            c[f"{name}.found"] += result is not None

    _COUNTED = {"linalg.rref", "linalg.rank", "linalg.solve_square",
                "stability.torus_destabilizer"}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counted = name in self._COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, clock(), 0.0, parent))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, spans[index][1], clock(), parent)
            if counted:
                start = clock()
                self._count(name, args, result)
                spans.append(("trace.count", start, clock(), parent))
            return result

        return traced

    def install(self):
        """Wrap every traced function at every assoform import site."""
        import assoform  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items()
                   if n == "assoform" or n.startswith("assoform.")]
        for module_name, names in TRACED.items():
            module = sys.modules[f"assoform.{module_name}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self.wrap(f"{module_name}.{attr}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- derived figures -------------------------------------------------------

    def aggregate(self, scale=1.0) -> dict[str, float]:
        """Calls, self time (times ``scale``, to give reference seconds) and counters."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if name in calls:
                calls[name] += 1
                self_s[name] += end - start - child[i]
        c = self.counts
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name] * scale
        out["linalg.rref.cells"] = c["linalg.rref.cells"]
        out["linalg.rref.max_bits"] = c["linalg.rref.max_bits"]
        out["linalg.rank.cells"] = c["linalg.rank.cells"]
        for key, base in (("linalg.rank.full", "linalg.rank"),
                          ("linalg.solve_square.found", "linalg.solve_square"),
                          ("stability.torus_destabilizer.found",
                           "stability.torus_destabilizer")):
            out[f"{key}_ratio"] = c[key] / calls[base] if calls[base] else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
