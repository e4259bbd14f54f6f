"""Tracing of the program's layers from the benchmark's own files.

`Tracer.install()` replaces each listed function of linminmax, in every
module that holds a reference to it, with a wrapper that records a span:
name, start, end, parent span and check id.  The program's code is not
edited.  Spans stay in memory (in flat arrays) until the run ends; a
span's self time is its duration minus the time its child spans cover.
A function that a later version removes is skipped and reports 0.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# layer -> (metric name, attribute path inside linminmax.<layer>)
LAYERS = {
    "exact_linalg": [
        ("Mat.matmul", "Mat.__matmul__"), ("Mat.add", "Mat.__add__"), ("Mat.scaled", None),
        ("Mat.kron", None), ("Mat.rank", None), ("Mat.det", None), ("Mat.kernel", None),
        ("solve_exact", None), ("outer", None), ("Subspace.span", None), ("Subspace.contains", None),
        ("Subspace.orthocomplement", None), ("subspace_intersection", None),
        ("IntEchelon.add", None), ("IntEchelon.copy", None),
    ],
    "relation": [
        ("reduced_indices", None), ("to_matrix_space", None), ("apply_space", None),
        ("sample_element", None), ("space_product", None), ("space_power_is_zero", None),
        ("is_nilpotent_algebra", None), ("MatrixSpace.contains", None),
    ],
    "matching_cover": [
        ("min_cover", None), ("max_matching", None), ("saturated_matching", None),
        ("verify_matching", None), ("verify_cover", None), ("rado_transversal", None),
    ],
    "dilworth": [
        ("validate_linorder", None), ("max_antichain", None), ("bichain_decomposition", None),
        ("coherent_decomposition", None), ("nilpotent_jordan_chains", None),
    ],
    "menger": [
        ("cpc", None), ("bordered_rank", None), ("_capacity_search", None),
        ("_assert_guttman", None), ("verify_separator", None),
    ],
    "lgv": [("lgv_lhs", None), ("lgv_rhs_parts", None), ("is_acyclic", None), ("lgv_acyclic", None)],
    "ncrank": [
        ("ncrank", None), ("matrix_min_cover", None), ("mpc", None),
        ("matrix_coherent_decomposition", None), ("_max_rank_blowup_el", None),
        ("_sample_blowup", None), ("_defect_search", None), ("_candidate_subspaces", None),
        ("_separator_witness_search", None),
    ],
}

# The from_json constructors behind cli.parse.ms.
PARSERS = [
    ("exact_linalg", "Vec.from_json"), ("exact_linalg", "Mat.from_json"),
    ("exact_linalg", "Subspace.from_json"), ("relation", "Relation.from_json"),
    ("relation", "MatrixSpace.from_json"), ("lgv", "LgvInstance.from_json"),
]

THEOREMS = [
    "konig", "hall", "rado", "dilworth", "coherent", "menger", "lgv",
    "ncrank", "matrix-konig", "matrix-dilworth", "matrix-menger",
]

LAYER_METRICS = [f"{layer}.{name}" for layer, fns in LAYERS.items() for name, _ in fns]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in LAYER_METRICS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [(f"cli.check.{t}.ms", "ms") for t in THEOREMS]
    out += [
        ("cli.parse.ms", "ms"),
        ("exact_linalg.IntEchelon.add.grew_frac", "fraction"),
        ("ncrank._candidate_subspaces.pool_size", "count"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def _program_modules():
    return [m for name, m in sys.modules.items() if name == "linminmax" or name.startswith("linminmax.")]


def _replace(module, path, make):
    """Swap the object at `path` in `module` for make(original); False if absent."""
    head, _, attr = path.rpartition(".")
    if head:
        owner = getattr(module, head, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    wrapper = make(orig)
    for mod in _program_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
    return True


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.parent = array("i")
        self.check = array("i")
        self.stack: list[int] = []
        self.child: list[float] = []
        self.check_id = -1
        self.add_calls = 0
        self.add_grew = 0
        self.pool_sizes: list[int] = []

    # recording ----------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        stack, child = self.stack, self.child
        arrays = (self.name_idx, self.start, self.end, self.self_s, self.parent, self.check)

        def wrapper(*args, **kwargs):
            sid = len(arrays[0])
            parent = stack[-1] if stack else -1
            stack.append(sid)
            child.append(0.0)
            for a, v in zip(arrays, (idx, 0.0, 0.0, 0.0, parent, self.check_id)):
                a.append(v)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += t1 - t0
                arrays[1][sid] = t0
                arrays[2][sid] = t1
                arrays[3][sid] = t1 - t0 - inner
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_add(self, grew):
        self.add_calls += 1
        self.add_grew += bool(grew)

    def _observe_pool(self, pool):
        self.pool_sizes.append(len(pool))

    def install(self, cli):
        import importlib

        observers = {
            "exact_linalg.IntEchelon.add": self._observe_add,
            "ncrank._candidate_subspaces": self._observe_pool,
        }
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"linminmax.{layer}")
            for name, path in fns:
                metric = f"{layer}.{name}"
                _replace(module, path or name, lambda fn, m=metric: self._wrap(m, fn, observers.get(m)))
        for layer, path in PARSERS:
            module = importlib.import_module(f"linminmax.{layer}")
            _replace(module, path, lambda fn: self._wrap("cli.parse", fn))
        for theorem in THEOREMS:
            if theorem in cli.CHECKS:
                cli.CHECKS[theorem] = self._wrap(f"cli.check.{theorem}", cli.CHECKS[theorem])

    def reset(self):
        for a in (self.name_idx, self.start, self.end, self.self_s, self.parent, self.check):
            del a[:]
        self.add_calls = self.add_grew = 0
        self.pool_sizes.clear()

    # reporting ----------------------------------------------------------

    def totals(self, scale):
        """Per metric name: (calls, calibrated self seconds, calibrated inclusive seconds).

        `scale[check]` converts raw seconds of that check to calibrated ones.
        cli.parse counts only outermost parse spans as inclusive time.
        """
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl = [0.0] * len(self.names)
        names = self.names
        for sid in range(len(self.name_idx)):
            idx = self.name_idx[sid]
            f = scale[self.check[sid]]
            calls[idx] += 1
            self_s[idx] += self.self_s[sid] * f
            p = self.parent[sid]
            if names[idx] != "cli.parse" or p < 0 or names[self.name_idx[p]] != "cli.parse":
                incl[idx] += (self.end[sid] - self.start[sid]) * f
        out: dict[str, list] = {}
        for idx, name in enumerate(names):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls[idx]
            acc[1] += self_s[idx]
            acc[2] += incl[idx]
        return out

    def write(self, path, meta):
        """Spans of the last traced pass, one JSON array per line, times in us."""
        t_base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(meta) + "\n")
            fh.write(json.dumps(["name", "start_us", "end_us", "parent", "check"]) + "\n")
            for sid in range(len(self.name_idx)):
                fh.write(
                    "[%s,%d,%d,%d,%d]\n"
                    % (
                        json.dumps(self.names[self.name_idx[sid]]),
                        (self.start[sid] - t_base) * 1e6,
                        (self.end[sid] - t_base) * 1e6,
                        self.parent[sid],
                        self.check[sid],
                    )
                )
