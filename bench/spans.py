"""Spans around corrsubopt's public functions, installed from outside the package.

:meth:`Tracer.install` replaces each traced function with a wrapper in every
module that holds a reference to it (``score`` is bound separately in
``scoring``, ``solvers``, ``verification`` and ``cli``), patches three
``ScoreState`` methods on the class and the check dispatch table of
``verification``.  :meth:`Tracer.uninstall` puts every original back.

Each call records a span (name, start, end, parent span, op id) in flat
arrays; nothing is written until the benchmark ends.  Closures such as the
branch-and-bound ``search`` cannot be wrapped, so node counts come from the
returned ``SolveReport`` and ``find_low_discrepancy_mask`` results.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path


def _run_checks_masks(args, records) -> tuple[str, int]:
    total = sum(int(v) for rec in records for k, v in rec.quantities if k == "masks_checked")
    return "verification.masks_sampled", total


# Traced functions per module, with an optional hook that turns the call's
# arguments and result into one exact count.
_FUNCTIONS = {
    "graph": {
        "load_graph": None,
        "dump_graph": None,
        "load_mask": None,
        "dump_mask": None,
        "forced_edges": None,
    },
    "scoring": {
        "score": lambda args, r: ("scoring.score_vertices", args[0].vertex_count),
        "neighbourhood_discrepancy": None,
    },
    "solvers": {
        "solve_exact": lambda args, r: ("solvers.bb_nodes", r.nodes_explored),
        "solve_local": lambda args, r: ("solvers.local_evals", r.nodes_explored),
        "random_valid_mask": None,
    },
    "reduction": {
        "parse_formula": None,
        "compile_formula": lambda args, r: ("reduction.compiled_vertices", r.graph.vertex_count),
        "satisfying_assignments": None,
        "witness_mask": None,
        "decide": None,
    },
    "verification": {
        "run_checks": _run_checks_masks,
        "find_low_discrepancy_mask": lambda args, r: ("verification.dfs_nodes", r[1]),
        "max_sampled_score": None,
        "reduction_score": None,
    },
    "cli": {"main": None},
}
_SCORE_STATE_METHODS = ("__init__", "peek", "toggle")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.op = -1  # id of the op being run; set by the caller
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack, clock = self.starts, self.ends, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                key, value = hook(args, result)
                self.counts[self.op][key] += value
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = [package] + [getattr(package, name) for name in _FUNCTIONS]
        for mod_name, functions in _FUNCTIONS.items():
            home = getattr(package, mod_name)
            for fn_name, hook in functions.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        state = package.scoring.ScoreState
        for method in _SCORE_STATE_METHODS:
            self._patch(state, method,
                        self.wrap(f"scoring.ScoreState.{method}", state.__dict__[method]))
        checks = package.verification.CHECKS
        for selector, fn in list(checks.items()):
            wrapper = self.wrap(f"verification.check_{selector}", fn)
            self._patch(checks, selector, wrapper)
            self._patch(package.verification, fn.__name__, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).  Self time
        is a span's duration minus the durations of its direct children."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)}

    def op_counts(self) -> dict[int, dict[str, int]]:
        return {op: dict(c) for op, c in self.counts.items()}

    def write(self, path: Path) -> None:
        """All spans as TSV: op, name, start, end, parent (-1 for op roots)."""
        with open(path, "w") as handle:
            handle.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{self.ops[i]}\t{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}"
                    f"\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )
