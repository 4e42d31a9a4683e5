"""Correlation subgraph optimisation toolkit.

Scores spanning subgraphs of vertex-weighted graphs by a degree/discrepancy
trade-off, searches for high-scoring subgraphs exactly and heuristically,
and compiles one-in-three satisfiability formulas into instances whose
optimum separates satisfiable from unsatisfiable inputs.

Submodules are imported on first use (PEP 562): ``corrsubopt.score`` loads
``scoring`` and what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "graph": ("GraphParseError", "MaskValidityError", "SubgraphMask", "WeightedGraph",
              "dump_graph", "dump_mask", "forced_edges", "is_valid", "load_graph",
              "load_mask"),
    "reduction": ("AssignmentError", "DecisionReport", "Formula", "FormulaError",
                  "IncidenceBoundWarning", "ReductionInstance", "compile_formula", "decide",
                  "dump_formula", "is_one_in_three", "parse_assignment", "parse_formula",
                  "satisfying_assignments", "witness_mask"),
    "scoring": ("DegenerateVertexError", "ScoreState", "ScoreValue", "compare_scores",
                "format_fraction", "format_score", "neighbourhood_discrepancy", "score",
                "score_delta"),
    "solvers": ("SearchSpaceError", "SolveReport", "random_valid_mask", "solve_exact",
                "solve_local"),
    "verification": ("CheckRecord", "find_low_discrepancy_mask", "run_checks"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    # Looked up on every access, not cached, so that a name replaced in its
    # submodule reads the same through the package.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))

