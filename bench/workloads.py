"""The three benchmark workloads: seeded inputs and the CLI operations run on them.

A workload is a list of :class:`Op`, each one ``corrsubopt`` command line,
run in order once per pass.  The inputs are written into a work directory
from the seed alone; the program only ever sees those files (and the two
formulas shipped in ``instances/``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import verdicts

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "decide": "the paper's pipeline: gadget compilation, local-search warm start "
    "and B&B on leaf-dominated graphs (sat3 proven, unsat4 node-capped, n=5 local fallback)",
    "verify": "all verify checks on compiled formulas: from-scratch scoring of sampled "
    "masks, exact discrepancies and the check-6 DFS, with no local search or B&B",
    "solve": "solve --exact/--local on random rational-weight graphs without gadget or "
    "leaf structure, plus a 20k-vertex reduce/witness/score file round trip",
}

# verify: lemma samples per unsatisfiable formula, small enough that one pass
# stays near ten seconds; the check-6 probe's node budget keeps that op cheap
# once it stops crashing.
LEMMA_SAMPLES = 100
PROBE_BUDGET = 1000
# A 21-variable formula exceeds the exhaustive 1-in-3 oracle's 20-variable
# cap, so check 6 exits 2 instead of printing a record.
PROBE_DEFECT = "exhaustive assignment search capped at 20 variables"

# solve: branch-and-bound effort varies tenfold between random graphs of one
# size, so the exact ops are many small graphs (15 free edges each): their
# summed search time then moves only a few percent of a pass between seeds.
EXACT_GRAPHS = 16
EXACT_CORE, EXACT_CHORDS = 10, 5
LOCAL_SIZES = (40, 50)  # vertices, two of them pendant leaves
LOCAL_RESTARTS = 16
FILE_T = 40


@dataclass
class Op:
    """One CLI invocation and the check its output must pass.

    ``check`` gets this op's output and the outputs of the ops before it in
    the same pass (by name) and returns a failure reason, or None.  An op
    with ``known_defect`` set is expected to exit 2 with that message; while
    it does, the benchmark reports the defect but does not count a failure.
    """

    name: str
    kind: str  # decide | verify | solve_exact | solve_local | file
    argv: list[str]
    check: Callable[[verdicts.Output, dict], str | None]
    compiled_vertices: int = 0  # closed-form vertices of every compilation it runs
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: list[str] = field(default_factory=list)  # one line per input: its properties


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def build(name: str, seed: int, work: Path, instances: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, work, instances)


def _decide(rng: random.Random, work: Path, instances: Path) -> Workload:
    cubic = gen.formula_input(rng, "cubic5", 5)
    path = _write(work / "cubic5.f", cubic.text())
    wl = Workload("decide", [
        Op("decide:sat3", "decide", ["decide", "-f", str(instances / "sat3.f")],
           verdicts.decide_check(optimum="49.811436190181", optimality="proven"),
           gen.compiled_vertices(3, 9)),
        Op("decide:unsat4", "decide", ["decide", "-f", str(instances / "unsat4.f")],
           verdicts.decide_check(), gen.compiled_vertices(4, 16)),
        Op("decide:cubic5", "decide", ["decide", "-f", path], verdicts.decide_check(),
           gen.compiled_vertices(5, 25)),
    ])
    wl.inputs.append(_formula_line(cubic, 25))
    return wl


def _verify(rng: random.Random, work: Path, instances: Path) -> Workload:
    wl = Workload("verify", [])
    common = ["--lemma-samples", str(LEMMA_SAMPLES)]
    unsat4 = str(instances / "unsat4.f")
    for t in (3, 4):
        wl.ops.append(Op(f"verify:unsat4-t{t}", "verify",
                         ["verify", "-f", unsat4, "-t", str(t), *common],
                         verdicts.verify_check(satisfiable=False),
                         gen.compiled_vertices(4, t)))
    # n = 7, 8, 10, 11 are never 1-in-3 satisfiable (3 does not divide n).
    # n = 9 is drawn unsatisfiable too: on unsatisfiable inputs the check-6
    # search visits nearly the same number of nodes for every draw, while on
    # satisfiable ones it stops at the first counterexample, anywhere from
    # 600 to 26,000 nodes.  n = 12 is left out: satisfiable draws swing from
    # 11,000 to 106,000 nodes and unsatisfiable ones take 275,000.
    for n in range(6, 12):
        formula = gen.formula_input(rng, f"cubic{n}", n, satisfiable=n == 6)
        path = _write(work / f"{formula.name}.f", formula.text())
        wl.ops.append(Op(f"verify:{formula.name}-t2", "verify",
                         ["verify", "-f", path, "-t", "2", *common],
                         verdicts.verify_check(satisfiable=formula.satisfiable),
                         gen.compiled_vertices(n, 2)))
        wl.inputs.append(_formula_line(formula, 2))
    probe = gen.formula_input(rng, "cubic21", 21)
    path = _write(work / "cubic21.f", probe.text())
    wl.ops.append(Op("verify:cubic21-check6", "verify",
                     ["verify", "-f", path, "-t", "2", "--checks", "6",
                      "--budget", str(PROBE_BUDGET)],
                     verdicts.verify_check(satisfiable=None, checks=("6",)),
                     gen.compiled_vertices(21, 2), known_defect=PROBE_DEFECT))
    wl.inputs.append(_formula_line(probe, 2))
    return wl


def _solve(rng: random.Random, work: Path, instances: Path) -> Workload:
    wl = Workload("solve", [])
    graphs = [gen.connected_graph(rng, f"exact{k:02d}", EXACT_CORE, EXACT_CHORDS, 1)
              for k in range(1, EXACT_GRAPHS + 1)]
    graphs += [gen.connected_graph(rng, f"local{size}", size - 2, size // 2, 2)
               for size in LOCAL_SIZES]
    paths = {g.name: _write(work / f"{g.name}.graph", g.text()) for g in graphs}
    for g in graphs:
        wl.inputs.append(
            f"{g.name}: vertices={g.vertex_count} edges={len(g.edges)} "
            f"free_edges={g.free_edge_count}"
        )
        if g.name.startswith("exact"):
            wl.ops.append(Op(f"solve:{g.name}-exact", "solve_exact",
                             ["solve", "-g", paths[g.name], "--exact"],
                             verdicts.solve_check(g, exact=True)))
        else:
            wl.ops.append(Op(f"solve:{g.name}-local", "solve_local",
                             _local_argv(paths[g.name], rng), verdicts.solve_check(g, exact=False)))
    # Both solvers on one graph: local search may never beat the proven optimum.
    first = graphs[0]
    wl.ops.append(Op(f"solve:{first.name}-local", "solve_local",
                     _local_argv(paths[first.name], rng),
                     verdicts.solve_check(first, exact=False,
                                          not_above=f"solve:{first.name}-exact")))
    # File round trip on a large compiled graph: reduce writes it, witness
    # writes a mask, score reads both back; S must agree.
    sat3 = str(instances / "sat3.f")
    prefix = str(work / f"sat3-t{FILE_T}")
    assignment = rng.choice(("TFF", "FTF", "FFT"))
    mask = str(work / f"sat3-t{FILE_T}.mask")
    vertices = gen.compiled_vertices(3, FILE_T)
    wl.ops += [
        Op("file:reduce", "file", ["reduce", "-f", sat3, "-t", str(FILE_T), "-o", prefix],
           verdicts.reduce_check(vertices, prefix + ".graph"), vertices),
        Op("file:witness", "file",
           ["witness", "-f", sat3, "-t", str(FILE_T), "-a", assignment, "-o", mask],
           verdicts.witness_check(), vertices),
        Op("file:score", "file", ["score", "-g", prefix + ".graph", "-s", mask],
           verdicts.score_check(same_s_as="file:witness")),
    ]
    wl.inputs.append(f"sat3 at t={FILE_T}: vertices={vertices} assignment={assignment}")
    return wl


def _local_argv(path: str, rng: random.Random) -> list[str]:
    return ["solve", "-g", path, "--local", "--restarts", str(LOCAL_RESTARTS),
            "--seed", str(rng.randrange(1000))]


def _formula_line(formula: gen.FormulaInput, t: int) -> str:
    sat = {True: "satisfiable", False: "unsatisfiable", None: "unknown"}[formula.satisfiable]
    return (f"{formula.name}: n={formula.variable_count} {sat} t={t} "
            f"compiled_vertices={gen.compiled_vertices(formula.variable_count, t)}")


_BUILDERS = {"decide": _decide, "verify": _verify, "solve": _solve}
NAMES = tuple(_BUILDERS)
