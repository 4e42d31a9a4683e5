"""Per-op correctness checks on the CLI's printed output.

Each ``*_check`` factory returns ``check(out, earlier) -> reason | None``,
where ``earlier`` maps the names of the ops run before it in the same pass
to their outputs.  Solver results are re-scored here from first principles
(exact Fractions, degree logs added left to right in vertex order), so a
check never trusts the program's own arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import gen


@dataclass(frozen=True)
class Output:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0

    def fields(self) -> dict[str, str]:
        """``key = value`` lines of stdout, keyed by the left-hand side."""
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                out[key] = value
        return out


def _exit(out: Output, expected: int) -> str | None:
    if out.exit_code != expected:
        tail = out.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit {out.exit_code}, expected {expected}: {tail[0]}"
    return None


# --- decide -----------------------------------------------------------------

def decide_check(optimum: str | None = None, optimality: str | None = None):
    def check(out: Output, earlier: dict) -> str | None:
        if reason := _exit(out, 0):
            return reason
        f = out.fields()
        try:
            answer, value, threshold = f["answer"], f["optimum"], float(f["threshold"])
            status = f["n"].rsplit("optimality = ", 1)[1]
        except (KeyError, IndexError, ValueError):
            return "decide report incomplete"
        expected = "YES" if value == "+inf" or float(value) >= threshold else "NO"
        if answer != expected:
            return f"answer {answer} but optimum {value} vs threshold {threshold}"
        if optimum is not None and value != optimum:
            return f"optimum {value}, expected {optimum}"
        if optimality is not None and status != optimality:
            return f"optimality {status}, expected {optimality}"
        return None

    return check


# --- verify -----------------------------------------------------------------

def check_statuses(stdout: str) -> dict[str, str]:
    """Selector -> upper-case status from ``check <sel> <name>: <STATUS> ...`` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("check "):
            head = line.split(":", 1)
            if len(head) == 2 and head[1].split():
                out[head[0].split()[1]] = head[1].split()[0]
    return out


def verify_check(satisfiable: bool | None, checks=("1", "2", "3", "4", "5", "6", "lemmas")):
    """Checks 1-4, 6 and lemmas pass; check 5 passes on satisfiable formulas and
    is inconclusive on unsatisfiable ones, so exit 1 is right for those.  With
    satisfiability unknown, check 6 may also end inconclusive (budget)."""

    def check(out: Output, earlier: dict) -> str | None:
        statuses = check_statuses(out.stdout)
        if sorted(statuses) != sorted(checks):
            return f"records for checks {sorted(statuses)}, expected {sorted(checks)}"
        for sel, status in statuses.items():
            allowed = {"PASS"}
            if sel == "5" and satisfiable is False:
                allowed = {"INCONCLUSIVE"}
            if sel == "6" and satisfiable is None:
                allowed = {"PASS", "INCONCLUSIVE"}
            if status not in allowed:
                return f"check {sel} is {status}, expected {'/'.join(sorted(allowed))}"
        failed = any(status != "PASS" for status in statuses.values())
        return _exit(out, 1 if failed else 0)

    return check


# --- solve and file round trip ------------------------------------------------

@dataclass(frozen=True)
class Rescore:
    value: float | None  # None: S = 0, the score is +inf
    log_sum: float
    total: Fraction

    def printed(self) -> tuple[str, str]:
        """The CLI's ``score`` and ``S`` strings for this value."""
        score = "+inf" if self.value is None else f"{self.value:.12f}"
        return score, f"{self.total.numerator}/{self.total.denominator}"

    def above(self, other: "Rescore") -> bool:
        """True when self ranks strictly above other under the score order."""
        if self.value is None or other.value is None:
            if self.value is None and other.value is None:
                return self.log_sum > other.log_sum
            return self.value is None
        if self.log_sum == other.log_sum:
            return self.total < other.total
        return self.value > other.value


def rescore(graph: gen.GraphInput, bits: str) -> Rescore | str:
    """Score a mask bitstring from the definition, or say why it is invalid."""
    if len(bits) != len(graph.edges) or set(bits) - {"0", "1"}:
        return f"mask is not a {len(graph.edges)}-edge bitstring"
    n = graph.vertex_count
    w = graph.weights
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for (u, v), bit in zip(graph.edges, bits):
        if bit == "1":
            neighbours[u].append(v)
            neighbours[v].append(u)
    total = Fraction(0)
    log_sum = 0.0
    for x in range(n):
        d = len(neighbours[x])
        if d == 0:
            return f"mask isolates vertex {x}"
        mean = sum((w[y] for y in neighbours[x]), Fraction(0)) / d
        total += d * (w[x] - mean) ** 2
        log_sum += math.log(d)
    if total == 0:
        return Rescore(None, log_sum, total)
    return Rescore(log_sum - n * math.log(float(total)), log_sum, total)


def solve_check(graph: gen.GraphInput, *, exact: bool, not_above: str | None = None):
    """The printed mask is valid, its score and S equal the independent
    re-score bit for bit, exact runs are proven, and (with ``not_above``) the
    result does not beat that earlier op's result on the same graph."""

    def check(out: Output, earlier: dict) -> str | None:
        if reason := _exit(out, 0):
            return reason
        f = out.fields()
        if not {"mask", "score", "S", "optimality"} <= f.keys():
            return "solve report incomplete"
        got = rescore(graph, f["mask"])
        if isinstance(got, str):
            return got
        if (f["score"], f["S"]) != got.printed():
            return f"printed score {f['score']} S {f['S']}, re-score gives {got.printed()}"
        if exact and f["optimality"] != "proven":
            return f"exact search ended {f['optimality']}"
        if not_above is not None:
            ref = earlier.get(not_above)
            if ref is None:
                return f"{not_above} did not run before this op"
            best = rescore(graph, ref.fields().get("mask", ""))
            if isinstance(best, str) or got.above(best):
                return f"beats the proven optimum of {not_above}"
        return None

    return check


def reduce_check(vertices: int, graph_path: str):
    """The report and the written file both have the closed-form vertex count."""

    def check(out: Output, earlier: dict) -> str | None:
        if reason := _exit(out, 0):
            return reason
        if f"vertices = {vertices}," not in out.stdout:
            return f"reduce did not report {vertices} vertices"
        with open(graph_path) as handle:
            header = handle.readline().split()
        if not header or header[0] != str(vertices):
            return f"{graph_path} header {header}, expected {vertices} vertices"
        return None

    return check


def witness_check():
    def check(out: Output, earlier: dict) -> str | None:
        if reason := _exit(out, 0):
            return reason
        return None if "S" in out.fields() else "witness printed no S"

    return check


def score_check(same_s_as: str):
    """``score -g -s`` on the written files gives the S the witness printed."""

    def check(out: Output, earlier: dict) -> str | None:
        if reason := _exit(out, 0):
            return reason
        ref = earlier.get(same_s_as)
        s, ref_s = out.fields().get("S"), ref.fields().get("S") if ref else None
        if s is None or s != ref_s:
            return f"S = {s}, but {same_s_as} printed S = {ref_s}"
        return None

    return check
