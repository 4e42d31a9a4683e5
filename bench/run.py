"""corrsubopt benchmark: the CLI timed end to end on three seeded workloads.

Run from the root of a corrsubopt checkout:

    python3 bench/run.py --workload decide|verify|solve|all --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs from the seed into ``.bench_work/`` and
starts the CLI once, so bytecode is compiled before anything is timed; it is
repeated and its median reported as ``setup_s``.

``--trace 0`` runs whole passes over the workload's ops, each op one
``python3 -m corrsubopt.cli`` child process at a time, until S seconds have
passed (at least two passes).  Every output is checked (``verdicts.py``) and
must repeat exactly between passes.  ``ops_s`` is the sum of the per-op
median wall times; it and ``setup_s`` are scaled to a fixed machine speed
measured alongside the ops (see ``SpeedProbe``), and the raw values are
printed next to them.

``--trace 1`` runs one such pass, then each op in-process through
``corrsubopt.cli.main`` twice: plainly, and with spans around the package's
public functions (``spans.py``).  All three passes must print the same
output, the exact counts in the trace must equal the counts the CLI printed
and the ones recorded by earlier traced runs of the same seed and sources.
It reports per-layer metrics and the tracing overhead.

Each workload ends with one JSON line: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import spans
import verdicts
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REQUIRED = (SRC / "corrsubopt" / "cli.py", ROOT / "instances" / "sat3.f",
            ROOT / "instances" / "unsat4.f")

SETUP_REPEATS = 5
STARTUP_PROBES = 5
# Every op is timed at least twice, even when one pass outlasts half of the
# run's seconds (decide's passes take 13-22 s on a 2-core Xeon).
MIN_PASSES = 2
# Every child is killed once the run has lasted this long, so a run always
# ends within the 180 s a run may take.
RUN_LIMIT_S = 170.0

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# On a shared host the machine's speed can drift by up to 1.6x within
# minutes (seen on a shared 2-core Xeon), in CPU time as well as wall time,
# as co-tenants load the same cores.  While
# the ops run, a thread times a fixed Fraction/dict loop every PROBE_EVERY_S
# of wall time; end-to-end times are divided by mean(loop CPU time) /
# REFERENCE_S, i.e. reported at the speed at which the loop takes
# REFERENCE_S.  On decide:unsat4 the loop's time during an op correlated
# 0.97 with the op's wall time, and scaling cut the op's run-to-run
# variation from 17% to 7.5%.
PROBE_EVERY_S = 0.2
REFERENCE_S = 0.010


def _reference_loop() -> None:
    total, seen = Fraction(0), {}
    for i in range(1, 3000):
        d = i % 13 + 1
        total += Fraction(i % 7 - 3, d)
        seen[d] = seen.get(d, 0) + 1


class SpeedProbe:
    """Background thread timing ``_reference_loop`` in thread CPU time, which
    waiting for the interpreter lock does not inflate."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            t0 = time.thread_time()
            _reference_loop()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(PROBE_EVERY_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        return statistics.mean(self.samples) / REFERENCE_S


def run_cli(argv: list[str], cwd: Path, deadline: float) -> verdicts.Output:
    """One CLI child; wall time from spawn to reap, CPU and max RSS from wait4."""
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "corrsubopt.cli", *argv],
                                stdout=out, stderr=err, cwd=cwd, env=CHILD_ENV)
        killer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # terminated or interrupted: end the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return verdicts.Output(proc.returncode, out.read().decode(), err.read().decode(),
                               wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_in_process(argv: list[str], main) -> verdicts.Output:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
    return verdicts.Output(code, stdout.getvalue(), stderr.getvalue(), wall)


def judge(op: workloads.Op, out: verdicts.Output, earlier: dict) -> str:
    """"ok", "known defect: ...", or "FAIL: ..." for one execution of an op."""
    if op.known_defect and out.exit_code == 2 and op.known_defect in out.stderr:
        return f"known defect: {op.known_defect}"
    reason = op.check(out, earlier)
    return "ok" if reason is None else f"FAIL: {reason}"


def judge_pass(ops, outs) -> list[str]:
    earlier: dict[str, verdicts.Output] = {}
    verdict = []
    for op, out in zip(ops, outs):
        verdict.append(judge(op, out, earlier))
        earlier[op.name] = out
    return verdict


def setup(name: str, seed: int, work: Path, deadline: float) -> tuple[workloads.Workload, float]:
    """Write the inputs and start the CLI once; repeated, median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.build(name, seed, work, ROOT / "instances")
        warm = run_cli(["--version"], work, deadline)
        times.append(time.perf_counter() - t0)
        if warm.exit_code != 0 or not warm.stdout.startswith("corrsubopt"):
            raise SystemExit(f"error: the CLI does not start: {warm.stderr.strip()[-300:]}")
    return wl, statistics.median(times)


# --- trace 0: end to end ------------------------------------------------------

def end_to_end(wl: workloads.Workload, seconds: int, work: Path, deadline: float,
               setup_s: float):
    # Whole passes: at least MIN_PASSES, then more while the run would
    # overshoot ``seconds`` by less than half a pass.
    passes: list[list[verdicts.Output]] = []
    t0 = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            passes.append([run_cli(op.argv, work, deadline) for op in wl.ops])
            now = time.perf_counter()
            per_pass = (now - t0) / len(passes)
            if deadline - now < 2 * per_pass:
                break
            if len(passes) >= MIN_PASSES and now - t0 + per_pass / 2 > seconds:
                break
    slowdown = probe.slowdown()
    verdict_rows = [judge_pass(wl.ops, outs) for outs in passes]

    failed = known = 0
    per_kind: dict[str, float] = {}
    walls = []
    print(f"{len(passes)} passes; per op: median wall, median cpu, max rss, verdict")
    for i, op in enumerate(wl.ops):
        outs = [p[i] for p in passes]
        verdict = [row[i] for row in verdict_rows]
        if any(o.stdout != outs[0].stdout or o.exit_code != outs[0].exit_code for o in outs):
            verdict = [v if v.startswith("FAIL") else "FAIL: output differs between passes"
                       for v in verdict]
        failed += sum(v.startswith("FAIL") for v in verdict)
        known += sum(v.startswith("known defect") for v in verdict)
        wall = statistics.median(o.wall_s for o in outs)
        cpu = statistics.median(o.cpu_s for o in outs)
        walls.append(wall)
        per_kind[op.kind] = per_kind.get(op.kind, 0.0) + wall
        worst = next((v for v in verdict if v != "ok"), "ok")
        print(f"  {op.name:28s} {wall:8.3f} s {cpu:8.3f} s {max(o.rss_mb for o in outs):7.1f} MB"
              f"  exit {outs[0].exit_code}  {worst}")

    attempted = len(passes) * len(wl.ops)
    solver_outs = [o for p in passes for op, o in zip(wl.ops, p)
                   if op.kind in ("decide", "solve_exact", "solve_local")]
    for kind, total in per_kind.items():
        name = "file_ops_s" if kind == "file" else f"{kind}_s"
        print(f"{name} = {total:.4f} s")
    print(f"fail_ratio = {(failed + known) / attempted:.4f} "
          f"({failed} unexpected failures, {known} known-defect runs, {attempted} attempted)")
    if solver_outs:
        proven = sum("optimality = proven" in o.stdout for o in solver_outs)
        print(f"proven_ratio = {proven / len(solver_outs):.4f} ({proven} of {len(solver_outs)})")
    print(f"raw setup_s = {setup_s:.4f} s, raw ops_s = {sum(walls):.4f} s; reference loop "
          f"{slowdown:.4f}x its nominal time over {len(probe.samples)} samples")
    metrics = {
        "setup_s": (setup_s / slowdown, "s"),
        "ops_s": (sum(walls) / slowdown, "s"),
        "peak_rss_mb": (max(o.rss_mb for p in passes for o in p), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return failed == 0, attempted, failed, metrics


# --- trace 1: per layer -------------------------------------------------------

def printed_counts(op: workloads.Op, out: verdicts.Output) -> dict[str, int]:
    """Exact counts the CLI prints: solve's ``nodes =``, check 6's ``nodes=``
    and the ``masks_checked=`` of the sampling checks."""
    if op.kind in ("solve_exact", "solve_local") and "nodes" in out.fields():
        key = "solvers.bb_nodes" if op.kind == "solve_exact" else "solvers.local_evals"
        return {key: int(out.fields()["nodes"])}
    counts = {}
    for line in out.stdout.splitlines():
        if not line.startswith("check "):
            continue
        for key, value in re.findall(r"(\w+)=(\d+)\b", line.split(" | ")[0]):
            if key == "masks_checked":
                counts["verification.masks_sampled"] = (
                    counts.get("verification.masks_sampled", 0) + int(value))
            elif key == "nodes" and line.startswith("check 6 "):
                counts["verification.dfs_nodes"] = int(value)
    return counts


# Per-layer metrics reported in the JSON line: exact counts, and times of
# layers that every workload exercises.  Times of layers only some workloads
# reach are printed in the table but would read 0 on the others.
JSON_TIMES = (
    "cli.startup_s", "cli.self_s", "graph.self_s", "scoring.self_s", "solvers.self_s",
    "reduction.self_s", "graph.forced_edges_s", "scoring.score_s", "solvers.random_mask_s",
    "reduction.parse_formula_s", "reduction.compile_s", "trace.overhead_s",
)
JSON_COUNTS = (
    "graph.forced_edges_calls", "scoring.score_calls", "scoring.peek_calls",
    "scoring.toggle_calls", "scoring.state_init_calls", "scoring.discrepancy_calls",
    "solvers.bb_nodes", "solvers.local_evals", "solvers.random_mask_calls",
    "reduction.compiled_vertices", "verification.dfs_nodes", "verification.masks_sampled",
)
JSON_RATES = ("scoring.score_vertices_per_s",)

# metric prefix -> traced span name
_SPANS = {
    "graph.load_graph": "graph.load_graph",
    "graph.dump_graph": "graph.dump_graph",
    "graph.load_mask": "graph.load_mask",
    "graph.forced_edges": "graph.forced_edges",
    "scoring.score": "scoring.score",
    "scoring.peek": "scoring.ScoreState.peek",
    "scoring.toggle": "scoring.ScoreState.toggle",
    "scoring.state_init": "scoring.ScoreState.__init__",
    "scoring.discrepancy": "scoring.neighbourhood_discrepancy",
    "solvers.solve_exact": "solvers.solve_exact",
    "solvers.solve_local": "solvers.solve_local",
    "solvers.random_mask": "solvers.random_valid_mask",
    "reduction.parse_formula": "reduction.parse_formula",
    "reduction.compile": "reduction.compile_formula",
    "reduction.sat_oracle": "reduction.satisfying_assignments",
    "reduction.witness": "reduction.witness_mask",
    "verification.dfs": "verification.find_low_discrepancy_mask",
    **{f"verification.check_{s}": f"verification.check_{s}" for s in "123456"},
    "verification.lemmas": "verification.check_lemmas",
}
_CALLS = ("graph.forced_edges", "scoring.score", "scoring.peek", "scoring.toggle",
          "scoring.state_init", "scoring.discrepancy", "solvers.random_mask")
_MODULES = ("graph", "scoring", "solvers", "reduction", "verification", "cli")


def layer_metrics(tracer: spans.Tracer, startup_s: float, overhead_s: float):
    summary = tracer.summary()
    counts: dict[str, int] = {}
    for per_op in tracer.op_counts().values():
        for key, value in per_op.items():
            counts[key] = counts.get(key, 0) + value
    m: dict[str, tuple[float, str]] = {}
    for prefix, span in _SPANS.items():
        calls, inclusive, _ = summary.get(span, (0, 0.0, 0.0))
        m[f"{prefix}_s"] = (inclusive, "s")
        if prefix in _CALLS:
            m[f"{prefix}_calls"] = (calls, "count")
    for module in _MODULES:
        m[f"{module}.self_s"] = (sum(own for name, (_, _, own) in summary.items()
                                     if name.split(".")[0] == module), "s")
    for key in ("solvers.bb_nodes", "solvers.local_evals", "verification.dfs_nodes",
                "verification.masks_sampled", "reduction.compiled_vertices"):
        m[key] = (counts.get(key, 0), "count")

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m["scoring.score_vertices_per_s"] = (
        rate(counts.get("scoring.score_vertices", 0), m["scoring.score_s"][0]), "1/s")
    m["solvers.bb_nodes_per_s"] = (
        rate(counts.get("solvers.bb_nodes", 0), m["solvers.solve_exact_s"][0]), "1/s")
    m["solvers.local_evals_per_s"] = (
        rate(counts.get("solvers.local_evals", 0), m["solvers.solve_local_s"][0]), "1/s")
    m["verification.dfs_nodes_per_s"] = (
        rate(counts.get("verification.dfs_nodes", 0), m["verification.dfs_s"][0]), "1/s")
    m["cli.startup_s"] = (startup_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (tracer.span_count(), "count")
    return m


def count_problems(wl, cli_outs, tracer: spans.Tracer, store: Path) -> list[str]:
    """Exact counts: traced = printed by the CLI, compiled vertices = closed
    form, and equal to what an earlier traced run of this seed and these
    sources recorded."""
    problems = []
    traced = tracer.op_counts()
    record = {}
    for i, (op, out) in enumerate(zip(wl.ops, cli_outs)):
        counts = {k: v for k, v in traced.get(i, {}).items() if k != "scoring.score_vertices"}
        record[op.name] = counts
        for key, value in printed_counts(op, out).items():
            if counts.get(key, 0) != value:
                problems.append(f"{op.name}: traced {key} = {counts.get(key, 0)}, "
                                f"CLI printed {value}")
        if counts.get("reduction.compiled_vertices", 0) != op.compiled_vertices:
            problems.append(f"{op.name}: compiled {counts.get('reduction.compiled_vertices', 0)} "
                            f"vertices, closed form gives {op.compiled_vertices}")
    if store.exists():
        before = json.loads(store.read_text())
        if before != record:
            problems.append(f"exact counts differ from the earlier traced run in {store.name}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def sources_digest(workload: str, seed: int) -> str:
    digest = hashlib.sha256(f"{workload}:{seed}".encode())
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def traced_run(wl: workloads.Workload, seed: int, work: Path, deadline: float):
    cli_outs = [run_cli(op.argv, work, deadline) for op in wl.ops]
    startup_s = statistics.median(
        run_cli(["--version"], work, deadline).wall_s for _ in range(STARTUP_PROBES))

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import corrsubopt
    import corrsubopt.cli

    if Path(corrsubopt.__file__).resolve().parent != SRC / "corrsubopt":
        raise SystemExit(f"error: imported corrsubopt from {corrsubopt.__file__}, not {SRC}")
    # Each op runs untraced and then traced, back to back, so that both see
    # the machine at nearly the same speed.
    plain, traced = [], []
    tracer = spans.Tracer()
    for i, op in enumerate(wl.ops):
        plain.append(run_in_process(op.argv, corrsubopt.cli.main))
        tracer.op = i
        tracer.install(corrsubopt)
        try:
            traced.append(run_in_process(op.argv, corrsubopt.cli.main))
        finally:
            tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.tsv")

    overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
    metrics = layer_metrics(tracer, startup_s, overhead)

    runs = {"cli": cli_outs, "in-process": plain, "traced": traced}
    rows = {label: judge_pass(wl.ops, outs) for label, outs in runs.items()}
    failed = known = 0
    traced_counts = tracer.op_counts()
    print("per op: CLI wall, traced in-process wall, exact counts, verdict")
    for i, op in enumerate(wl.ops):
        verdict = [rows[label][i] for label in runs]
        if plain[i].stdout != cli_outs[i].stdout or traced[i].stdout != cli_outs[i].stdout:
            verdict = ["FAIL: in-process output differs from the CLI's"] + verdict[1:]
        failed += sum(v.startswith("FAIL") for v in verdict)
        known += sum(v.startswith("known defect") for v in verdict)
        counts = " ".join(f"{k.split('.')[1]}={v}" for k, v in sorted(traced_counts.get(i, {}).items())
                          if k != "scoring.score_vertices")
        worst = next((v for v in verdict if v != "ok"), "ok")
        print(f"  {op.name:28s} {cli_outs[i].wall_s:8.3f} s {traced[i].wall_s:8.3f} s  {counts}  {worst}")

    store = WORK / "counts" / f"{wl.name}-{seed}-{sources_digest(wl.name, seed)}.json"
    problems = count_problems(wl, cli_outs, tracer, store)
    for problem in problems:
        print(f"count mismatch: {problem}")
    attempted = len(runs) * len(wl.ops)
    print(f"fail_ratio = {(failed + known) / attempted:.4f} "
          f"({failed} unexpected failures, {known} known-defect runs, {attempted} attempted)")
    untraced = sum(o.wall_s for o in plain)
    print(f"tracing overhead on {wl.name}: {overhead:.4f} s over an untraced in-process pass "
          f"of {untraced:.4f} s ({100 * overhead / untraced:.1f}%), {tracer.span_count()} spans")
    print("per-layer metrics:")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name} = {value:.6g} {unit}")
    chosen = {name: metrics[name] for name in JSON_TIMES + JSON_COUNTS + JSON_RATES}
    return failed == 0 and not problems, attempted, failed + len(problems), chosen


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(f"workload {name}: {workloads.WHY[name]}")
    work = WORK / "runs" / f"{name}-{seed}-{os.getpid()}"
    try:
        wl, setup_s = setup(name, seed, work, deadline)
        for line in wl.inputs:
            print(f"input {line}")
        if trace:
            correct, attempted, failed, metrics = traced_run(wl, seed, work, deadline)
        else:
            correct, attempted, failed, metrics = end_to_end(wl, seconds, work, deadline, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


class Terminated(BaseException):
    """SIGTERM, raised so that children are killed and reaped on the way out."""


def _terminate(signum, frame):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                        help="one workload, or all three in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: {missing[0]} not found; run from the root of a corrsubopt checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    print(f"machine: {platform.machine()} cpus={os.cpu_count()} "
          f"python={platform.python_version()} {platform.platform()}")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds, args.trace)))
    except Terminated:
        return 143
    return 0


if __name__ == "__main__":
    sys.exit(main())
