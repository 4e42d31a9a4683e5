"""What each entry point imports, checked in a fresh interpreter.

``import corrsubopt`` loads no submodule; the CLI loads ``solvers``,
``reduction`` and ``verification`` only in the commands that use them, no
command loads ``dataclasses`` or ``pathlib``, and only a command that
writes loads ``tempfile``.  Each test runs in a child process,
because this test session has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import helpers

ROOT = Path(__file__).resolve().parents[1]


def run_child(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc


def imports_of(argv: list[str], *flags: str) -> set[str]:
    """Every module that importing ``corrsubopt.cli`` and running
    ``main(argv)`` adds to a fresh interpreter, started with ``flags``, in its
    ``sys.modules``.  The command must exit 0; ``--version`` does so through
    ``SystemExit``."""
    out = run_child(
        *flags, "-c",
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import corrsubopt.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        status = corrsubopt.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        status = exc.code\n"
        "print(json.dumps([status, sorted(set(sys.modules) - before)]))\n"
    ).stdout
    status, modules = json.loads(out)
    assert status == 0, argv
    return set(modules)


def modules_after(argv: list[str]) -> set[str]:
    """The package modules loaded once ``corrsubopt.cli.main(argv)`` returns 0."""
    return {name for name in imports_of(argv) if name.startswith("corrsubopt")}


class TestCommandImports:
    def test_score_and_solve_load_no_reduction_or_verification(self, tmp_path):
        graph = tmp_path / "triangle.graph"
        graph.write_text(helpers.TRIANGLE_TEXT)
        for argv in (["score", "-g", str(graph)],
                     ["solve", "-g", str(graph), "--local"],
                     ["solve", "-g", str(graph), "--exact"]):
            loaded = modules_after(argv)
            assert ("corrsubopt.solvers" in loaded) == (argv[0] == "solve"), argv
            assert "corrsubopt.reduction" not in loaded, argv
            assert "corrsubopt.verification" not in loaded, argv

    def test_score_loads_no_solvers(self, tmp_path):
        graph, mask = tmp_path / "triangle.graph", tmp_path / "triangle.mask"
        graph.write_text(helpers.TRIANGLE_TEXT)
        mask.write_text("101\n")
        loaded = modules_after(["score", "-g", str(graph), "-s", str(mask)])
        assert {"corrsubopt.graph", "corrsubopt.scoring"} <= loaded
        assert "corrsubopt.solvers" not in loaded

    def test_decide_loads_no_verification(self, tmp_path):
        formula = tmp_path / "sat3.f"
        formula.write_text(helpers.SAT3_TEXT)
        loaded = modules_after(["decide", "-f", str(formula)])
        assert "corrsubopt.reduction" in loaded
        assert "corrsubopt.verification" not in loaded

    def test_witness_loads_no_verification(self, tmp_path):
        formula = tmp_path / "sat3.f"
        formula.write_text(helpers.SAT3_TEXT)
        loaded = modules_after(["witness", "-f", str(formula), "-t", "2", "-a", "TFF"])
        assert "corrsubopt.reduction" in loaded
        assert "corrsubopt.verification" not in loaded

    def test_verify_help_loads_no_verification(self):
        """``verify -h`` prints help that ``build_parser`` holds in full."""
        loaded = modules_after(["verify", "-h"])
        assert not {"corrsubopt.reduction", "corrsubopt.solvers",
                    "corrsubopt.verification"} & loaded

    def test_reduce_and_witness_load_no_solvers(self, tmp_path):
        """Only ``decide`` needs the solvers; ``reduction`` imports them there."""
        formula = tmp_path / "sat3.f"
        formula.write_text(helpers.SAT3_TEXT)
        for argv in (["reduce", "-f", str(formula), "-t", "2", "-o", str(tmp_path / "sat3")],
                     ["witness", "-f", str(formula), "-t", "2", "-a", "TFF",
                      "-o", str(tmp_path / "sat3.mask")]):
            loaded = modules_after(argv)
            assert "corrsubopt.reduction" in loaded, argv
            assert "corrsubopt.solvers" not in loaded, argv


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    """``dataclasses``, with the ``inspect`` it imports, would add about
    10 ms to every start-up; the package's value classes do without it."""
    graph, formula = tmp_path / "triangle.graph", tmp_path / "sat3.f"
    graph.write_text(helpers.TRIANGLE_TEXT)
    formula.write_text(helpers.SAT3_TEXT)
    g, f = str(graph), str(formula)
    for argv in (["--version"], ["score", "-g", g], ["solve", "-g", g, "--exact"],
                 ["solve", "-g", g, "--local"], ["decide", "-f", f],
                 ["reduce", "-f", f, "-t", "2", "-o", str(tmp_path / "sat3")],
                 ["witness", "-f", f, "-t", "2", "-a", "TFF"],
                 ["verify", "-f", f, "-t", "2", "--lemma-samples", "10"]):
        loaded = imports_of(argv)
        assert "corrsubopt.cli" in loaded
        assert not {"dataclasses", "inspect"} & loaded, argv


def test_only_writing_commands_load_tempfile_and_none_loads_pathlib(tmp_path):
    """``cli`` reads with ``open`` and imports ``tempfile`` inside
    ``_atomic_write``.  Run under ``-S``: a site hook may load either module
    before the package does."""
    graph, formula = tmp_path / "triangle.graph", tmp_path / "sat3.f"
    graph.write_text(helpers.TRIANGLE_TEXT)
    formula.write_text(helpers.SAT3_TEXT)
    g, f = str(graph), str(formula)
    for argv in (["--version"], ["score", "-g", g], ["solve", "-g", g, "--exact"],
                 ["decide", "-f", f],
                 ["verify", "-f", f, "-t", "2", "--lemma-samples", "10"]):
        assert not {"pathlib", "tempfile"} & imports_of(argv, "-S"), argv
    written = imports_of(["solve", "-g", g, "--exact", "--out", str(tmp_path / "best.mask")],
                         "-S")
    assert "tempfile" in written
    assert (tmp_path / "best.mask").exists()


def test_version_loads_no_reduction_or_verification():
    """``python -m corrsubopt.cli --version`` is the benchmark's set-up
    command, so every module it imports is in ``setup_s``."""
    proc = run_child("-X", "importtime", "-m", "corrsubopt.cli", "--version")
    assert proc.stdout.split()[-1] == "0.1.0"
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"corrsubopt", "corrsubopt.graph", "corrsubopt.scoring"} <= loaded
    assert "corrsubopt.solvers" not in loaded
    assert "corrsubopt.reduction" not in loaded
    assert "corrsubopt.verification" not in loaded


def test_bare_import_resolves_every_public_name_and_submodule():
    out = run_child(
        "-c",
        "import json, sys\n"
        "import corrsubopt\n"
        "bare = sorted(m for m in sys.modules if m.startswith('corrsubopt.'))\n"
        "subs = ['cli', 'graph', 'reduction', 'scoring', 'solvers', 'verification']\n"
        "missing = [n for n in corrsubopt.__all__ if getattr(corrsubopt, n, None) is None]\n"
        "missing += [s for s in subs if getattr(corrsubopt, s).__name__ != 'corrsubopt.' + s]\n"
        "homes = {n: getattr(corrsubopt, n).__module__ for n in corrsubopt.__all__\n"
        "         if n != '__version__'}\n"
        "try:\n"
        "    corrsubopt.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "listed = sorted(set(corrsubopt.__all__ + subs) - set(dir(corrsubopt)))\n"
        "print(json.dumps([bare, missing, homes, unknown, listed, corrsubopt.__version__]))\n"
    ).stdout
    bare, missing, homes, unknown, listed, version = json.loads(out)
    assert bare == []
    assert missing == []
    assert all(home.startswith("corrsubopt.") for home in homes.values())
    assert homes["score"] == "corrsubopt.scoring"
    assert homes["run_checks"] == "corrsubopt.verification"
    assert unknown == "module 'corrsubopt' has no attribute 'no_such_name'"
    assert listed == []
    assert version == "0.1.0"


def test_bench_tracer_installs_on_a_cli_only_import():
    """``bench/run.py`` imports only ``corrsubopt`` and ``corrsubopt.cli``
    before ``Tracer.install``, which reaches every traced module through the
    package; ``uninstall`` must put every original back, and a name read
    through the package must be its submodule's current one."""
    out = run_child(
        "-c",
        "import json, sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import corrsubopt, corrsubopt.cli\n"
        "from spans import Tracer, _FUNCTIONS\n"
        "lazy = [m for m in ('reduction', 'verification') if f'corrsubopt.{m}' in sys.modules]\n"
        "loaded = [m for n, m in sys.modules.items() if n.startswith('corrsubopt')]\n"
        "before = [dict(vars(m)) for m in loaded]\n"
        "state = corrsubopt.scoring.ScoreState\n"
        "methods = dict(state.__dict__)\n"
        "tracer = Tracer()\n"
        "tracer.install(corrsubopt)\n"
        "during = corrsubopt.score.__qualname__, corrsubopt.verification.run_checks.__qualname__\n"
        "tracer.uninstall()\n"
        "kept = all(vars(m).get(k) is v for m, old in zip(loaded, before) for k, v in old.items())\n"
        "kept = kept and all(state.__dict__[k] is v for k, v in methods.items())\n"
        "owners = [vars(corrsubopt)] + [vars(getattr(corrsubopt, m)) for m in _FUNCTIONS]\n"
        "owners += [state.__dict__, corrsubopt.verification.CHECKS]\n"
        "left = [k for o in owners for k, v in o.items()\n"
        "        if getattr(v, '__qualname__', '').endswith('wrap.<locals>.traced')]\n"
        "print(json.dumps([lazy, during, kept, left, corrsubopt.score.__qualname__]))\n"
    ).stdout
    lazy, during, kept, left, after = json.loads(out)
    assert lazy == []
    assert all(name.endswith("wrap.<locals>.traced") for name in during)
    assert kept
    assert left == []
    assert after == "score"


PUBLIC_NAMES = {
    "AssignmentError", "CheckRecord", "DecisionReport", "DegenerateVertexError", "Formula",
    "FormulaError", "GraphParseError", "IncidenceBoundWarning", "MaskValidityError",
    "ReductionInstance", "ScoreState", "ScoreValue", "SearchSpaceError", "SolveReport",
    "SubgraphMask", "WeightedGraph", "compare_scores", "compile_formula", "decide",
    "dump_formula", "dump_graph", "dump_mask", "find_low_discrepancy_mask", "forced_edges",
    "format_fraction", "format_score", "is_one_in_three", "is_valid", "load_graph", "load_mask",
    "neighbourhood_discrepancy", "parse_assignment", "parse_formula", "random_valid_mask",
    "run_checks", "satisfying_assignments", "score", "solve_exact", "solve_local",
    "witness_mask", "__version__",
}


def test_public_names_are_pinned():
    """``__all__`` is derived from the export table, so dropping a name there
    would shrink the public surface without another edit; this pins it."""
    import corrsubopt

    assert sorted(corrsubopt.__all__) == sorted(PUBLIC_NAMES)
