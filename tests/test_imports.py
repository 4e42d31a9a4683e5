"""What each entry point imports, checked in a fresh interpreter.

``import corrsubopt`` loads no submodule; the CLI loads each other module
of the package only in the commands that use it, and
:class:`TestCommandImports` states the set each entry point loads, with the
standard modules no entry point may load.  Each test runs in a child
process, because this test session has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers

ROOT = Path(__file__).resolve().parents[1]


def run_child(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc


def imports_of(argv: list[str], *flags: str, status: int = 0) -> set[str]:
    """Every module that importing ``corrsubopt.cli`` and running
    ``main(argv)`` adds to a fresh interpreter, started with ``flags``, in its
    ``sys.modules``.  The command must exit with ``status``; ``--version``,
    ``-h`` and a usage error do so through ``SystemExit``."""
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
    exit_status, modules = json.loads(out)
    assert exit_status == status, argv
    return set(modules)


class TestCommandImports:
    """The exact set of package modules that each entry point loads, one
    row per entry point.  ``build_parser`` holds all the help, so help and
    a usage error load ``cli`` alone, and with it no ``typing``.  No entry
    point loads ``dataclasses``, with the ``inspect`` it imports (about
    10 ms of start-up; the package's value classes do without it), or
    ``pathlib``: ``cli`` reads with ``open``.  Only a command that writes,
    given ``-o`` or ``--out``, loads ``tempfile``, inside ``_atomic_write``.
    ``verification`` takes sha256 from CPython's built-in ``_sha256``, so
    below 3.12 no entry point loads OpenSSL through ``hashlib``.  Each row
    runs under ``-S``: a site hook may load any of these modules before the
    package does, and so hide it."""

    # (entry point, argv with {f} a formula, {g} a graph, {o} an output
    # path, exit status, the modules it adds to ``corrsubopt.cli``)
    ROWS = [
        ("version", ["--version"], 0, ()),
        ("help", ["-h"], 0, ()),
        ("verify-help", ["verify", "-h"], 0, ()),
        ("usage-error", ["solve"], 2, ()),
        ("score", ["score", "-g", "{g}", "-s", "{g}.mask"], 0, ("graph", "scoring")),
        ("solve", ["solve", "-g", "{g}", "--exact"], 0, ("graph", "scoring", "solvers")),
        ("solve-local", ["solve", "-g", "{g}", "--local"], 0, ("graph", "scoring", "solvers")),
        ("solve-out", ["solve", "-g", "{g}", "--exact", "--out", "{o}.mask"], 0,
         ("graph", "scoring", "solvers")),
        ("reduce", ["reduce", "-f", "{f}", "-t", "2", "-o", "{o}"], 0, ("graph", "reduction")),
        ("witness", ["witness", "-f", "{f}", "-t", "2", "-a", "TFF", "-o", "{o}.mask"], 0,
         ("graph", "reduction", "scoring")),
        ("decide", ["decide", "-f", "{f}"], 0, ("graph", "reduction", "scoring", "solvers")),
        ("verify", ["verify", "-f", "{f}", "-t", "2", "--lemma-samples", "10"], 0,
         ("graph", "reduction", "scoring", "solvers", "verification")),
    ]

    @pytest.mark.parametrize("argv, status, modules", [row[1:] for row in ROWS],
                             ids=[row[0] for row in ROWS])
    def test_loads_exactly(self, tmp_path, argv, status, modules):
        graph, formula = tmp_path / "triangle.graph", tmp_path / "sat3.f"
        graph.write_text(helpers.TRIANGLE_TEXT)
        (tmp_path / "triangle.graph.mask").write_text("101\n")
        formula.write_text(helpers.SAT3_TEXT)
        writes = bool({"-o", "--out"} & set(argv))
        argv = [arg.format(f=formula, g=graph, o=tmp_path / "out") for arg in argv]
        loaded = imports_of(argv, "-S", status=status)
        assert {name for name in loaded if name.startswith("corrsubopt")} == {
            "corrsubopt", "corrsubopt.cli", *(f"corrsubopt.{m}" for m in modules)}
        assert not {"dataclasses", "inspect", "pathlib"} & loaded
        assert ("tempfile" in loaded) == writes == any(tmp_path.glob("out*"))
        if not modules:
            assert "typing" not in loaded
        if sys.version_info < (3, 12):
            assert not {"hashlib", "_hashlib"} & loaded


def test_instance_label_takes_sha256_without_openssl():
    """Where CPython's built-in ``_sha256`` is missing (3.12 renames it),
    ``verification`` falls back to ``hashlib``, and the label the verify
    goldens pin is the same 8 digits; :class:`TestCommandImports` checks
    that ``verify`` loads no ``hashlib`` where ``_sha256`` exists."""
    out = run_child(
        "-c",
        "import sys\n"
        "sys.modules['_sha256'] = None\n"
        "from corrsubopt import compile_formula, parse_formula\n"
        "from corrsubopt.verification import instance_label\n"
        f"print(instance_label(compile_formula(parse_formula({helpers.SAT3_TEXT!r}), 2)))\n"
    ).stdout
    assert out == "n=3 t=2 formula=4aae2373\n"


def test_version_loads_no_reduction_or_verification():
    """``python -m corrsubopt.cli --version`` is the benchmark's set-up
    command, so every module it imports is in ``setup_s``.  Of the package
    it loads only ``corrsubopt`` (``cli`` runs as ``__main__``) and none of
    the ``fractions`` and ``decimal`` that ``graph`` and ``scoring`` import;
    :class:`TestCommandImports` checks that it loads no ``typing``."""
    proc = run_child("-X", "importtime", "-m", "corrsubopt.cli", "--version")
    assert proc.stdout.split()[-1] == "0.1.0"
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {name for name in loaded if name.startswith("corrsubopt")} == {"corrsubopt"}
    assert not {"fractions", "decimal"} & loaded


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
    assert PUBLIC_NAMES <= set(dir(corrsubopt))
