"""Command line front end.

Subcommands:

  score    score a graph under a mask (default: the full graph)
  solve    search for a best-scoring valid mask
  reduce   compile a formula into a weighted instance graph
  witness  build the witness mask for a satisfying assignment
  verify   run construction self-checks on a compiled instance
  decide   one-in-three satisfiability via the compiled instance

Exit status: 0 on success, 1 when a verification check does not pass,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from collections.abc import Iterable

from . import __version__
# The package's other modules are imported only by the commands that use them,
# so --version, -h and a usage error load none of them.


def non_negative_int(text: str) -> int:
    """argparse type of counts, budgets and limits: a negative one is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` that the command line set, as keyword
    arguments; an omitted one is absent (``argparse.SUPPRESS``), so the
    library's own default applies."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _atomic_write(*files: tuple[str, Iterable[str]]) -> None:
    """Write each (path, lines) pair, line by line, as a plain ``open``
    would (through a symlink, keeping an existing file's mode, a new one's
    0666 less the umask), via a temporary file in the target's directory.
    No target is replaced until every temporary is written, and no temporary
    is left behind; a rename that fails part-way can leave the earlier
    targets replaced.  An unwritable path, or a directory in the way, is a
    usage error."""
    import errno
    import tempfile

    umask = os.umask(0)
    os.umask(umask)
    temps: list[tuple[str, str]] = []  # (temporary, target)
    try:
        try:
            for path, lines in files:
                target = os.path.realpath(path)
                if os.path.isdir(target):  # os.replace would fail
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                mode = (os.stat(target).st_mode & 0o7777 if os.path.exists(target)
                        else 0o666 & ~umask)
                directory, name = os.path.split(target)
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=name)
                temps.append((tmp, target))
                os.fchmod(fd, mode)
                with os.fdopen(fd, "w") as handle:
                    handle.writelines(lines)
            for path, _ in files:
                os.replace(*temps[0])
                del temps[0]
        except BaseException:
            for tmp, _ in temps:
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_formula_file(path: str):
    from .reduction import parse_formula

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        formula = parse_formula(_read(path))
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return formula


def _print_score(value, label: str = "score") -> None:
    from .scoring import format_fraction, format_score

    print(f"{label} = {format_score(value)}")
    print(f"S = {format_fraction(value.discrepancy_total)}")


def cmd_score(args: argparse.Namespace) -> int:
    from .graph import SubgraphMask, load_graph, load_mask
    from .scoring import score

    graph = load_graph(_read(args.graph))
    if args.mask:
        mask = load_mask(_read(args.mask), graph)
    else:
        mask = SubgraphMask.full(graph)
    _print_score(score(graph, mask))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .graph import dump_mask, load_graph
    from .solvers import solve_exact, solve_local

    graph = load_graph(_read(args.graph))
    if args.exact:  # a refused search space is a ValueError, see main
        report = solve_exact(graph, **_given(args, "node_limit"))
    else:
        report = solve_local(graph, **_given(args, "restarts", "seed"))
    print(f"mask = {report.best_mask.bitstring()}")
    _print_score(report.best_score)
    print(f"nodes = {report.nodes_explored}")
    print(f"optimality = {report.optimality}")
    if args.out:
        _atomic_write((args.out, [dump_mask(report.best_mask)]))
        print(f"wrote {args.out}")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .graph import graph_lines
    from .reduction import compile_formula, role_lines

    formula = _load_formula_file(args.formula)
    inst = compile_formula(formula, args.t)
    graph_path = f"{args.out}.graph"
    roles_path = f"{args.out}.roles"
    _atomic_write((graph_path, graph_lines(inst.graph)), (roles_path, role_lines(inst)))
    print(
        f"n = {inst.variable_count}, t = {inst.t}, "
        f"vertices = {inst.graph.vertex_count}, edges = {inst.graph.edge_count}, "
        f"free edges = {inst.core.edge_count}"  # the core's edges are the free ones
    )
    print(f"wrote {graph_path}")
    print(f"wrote {roles_path}")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    from .graph import dump_mask
    from .reduction import compile_formula, parse_assignment, witness_mask
    from .scoring import score

    formula = _load_formula_file(args.formula)
    assignment = parse_assignment(args.assignment, formula.variable_count)
    inst = compile_formula(formula, args.t)
    mask = witness_mask(inst, assignment)
    value = score(inst.core, mask, multiplier=inst.variable_count)
    mask = inst.explicit_mask(mask)  # what is printed and written
    print(f"mask = {mask.bitstring()}")
    _print_score(value, "reduction score")
    if args.out:
        _atomic_write((args.out, [dump_mask(mask)]))
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .reduction import parse_assignment
    from .verification import run_checks

    formula = _load_formula_file(args.formula)
    checks = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    assignment = None
    if args.assignment:
        assignment = parse_assignment(args.assignment, formula.variable_count)
    records = run_checks(  # its ValueErrors are usage errors, see main
        formula,
        args.t,
        checks,
        assignment=assignment,
        **_given(args, "search_budget", "lemma_samples"),
    )
    failed = False
    for rec in records:
        parts = " ".join(f"{k}={v}" for k, v in rec.quantities)
        line = f"check {rec.check} {rec.name}: {rec.status.upper()}"
        if parts:
            line += f" {parts}"
        if rec.details:
            line += f" | {rec.details}"
        print(line)
        failed = failed or rec.status != "pass"
    print(f"instance: {records[0].instance}")
    return 1 if failed else 0


def cmd_decide(args: argparse.Namespace) -> int:
    from .reduction import decide
    from .scoring import format_score

    formula = _load_formula_file(args.formula)
    report = decide(formula)
    core = report.core_report
    print(f"answer = {report.answer}")
    print(f"optimum = {format_score(core.best_score)}")
    print(f"threshold = {report.threshold:.12f}")
    print(
        f"n = {report.variable_count}, t = {report.t}, "
        f"solver = {report.solver}, optimality = {core.optimality}"
    )
    print(f"nodes = {core.nodes_explored}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrsubopt",
        description="correlation subgraph optimisation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a graph under a mask")
    p.add_argument("-g", "--graph", required=True, help="instance graph file")
    p.add_argument("-s", "--mask",
                   help="mask file (bitstring or kept edge ids); default: full graph")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("solve", help="search for a best valid mask")
    p.add_argument("-g", "--graph", required=True, help="instance graph file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="branch and bound")
    mode.add_argument("--local", action="store_true", help="steepest-ascent local search")
    p.add_argument("--restarts", type=non_negative_int, default=argparse.SUPPRESS,
                   help="random restarts for --local")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--node-limit", type=non_negative_int, default=argparse.SUPPRESS,
                   help="stop --exact after this many search nodes")
    p.add_argument("--out", help="write the best mask here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="compile a formula to a graph")
    p.add_argument("-f", "--formula", required=True, help="formula file")
    p.add_argument("-t", type=int, required=True, help="gadget scale, at least 2")
    p.add_argument("-o", "--out", required=True,
                   help="output prefix; writes <prefix>.graph and <prefix>.roles")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("witness", help="witness mask for a satisfying assignment")
    p.add_argument("-f", "--formula", required=True, help="formula file")
    p.add_argument("-t", type=int, required=True, help="gadget scale, at least 2")
    p.add_argument("-a", "--assignment", required=True, help='assignment, e.g. "TFF"')
    p.add_argument("-o", "--out", help="write the witness mask here")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run construction self-checks")
    p.add_argument("-f", "--formula", required=True, help="formula file")
    p.add_argument("-t", type=int, required=True, help="gadget scale, at least 2")
    p.add_argument("--checks", default="1,2,3,4,5,6,lemmas",
                   help="comma list from {%(default)s} (default: all)")
    p.add_argument("--assignment", help="restrict witness checks to this assignment")
    p.add_argument("--budget", type=non_negative_int, default=argparse.SUPPRESS,
                   dest="search_budget", metavar="BUDGET",
                   help="node budget for the infeasibility search")
    p.add_argument("--lemma-samples", type=non_negative_int, default=argparse.SUPPRESS,
                   help="sampled masks for the score upper bound check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decide", help="one-in-three satisfiability via the reduction")
    p.add_argument("-f", "--formula", required=True, help="formula file")
    p.set_defaults(func=cmd_decide)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # parse errors and unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
