import errno
import hashlib
import inspect
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from corrsubopt import dump_formula, load_graph, load_mask
from corrsubopt.cli import build_parser, main

import helpers

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.graph"
    path.write_text(helpers.P3_TEXT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(helpers.TRIANGLE_TEXT)
    return str(path)


@pytest.fixture
def sat3_file(tmp_path):
    """A copy of the shipped ``instances/sat3.f``: helpers.SAT3_TEXT with comments."""
    path = tmp_path / "sat3.f"
    path.write_bytes((INSTANCES / "sat3.f").read_bytes())
    return str(path)


@pytest.fixture
def unsat4_file(tmp_path):
    """A copy of the shipped ``instances/unsat4.f``: helpers.UNSAT4_TEXT with comments."""
    path = tmp_path / "unsat4.f"
    path.write_bytes((INSTANCES / "unsat4.f").read_bytes())
    return str(path)


@pytest.fixture
def cubic21_file(tmp_path):
    # Cyclic cubic formula on 21 variables: clause j holds j, j+1, j+2.
    n = 21
    clauses = [f"{j + 1} {(j + 1) % n + 1} {(j + 2) % n + 1}" for j in range(n)]
    path = tmp_path / "cubic21.f"
    path.write_text(f"{n} {n}\n" + "\n".join(clauses) + "\n")
    return str(path)


class TestScoreCommand:
    def test_pinned_output(self, p3_file, capsys):
        assert main(["score", "-g", p3_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["score = -1.386294361120", "S = 2/1"]

    def test_with_mask_file(self, triangle_file, tmp_path, capsys):
        mask = tmp_path / "m.mask"
        mask.write_text("101\n")
        assert main(["score", "-g", triangle_file, "-s", str(mask)]) == 0
        out = capsys.readouterr().out
        assert "S = 150/1" in out

    def test_infinite_score(self, tmp_path, capsys):
        path = tmp_path / "flat.graph"
        path.write_text("2 1\n0 3\n1 3\n0 1\n")
        assert main(["score", "-g", str(path)]) == 0
        assert "score = +inf" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["score"], ["solve", "--exact"], ["solve", "--local"]])
    def test_weight_beyond_the_float_range(self, tmp_path, argv, capsys):
        # S = 4 * 10^800, past the float range; the score is still finite.
        path = tmp_path / "huge.graph"
        path.write_text(f"3 2\n0 0\n1 1{'0' * 400}\n2 0\n0 1\n1 2\n")
        assert main([*argv, "-g", str(path)]) == 0
        assert "score = -5529.669959088509" in capsys.readouterr().out.splitlines()

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["score", "-g", "nope.graph"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_reports_line(self, tmp_path, capsys):
        # An exponent weight is refused, not expanded: 1e400 is malformed.
        for text, line in (("2 1\n0 x\n1 2\n0 1\n", 2),
                           ("3 2\n0 0\n1 1e400\n2 0\n0 1\n1 2\n", 3)):
            path = tmp_path / "bad.graph"
            path.write_text(text)
            assert main(["score", "-g", str(path)]) == 2
            assert f"line {line}" in capsys.readouterr().err

    def test_huge_vertex_count_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.graph"
        path.write_text("10000000000 1\n0 1\n")
        assert main(["score", "-g", str(path)]) == 2
        assert "line 1: expected 10000000000 vertex lines and 1 edge lines, found 1" in (
            capsys.readouterr().err)

    def test_invalid_mask_is_usage_error(self, triangle_file, tmp_path, capsys):
        mask = tmp_path / "m.mask"
        mask.write_text("100\n")
        assert main(["score", "-g", triangle_file, "-s", str(mask)]) == 2
        assert "isolated" in capsys.readouterr().err


class TestSolveCommand:
    def test_exact_triangle(self, triangle_file, tmp_path, capsys):
        out_file = tmp_path / "best.mask"
        assert main(["solve", "-g", triangle_file, "--exact", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "mask = 101" in out
        assert "optimality = proven" in out
        assert out_file.read_text() == "101\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_out_file_mode_follows_umask(self, triangle_file, tmp_path, umask, capsys):
        out_file = tmp_path / "best.mask"
        old = os.umask(umask)
        try:
            assert main(["solve", "-g", triangle_file, "--exact", "--out", str(out_file)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~umask

    def test_local_triangle(self, triangle_file, capsys):
        assert main(["solve", "-g", triangle_file, "--local", "--restarts", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimality = heuristic" in out

    def test_exact_past_the_free_edge_cap_is_a_usage_error(self, tmp_path, capsys):
        # K10: all 45 edges are free.
        path = tmp_path / "k10.graph"
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        path.write_text("10 45\n" + "".join(f"{v} {v}\n" for v in range(10))
                        + "".join(f"{u} {v}\n" for u, v in edges))
        assert main(["solve", "-g", str(path), "--exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 45 free edges exceed the exact-search cap of 40; "
                                "pass a node limit to search best-effort\n")

    def test_mode_is_required(self, triangle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "-g", triangle_file])
        assert exc.value.code == 2


class TestReduceCommand:
    def test_writes_graph_and_roles(self, sat3_file, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        assert main(["reduce", "-f", sat3_file, "-t", "2", "-o", prefix]) == 0
        captured = capsys.readouterr()
        assert "vertices = 120" in captured.out
        assert "warning:" in captured.err  # incidence bound fires at n=3
        graph = load_graph((tmp_path / "out.graph").read_text())
        assert graph.vertex_count == 120
        roles = (tmp_path / "out.roles").read_text().splitlines()
        assert len(roles) == 120

    def test_writes_line_by_line_in_bounded_memory(self, sat3_file, tmp_path, capsys):
        """At t = 40 (19,956 vertices) the traced peak of ``reduce``,
        compilation included, was 349 bytes a vertex while it held the text
        of both files; written line by line it is 165."""
        prefix = str(tmp_path / "big")
        peak = helpers.traced_peak(
            lambda: main(["reduce", "-f", sat3_file, "-t", "40", "-o", prefix]))
        assert "vertices = 19956" in capsys.readouterr().out
        assert peak < 240 * 19_956

    def test_no_warning_for_four_variables(self, unsat4_file, tmp_path, capsys):
        prefix = str(tmp_path / "out4")
        assert main(["reduce", "-f", unsat4_file, "-t", "2", "-o", prefix]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_bad_scale_rejected(self, sat3_file, tmp_path, capsys):
        prefix = str(tmp_path / "bad")
        assert main(["reduce", "-f", sat3_file, "-t", "1", "-o", prefix]) == 2


class TestSizeCap:
    def test_oversized_scale_is_usage_error(self, sat3_file, tmp_path, capsys):
        """reduce and witness write the explicit graph, so past the cap they
        refuse and leave no file; verify reads only the core and runs."""
        prefix = str(tmp_path / "big")
        for argv in (["reduce", "-f", sat3_file, "-t", "600", "-o", prefix],
                     ["witness", "-f", sat3_file, "-t", "600", "-a", "TFF",
                      "-o", f"{prefix}.mask"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "n(4t^2 + 6t + 12) = 4330836 vertices" in err, argv
        assert list(tmp_path.iterdir()) == [tmp_path / "sat3.f"]
        assert main(["verify", "-f", sat3_file, "-t", "600"]) == 0
        out = capsys.readouterr().out
        assert out.count(": PASS") == 7 and "instance: n=3 t=600 " in out

    def test_decide_answers_twelve_variables(self, tmp_path, capsys):
        """1,005,840 explicit vertices, over the cap; decide reads the 108 of
        the core and answers."""
        path = tmp_path / "cubic12.f"
        path.write_text(dump_formula(helpers.cubic_formula(random.Random(12), 12)))
        assert main(["decide", "-f", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n = 12, t = 144, solver = local, optimality = heuristic" in out
        assert out.split("\n", 1)[0] in ("answer = YES", "answer = NO")


class TestWitnessCommand:
    def test_writes_mask(self, sat3_file, tmp_path, capsys):
        out_file = tmp_path / "w.mask"
        rc = main(["witness", "-f", sat3_file, "-t", "2", "-a", "TFF",
                   "-o", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S = 2676/65" in out
        graph_rc = main(["reduce", "-f", sat3_file, "-t", "2",
                         "-o", str(tmp_path / "g")])
        assert graph_rc == 0
        graph = load_graph((tmp_path / "g.graph").read_text())
        mask = load_mask(out_file.read_text(), graph)
        # one drop for the true variable, seven for each false one
        assert sum(mask.kept) == graph.edge_count - 15

    def test_non_satisfying_assignment_rejected(self, sat3_file, capsys):
        assert main(["witness", "-f", sat3_file, "-t", "2", "-a", "TTF"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_checks_pass(self, sat3_file, capsys):
        rc = main(["verify", "-f", sat3_file, "-t", "2", "--lemma-samples", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("check 1 ", "check 6 ", "check lemmas "):
            assert token in out
        assert "FAIL" not in out

    def test_subset_selection(self, sat3_file, capsys):
        rc = main(["verify", "-f", sat3_file, "-t", "2", "--checks", "1,5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check 1 " in out and "check 5 " in out
        assert "check 2 " not in out

    def test_failing_assignment_sets_exit_code(self, sat3_file, capsys):
        rc = main(["verify", "-f", sat3_file, "-t", "2", "--checks", "5",
                   "--assignment", "TTF"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_inconclusive_is_nonzero(self, unsat4_file, capsys):
        rc = main(["verify", "-f", unsat4_file, "-t", "2", "--checks", "6",
                   "--budget", "3"])
        assert rc == 1
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_check6_beyond_oracle_cap_is_inconclusive(self, cubic21_file, capsys):
        rc = main(["verify", "-f", cubic21_file, "-t", "2", "--checks", "6"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("check 6 low-discrepancy-search: INCONCLUSIVE")
        assert "capped at 20 variables" in lines[0]

    def test_unknown_check_is_usage_error(self, sat3_file, capsys):
        assert main(["verify", "-f", sat3_file, "-t", "2", "--checks", "9"]) == 2

    @pytest.mark.parametrize("name", ["sat3", "unsat4"])
    def test_checks_1_to_4_draw_no_mask(self, request, name, monkeypatch, capsys):
        """Checks 1 to 4 prove their bounds for every valid mask at once, so
        all four pass (exit 0) at each t with the mask sampler refused."""
        from corrsubopt import solvers

        def refuse(graph, rng):
            raise AssertionError("mask drawn")

        monkeypatch.setattr(solvers, "random_valid_mask", refuse)
        path = request.getfixturevalue(f"{name}_file")
        for t in ("2", "4", "9"):
            assert main(["verify", "-f", path, "-t", t, "--checks", "1,2,3,4"]) == 0, t
            assert capsys.readouterr().out.count(": PASS") == 4, t

    def test_repeated_check_is_usage_error(self, sat3_file, capsys):
        assert main(["verify", "-f", sat3_file, "-t", "2", "--checks", "1,1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: repeated checks: 1"

    @pytest.mark.parametrize("selection", ["", ","])
    def test_empty_selection_is_usage_error(self, sat3_file, selection, capsys):
        # A run that checks nothing must not exit 0.
        assert main(["verify", "-f", sat3_file, "-t", "2", "--checks", selection]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "error: no checks selected"

    @pytest.mark.parametrize("flag", ["--lemma-samples", "--budget"])
    def test_negative_count_is_usage_error(self, unsat4_file, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-f", unsat4_file, "-t", "2", flag, "-3"])
        assert exc.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err


def _bound_lines(leaf_total, max_nd, bound, lower, min_sum, graph_sum, upper):
    """Stdout lines of checks 1-4, which hold for every valid mask; the
    largest attachment discrepancy is at zp_1, vertex 3."""
    return [
        f"check 1 leaf-discrepancy-total: PASS leaf_total={leaf_total} expected={leaf_total}",
        f"check 2 attachment-discrepancy-bound: PASS max_nd={max_nd} vertex=3 bound={bound}",
        f"check 3 degree-log-lower: PASS lower={lower} min_sum={min_sum}",
        f"check 4 degree-log-upper: PASS graph_sum={graph_sum} upper={upper}",
    ]


SAT3_T2_1_4 = _bound_lines("36/1", "36/169", "1/4", "18.476649250", "22.364159848",
                           "43.473924301", "72.476649250")
UNSAT4_T2_1_4 = _bound_lines("48/1", "36/169", "1/4", "24.635532333", "29.818879797",
                             "57.965232401", "96.635532333")
UNSAT4_T3_1_4 = _bound_lines("72/1", "81/784", "1/9", "34.366694928", "39.550042392",
                             "66.507356434", "106.366694928")
SAT3_T2_CHECK6 = ("check 6 low-discrepancy-search: PASS nodes=51 threshold=4/9 | negative "
                  "control: counterexample found, as expected for a satisfiable formula")
UNSAT4_NO_WITNESS = ("check 5 witness-zero-discrepancy: INCONCLUSIVE | no 1-in-3 "
                     "satisfying assignment exists")
CAPPED = "INCONCLUSIVE | exhaustive assignment search capped at 20 variables, got 21"
NOT_ONE_IN_THREE = "FAIL assignment=TTF | assignment does not satisfy exactly one variable per clause"

# Full `verify` stdout and exit status, pinned before the check layer was
# restructured around one record site; any change to a record shows here.
VERIFY_GOLDEN = {
    "sat3-t2": (["-f", "sat3", "-t", "2"], 0, SAT3_T2_1_4 + [
        "check 5 witness-zero-discrepancy: PASS assignments_checked=3",
        SAT3_T2_CHECK6,
        "check lemmas score-bounds: PASS witness_bound=0.193615563 witness_margin=20.839715401",
        "instance: n=3 t=2 formula=4aae2373",
    ]),
    "unsat4-t2": (["-f", "unsat4", "-t", "2", "--lemma-samples", "100"], 1, UNSAT4_T2_1_4 + [
        UNSAT4_NO_WITNESS,
        "check 6 low-discrepancy-search: PASS nodes=224 threshold=4/9 | exhaustive: every "
        "valid mask pushes some designated vertex to discrepancy >= 4/9",
        "check lemmas score-bounds: PASS score_upper_bound=99.879253198 "
        "max_observed=38.649516670 masks_checked=101",
        "instance: n=4 t=2 formula=4f092725",
    ]),
    "unsat4-t3": (["-f", "unsat4", "-t", "3", "--lemma-samples", "100"], 1, UNSAT4_T3_1_4 + [
        UNSAT4_NO_WITNESS,
        "check 6 low-discrepancy-search: PASS nodes=776 threshold=9/9 | exhaustive: every "
        "valid mask pushes some designated vertex to discrepancy >= 9/9",
        "check lemmas score-bounds: PASS score_upper_bound=106.366694928 "
        "max_observed=44.979922661 masks_checked=101",
        "instance: n=4 t=3 formula=4f092725",
    ]),
    "sat3-assignment": (["-f", "sat3", "-t", "2", "--assignment", "TTF"], 1, SAT3_T2_1_4 + [
        f"check 5 witness-zero-discrepancy: {NOT_ONE_IN_THREE}",
        SAT3_T2_CHECK6,
        f"check lemmas score-bounds: {NOT_ONE_IN_THREE}",
        "instance: n=3 t=2 formula=4aae2373",
    ]),
    "unsat4-budget": (["-f", "unsat4", "-t", "2", "--budget", "3", "--lemma-samples", "100"],
                      1, UNSAT4_T2_1_4 + [
        UNSAT4_NO_WITNESS,
        "check 6 low-discrepancy-search: INCONCLUSIVE | budget of 3 nodes exhausted",
        "check lemmas score-bounds: PASS score_upper_bound=99.879253198 "
        "max_observed=38.649516670 masks_checked=101",
        "instance: n=4 t=2 formula=4f092725",
    ]),
    # t^2 and D far beyond a float's exact integers: the look-ahead's int limit.
    **{f"unsat4-check6-t{t}": (["-f", "unsat4", "-t", t, "--checks", "6"], 0, [
        f"check 6 low-discrepancy-search: PASS nodes=1560 threshold={int(t) ** 2}/9 | "
        f"exhaustive: every valid mask pushes some designated vertex to discrepancy >= "
        f"{int(t) ** 2}/9",
        f"instance: n=4 t={t} formula=4f092725",
    ]) for t in ("600", "174700000000")},
    "cubic21": (["-f", "cubic21", "-t", "2", "--checks", "5,6,lemmas"], 1, [
        f"check 5 witness-zero-discrepancy: {CAPPED}",
        f"check 6 low-discrepancy-search: {CAPPED}",
        f"check lemmas score-bounds: {CAPPED}",
        "instance: n=21 t=2 formula=c3e09f33",
    ]),
    "selection-order": (["-f", "sat3", "-t", "2", "--checks", "4,3,1"], 0, [
        SAT3_T2_1_4[3], SAT3_T2_1_4[2], SAT3_T2_1_4[0],
        "instance: n=3 t=2 formula=4aae2373",
    ]),
}


@pytest.mark.parametrize("case", VERIFY_GOLDEN)
def test_verify_golden_stdout(request, case, capsys):
    args, status, lines = VERIFY_GOLDEN[case]
    args = [request.getfixturevalue(f"{a}_file") if prev == "-f" else a
            for prev, a in zip([None] + args, args)]
    assert main(["verify", *args]) == status
    assert capsys.readouterr().out.splitlines() == lines


class TestDecideCommand:
    def test_satisfiable(self, sat3_file, capsys):
        assert main(["decide", "-f", sat3_file]) == 0
        out = capsys.readouterr().out
        assert "answer = YES" in out
        assert "threshold = 28.014613361037" in out
        assert "note:" in out

    @pytest.mark.parametrize("name, n, nodes, optimum", [
        pytest.param("sat3", 3, 768, "49.811436190181", id="sat3"),
        pytest.param("unsat4", 4, 3138, "75.140120141580", id="unsat4"),
    ])
    def test_prints_search_nodes(self, request, name, n, nodes, optimum, capsys):
        """Both shipped formulas are proven, in pinned node counts; unsat4
        answers YES too, since at n = 4 the threshold separates nothing."""
        assert main(["decide", "-f", request.getfixturevalue(f"{name}_file")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["answer = YES", f"optimum = {optimum}"]
        at = lines.index(f"n = {n}, t = {n * n}, solver = exact, optimality = proven")
        assert lines[at + 1] == f"nodes = {nodes}"

    def test_caveat_always_present(self, unsat4_file, capsys):
        assert main(["decide", "-f", unsat4_file]) == 0
        out = capsys.readouterr().out
        assert "e^47" in out


class TestRoundTrip:
    def test_reduce_then_score_matches_in_process_value(self, sat3_file, tmp_path, capsys):
        from corrsubopt import SubgraphMask, compile_formula, score
        from corrsubopt.scoring import format_fraction, format_score

        prefix = str(tmp_path / "rt")
        assert main(["reduce", "-f", sat3_file, "-t", "2", "-o", prefix]) == 0
        capsys.readouterr()
        assert main(["score", "-g", f"{prefix}.graph"]) == 0
        out = capsys.readouterr().out.splitlines()
        inst = compile_formula(helpers.make_formula(helpers.SAT3_TEXT), 2)
        value = score(inst.graph, SubgraphMask.full(inst.graph))
        assert out[0] == f"score = {format_score(value)}"
        assert out[1] == f"S = {format_fraction(value.discrepancy_total)}"

DECIDE_NOTES = [
    "note: threshold uses coefficient 17/2; the 13/2 variant sometimes quoted does not "
    "separate the two cases",
    "note: threshold separation is established only for variable counts above e^47; at "
    "this size the verdict carries no correctness claim",
]


def _decide_lines(optimum, threshold, n, solver, optimality, nodes):
    return ["answer = YES", f"optimum = {optimum}", f"threshold = {threshold}",
            f"n = {n}, t = {n * n}, solver = {solver}, optimality = {optimality}",
            f"nodes = {nodes}", *DECIDE_NOTES]


def _verify_row(case):
    """A ``VERIFY_GOLDEN`` case as a row of ``NO_NEIGHBOUR_LISTS``."""
    args, status, lines = VERIFY_GOLDEN[case]
    argv = [f"{{{a}}}" if prev == "-f" else a for prev, a in zip([None] + args, args)]
    return ["verify", *argv], lines, status


SAT3_T2_WITNESS = ("111111101111111111111111111111111111111111110000111111111111111111101010"
                   "111111110000111111111111111111101010111111111111111")
SAT3_T3_WITNESS = ("111111111101111111111111111111111111111111111111111111111111111111110000"
                   "111111111111111111111111111111111111101010111111111110000111111111111111"
                   "111111111111111111111101010111111111111111111111111111111")

# One row per command and input: argv, pinned stdout and exit status.  In
# argv and stdout, {sat3} and {unsat4} are the shipped formulas, {cubic4}
# and {cubic5} ``cubic_formula`` draws at seeds 4 and 5, {rt2} and {rt3}
# the prefix of sat3's reduced graph and TFF witness mask at t = 2 and 3,
# and {out} an output prefix.
NO_NEIGHBOUR_LISTS = {
    **{f"reduce-t{t}": (["reduce", "-f", "{sat3}", "-t", str(t), "-o", "{out}"], [
        f"n = 3, t = {t}, vertices = {vertices}, edges = {vertices + 3}, free edges = 30",
        "wrote {out}.graph", "wrote {out}.roles"], 0) for t, vertices in ((2, 120), (3, 198))},
    **{f"witness-t{t}": (["witness", "-f", "{sat3}", "-t", str(t), "-a", "TFF",
                          "-o", "{out}.mask"], [
        f"mask = {mask}", f"reduction score = {value}", f"S = {s}", "wrote {out}.mask"], 0)
       for t, mask, value, s in ((2, SAT3_T2_WITNESS, "21.033330964538", "2676/65"),
                                 (3, SAT3_T3_WITNESS, "26.532404048176", "8343/140"))},
    **{f"score-t{t}": (["score", "-g", f"{{rt{t}}}.graph", "-s", f"{{rt{t}}}.mask"],
                       [f"score = {value}", f"S = {s}"], 0)
       for t, value, s in ((2, "-413.936533743702", "2676/65"),
                           (3, "-770.537061408914", "8343/140"))},
    "solve-exact": (["solve", "-g", "{rt2}.graph", "--exact"], [
        f"mask = {SAT3_T2_WITNESS}", "score = -413.936533743702", "S = 2676/65",
        "nodes = 64146", "optimality = proven"], 0),
    "solve-local": (["solve", "-g", "{rt2}.graph", "--local", "--restarts", "2"], [
        "mask = 111111101101111111111111111111111110111111111000111111111111111111111010"
        "111111100111111111111111111111101111111111111111111",
        "score = -435.088500226674", "S = 9868/195", "nodes = 1043",
        "optimality = heuristic"], 0),
    "decide-sat3": (["decide", "-f", "{sat3}"], _decide_lines(
        "49.811436190181", "28.014613361037", 3, "exact", "proven", 768), 0),
    "decide-cubic4": (["decide", "-f", "{cubic4}"], _decide_lines(
        "75.140120141580", "47.134008278076", 4, "exact", "proven", 3138), 0),
    "decide-cubic5": (["decide", "-f", "{cubic5}"], _decide_lines(
        "102.193474573207", "68.401111278449", 5, "local", "heuristic", 2359), 0),
    "verify-sat3-t2": _verify_row("sat3-t2"),
    "verify-unsat4-t2": _verify_row("unsat4-t2"),
}


@pytest.mark.parametrize("row", NO_NEIGHBOUR_LISTS)
def test_no_command_builds_neighbour_lists_or_the_forced_edge_set(request, row, tmp_path,
                                                                    monkeypatch, capsys):
    """Each command prints its pinned stdout with the per-vertex
    ``WeightedGraph.incidence`` lists and ``forced_edges()``, the set of
    forced edge ids, refused.  Degrees, forced edges and the leaves' share
    of S come from the edge list, and every command reads host degrees or
    ``free_edge_ids``.  Checks 1 to 4 read per-graph caches, check 5 reads
    each vertex's (d, W d - s) from a ``ScoreState``; sat3 runs the witness
    branch of lemmas, unsat4 its sampled score bound.  The warm start
    repairs isolated vertices from ``free_incidence``, and neither search
    reads neighbour lists: cubic4 is proven by branch and bound, cubic5 (50
    free edges) falls back to the local search."""
    import corrsubopt.graph
    from corrsubopt import WeightedGraph

    argv, lines, status = NO_NEIGHBOUR_LISTS[row]
    paths = {name: request.getfixturevalue(f"{name}_file") for name in ("sat3", "unsat4")}
    paths["out"] = str(tmp_path / "out")
    for n in (4, 5):
        path = tmp_path / f"cubic{n}.f"
        path.write_text(dump_formula(helpers.cubic_formula(random.Random(n), n)))
        paths[f"cubic{n}"] = str(path)
    for t in ("2", "3"):
        prefix = paths[f"rt{t}"] = str(tmp_path / f"rt{t}")
        if any(f"{{rt{t}}}" in arg for arg in argv):
            assert main(["reduce", "-f", paths["sat3"], "-t", t, "-o", prefix]) == 0
            assert main(["witness", "-f", paths["sat3"], "-t", t, "-a", "TFF",
                         "-o", f"{prefix}.mask"]) == 0
    capsys.readouterr()

    def refuse(graph):
        raise AssertionError("neighbour lists or forced edge set built")

    monkeypatch.setattr(WeightedGraph, "incidence", property(refuse))
    monkeypatch.setattr(corrsubopt.graph, "forced_edges", refuse)
    assert main([arg.format(**paths) for arg in argv]) == status
    assert capsys.readouterr().out.splitlines() == [line.format(**paths) for line in lines]


# sha256 of the files reduce and witness write: any change to the vertex
# layout, the roles, the weights or the file format shows here.
REDUCE_DIGESTS = {
    ("sat3", 2): ("86b76097133b70ac82e96e003e5d376d8d8c6caf46d35dab7f16ec2778179c1e",
                  "87651e7841ef4f3a8285fc35bf61006a5d2e8c7edd2ea8f46dd4dbfa80c7ae50"),
    ("sat3", 3): ("c4f51d936ea6bed44365bd6ee006751be65da53a6860b86e828d25092f37c570",
                  "3f0ae7a62d1f73793ce6e7d68e14143ede6473ff6cc6b7dcb46a180aac6fc43c"),
    ("unsat4", 2): ("bc54505316214ced3a87472c5c7e9af469da984ca89a97c4e1096f285cb8b02c",
                    "253ffb84a3ce259de6a7bbe9a83ed146a08d88a2a21a001aef164229cc8ea080"),
    ("unsat4", 3): ("a1a2109855fe476c06d146dc2e8a801dc8b974bef89bd81720db038f711b2018",
                    "a94247c7e65d0ca370868b690e70506a6f3a0d53df614aaa38b4620b2a0ceefd"),
}
WITNESS_DIGESTS = {
    (2, "TFF"): "1dc6314421c8ae043415d83585e19a82e2eb960d1570d7444998668b2a04c67f",
    (2, "FTF"): "2270d2a4fc82f6b180d601d21a097b34ee18018479abeac62757748f625d6c7b",
    (2, "FFT"): "79a15e5c67ed295f492fc0e66e46d0856606f8606bb75760c3a1167fa5ef4217",
    (3, "TFF"): "9346d560d0ccaade859add5d4249cb7734a5d1a726ef068d3d469969a27806aa",
    (3, "FTF"): "f2596e2778d1c3411d91f5cdaf61db1ad1e70efeac1d7bacb0cc6f26e50db543",
    (3, "FFT"): "8e3073ed6148f6b919f05c343fc7bf55e31889c554c8d997456b29f57e465244",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWrittenBytes:
    @pytest.mark.parametrize("name, t", [pytest.param(*key, id=f"{key[0]}-t{key[1]}")
                                         for key in REDUCE_DIGESTS])
    def test_reduce_files_pinned(self, request, name, t, tmp_path):
        path = request.getfixturevalue(f"{name}_file")
        assert main(["reduce", "-f", path, "-t", str(t), "-o", str(tmp_path / "p")]) == 0
        got = (_sha256(tmp_path / "p.graph"), _sha256(tmp_path / "p.roles"))
        assert got == REDUCE_DIGESTS[name, t]

    @pytest.mark.parametrize("t, assignment", [pytest.param(*key, id=f"t{key[0]}-{key[1]}")
                                               for key in WITNESS_DIGESTS])
    def test_witness_mask_pinned(self, sat3_file, t, assignment, tmp_path):
        out = tmp_path / "w.mask"
        assert main(["witness", "-f", sat3_file, "-t", str(t), "-a", assignment,
                     "-o", str(out)]) == 0
        assert _sha256(out) == WITNESS_DIGESTS[t, assignment]


@pytest.mark.parametrize("command", ["reduce", "witness", "solve"])
class TestUnwritableOutput:
    """An output path that cannot be written is a usage error: exit 2 with
    one ``error:`` line, no exception out of ``main`` and no temporary file
    left next to the target."""

    @staticmethod
    def argv_and_target(command, sat3_file, triangle_file, out):
        """The command writing to ``out``, and the first file it writes."""
        if command == "reduce":
            return ["reduce", "-f", sat3_file, "-t", "2", "-o", out], f"{out}.graph"
        if command == "witness":
            return ["witness", "-f", sat3_file, "-t", "2", "-a", "TFF", "-o", out], out
        return ["solve", "-g", triangle_file, "--exact", "--out", out], out

    def test_missing_directory(self, command, sat3_file, triangle_file, tmp_path, capsys):
        argv, target = self.argv_and_target(
            command, sat3_file, triangle_file, str(tmp_path / "missing" / "x"))
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: cannot write {target}: No such file or directory"]

    def test_directory_in_the_way(self, command, sat3_file, triangle_file, tmp_path, capsys):
        parent = tmp_path / "out"
        parent.mkdir()
        argv, target = self.argv_and_target(command, sat3_file, triangle_file, str(parent / "x"))
        os.mkdir(target)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            f"error: cannot write {target}: ")
        assert os.listdir(parent) == [os.path.basename(target)]


@pytest.mark.parametrize("blocked", ["graph", "roles"])
def test_reduce_writes_both_files_or_neither(blocked, sat3_file, tmp_path, capsys):
    """A directory in the way of either output of ``reduce``: exit 2, and no
    ``.graph``, ``.roles`` or temporary file is left next to it."""
    parent = tmp_path / "out"
    parent.mkdir()
    target = parent / f"p.{blocked}"
    target.mkdir()
    assert main(["reduce", "-f", sat3_file, "-t", "2", "-o", str(parent / "p")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: cannot write {target}: Is a directory")
    assert os.listdir(parent) == [target.name]


def test_failed_rename_leaves_no_temporary(tmp_path, monkeypatch):
    """A rename that fails after the first target is replaced (say, in a
    sticky directory over another user's file) is a usage error, and the
    temporary it could not rename is removed with the rest."""
    from corrsubopt import cli

    rename = os.replace
    calls = []

    def second_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))
        rename(src, dst)

    monkeypatch.setattr(cli.os, "replace", second_fails)
    graph, roles = str(tmp_path / "p.graph"), str(tmp_path / "p.roles")
    with pytest.raises(ValueError, match=f"cannot write {roles}: "):
        cli._atomic_write((graph, "graph\n"), (roles, "roles\n"))
    assert os.listdir(tmp_path) == ["p.graph"]
    assert (tmp_path / "p.graph").read_text() == "graph\n"


@pytest.mark.parametrize("command", ["reduce", "witness", "solve"])
class TestWritesAsOpenDoes:
    """An output is written as a plain ``open`` writes it: through a
    symlink to its target, which a link to a directory cannot take, and
    into an existing file with that file's own mode."""

    @staticmethod
    def written(command, sat3_file, triangle_file, out):
        """(argv, the files it writes): the command of TestUnwritableOutput."""
        argv, first = TestUnwritableOutput.argv_and_target(
            command, sat3_file, triangle_file, out)
        return argv, [first, f"{out}.roles"] if command == "reduce" else [first]

    def expected(self, command, sat3_file, triangle_file, directory):
        """The bytes of each file the command writes into a fresh directory."""
        directory.mkdir()
        argv, paths = self.written(command, sat3_file, triangle_file, str(directory / "x"))
        assert main(argv) == 0
        return [Path(path).read_bytes() for path in paths]

    def test_symlink_to_a_file_is_kept(self, command, sat3_file, triangle_file, tmp_path):
        want = self.expected(command, sat3_file, triangle_file, tmp_path / "plain")
        (tmp_path / "real").mkdir()
        (tmp_path / "out").mkdir()
        argv, paths = self.written(command, sat3_file, triangle_file, str(tmp_path / "out" / "x"))
        targets = [tmp_path / "real" / f"target{i}" for i in range(len(paths))]
        for path, target in zip(paths, targets):
            target.write_text("old\n")
            os.symlink(target, path)
        assert main(argv) == 0
        for path, target, data in zip(paths, targets, want):
            assert os.path.islink(path) and os.readlink(path) == str(target)
            assert target.read_bytes() == data
        assert sorted(os.listdir(tmp_path / "real")) == sorted(t.name for t in targets)

    def test_symlink_to_a_directory_is_in_the_way(self, command, sat3_file, triangle_file,
                                                  tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "out").mkdir()
        argv, paths = self.written(command, sat3_file, triangle_file, str(tmp_path / "out" / "x"))
        os.symlink(tmp_path / "dir", paths[0])
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: cannot write {paths[0]}: Is a directory")
        assert os.path.islink(paths[0])
        assert os.listdir(tmp_path / "dir") == []
        assert os.listdir(tmp_path / "out") == [os.path.basename(paths[0])]

    def test_existing_file_keeps_its_mode(self, command, sat3_file, triangle_file, tmp_path):
        want = self.expected(command, sat3_file, triangle_file, tmp_path / "plain")
        (tmp_path / "out").mkdir()
        argv, paths = self.written(command, sat3_file, triangle_file, str(tmp_path / "out" / "x"))
        for path in paths:
            Path(path).write_text("old\n")
            os.chmod(path, 0o600)
        assert main(argv) == 0
        for path, data in zip(paths, want):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
            assert Path(path).read_bytes() == data


# `verify -h` at 80 columns, as argparse formats it.
VERIFY_HELP = """\
usage: corrsubopt verify [-h] -f FORMULA -t T [--checks CHECKS]
                         [--assignment ASSIGNMENT] [--budget BUDGET]
                         [--lemma-samples LEMMA_SAMPLES]

options:
  -h, --help            show this help message and exit
  -f FORMULA, --formula FORMULA
                        formula file
  -t T                  gadget scale, at least 2
  --checks CHECKS       comma list from {1,2,3,4,5,6,lemmas} (default: all)
  --assignment ASSIGNMENT
                        restrict witness checks to this assignment
  --budget BUDGET       node budget for the infeasibility search
  --lemma-samples LEMMA_SAMPLES
                        sampled masks for the score upper bound check
"""


class TestMisc:
    def test_assignment_flag_is_scoped_to_its_subcommands(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["score", "-g", p3_file, "--assignment", "TFF"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["T", ""])
    @pytest.mark.parametrize("command, flag", [("witness", "-a"), ("verify", "--assignment")])
    def test_assignment_of_the_wrong_length_is_usage_error(self, sat3_file, command, flag, text,
                                                           capsys):
        # An empty assignment is one of the wrong length, not an absent one.
        assert main([command, "-f", sat3_file, "-t", "2", flag, text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: assignment must be 3 characters of T/F, got {text!r}")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "corrsubopt" in capsys.readouterr().out

    def test_negative_limits_are_usage_errors(self, p3_file, capsys):
        for argv in (["solve", "-g", p3_file, "--local", "--restarts", "-1"],
                     ["solve", "-g", p3_file, "--exact", "--node-limit", "-1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "must be a non-negative integer" in capsys.readouterr().err

    def test_verify_checks_default_is_every_selector(self):
        from corrsubopt.verification import ALL_CHECKS

        args = build_parser().parse_args(["verify", "-f", "x.f", "-t", "2"])
        assert args.checks == ",".join(ALL_CHECKS)

    def test_options_reach_the_library_only_when_given(self, triangle_file, sat3_file,
                                                       monkeypatch):
        # The parser states no library default: an omitted option is not
        # passed, so the library's own default applies; a given one is
        # forwarded as given.
        from corrsubopt import solvers, verification

        class Called(Exception):
            pass

        cases = (
            (["solve", "-g", triangle_file, "--exact"], solvers, "solve_exact",
             {"--node-limit": ("node_limit", 7)}),
            (["solve", "-g", triangle_file, "--local"], solvers, "solve_local",
             {"--restarts": ("restarts", 3), "--seed": ("seed", 5)}),
            (["verify", "-f", sat3_file, "-t", "2"], verification, "run_checks",
             {"--budget": ("search_budget", 9), "--lemma-samples": ("lemma_samples", 4)}),
        )
        for argv, module, name, options in cases:
            signature = inspect.signature(getattr(module, name))
            passed = []

            def spy(*args, **kwargs):
                passed.append(signature.bind(*args, **kwargs).arguments)
                raise Called

            monkeypatch.setattr(module, name, spy)
            for given in ({}, options):  # none of the options, then all of them
                extra = [str(x) for flag, (_, value) in given.items() for x in (flag, value)]
                with pytest.raises(Called):
                    main(argv + extra)
                arguments = passed.pop()
                for flag, (param, value) in options.items():
                    assert arguments.get(param, "omitted") == (
                        value if flag in given else "omitted"), (argv, flag)

    @pytest.mark.parametrize("argv", [["verify", "-t", "2", "--seed", "1"],
                                      ["decide", "--restarts", "2"],
                                      ["decide", "--seed", "0"],
                                      ["decide", "--node-limit", "5000"]])
    def test_fixed_warm_start_and_sample_seed_take_no_option(self, argv, sat3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "-f", sat3_file, *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_verify_help_is_pinned(self, monkeypatch, capsys):
        # build_parser writes out the --checks default; the help must not move.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == VERIFY_HELP

    def test_threads_flag_is_refused(self, p3_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", "-g", p3_file, "--threads", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    def test_console_script_installed(self, p3_file):
        proc = subprocess.run(
            [sys.executable, "-m", "corrsubopt.cli", "score", "-g", p3_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "score = -1.386294361120" in proc.stdout
