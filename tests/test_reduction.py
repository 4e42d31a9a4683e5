import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsubopt import (
    AssignmentError,
    Formula,
    FormulaError,
    IncidenceBoundWarning,
    ReductionInstance,
    SubgraphMask,
    compile_formula,
    decide,
    dump_formula,
    dump_graph,
    forced_edges,
    is_one_in_three,
    is_valid,
    parse_assignment,
    parse_formula,
    satisfying_assignments,
    witness_mask,
)
from corrsubopt.graph import GraphParseError, LineError
from corrsubopt.reduction import role_lines
from corrsubopt.solvers import (
    DEFAULT_FREE_EDGE_CAP, breadth_first_order, solve_exact, solve_local)
from corrsubopt.scoring import format_fraction, neighbourhood_discrepancy
from corrsubopt.verification import run_checks

import helpers


class TestFormula:
    def test_round_trip(self, sat3):
        assert helpers.make_formula(dump_formula(sat3)) == sat3

    def test_clauses_of_ascending(self, unsat4):
        assert unsat4.slots[0] == (1, 2, 3)
        assert unsat4.slots[3] == (2, 3, 4)

    def test_equality_and_hash_follow_the_fields(self, unsat4):
        again = helpers.make_formula(helpers.UNSAT4_TEXT)
        assert again == unsat4 and hash(again) == hash(unsat4)
        swapped = Formula(4, (unsat4.clauses[1], unsat4.clauses[0]) + unsat4.clauses[2:])
        assert swapped != unsat4
        assert unsat4 != (unsat4.variable_count, unsat4.clauses)
        assert repr(again).startswith("Formula(variable_count=4, clauses=(frozenset({")
        with pytest.raises(AttributeError):
            again.clauses = ()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("3\n1 2 3\n", "header"),
            ("3 x\n1 2 3\n", "integers"),
            ("3 3\n1 2 3\n1 2 3\n", "expected 3 clause lines"),
            ("3 3\n1 2 3\n1 2 3\n1 2\n", "three variable ids"),
            ("3 3\n1 2 3\n1 2 3\n1 2 2\n", "distinct"),
            ("3 3\n1 2 3\n1 2 3\n1 2 9\n", "out of range"),
            ("4 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n", "needs exactly 3"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(FormulaError) as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parse_formula(text)
        assert fragment in str(exc.value)

    def test_error_lines_count_comments(self):
        text = "# c\n3 3\n1 2 3\n1 2 3\nbad line\n"
        with pytest.raises(FormulaError, match="line 5"):
            parse_formula(text)

    @pytest.mark.parametrize("text, line", [
        ("", None),
        ("# c\n3\n1 2 3\n", 2),
        ("3 x\n1 2 3\n", 1),
        ("# c\n3 3\n1 2 3\n1 2 3\n", 2),
        ("3 3\n1 2 3\n\n1 2 3\n1 2\n", 5),
        ("3 3\n1 2 3\n1 2 3\n1 2 9\n", None),  # Formula's own check: no one line
    ])
    def test_errors_carry_their_line(self, text, line):
        """Formula and graph errors share one base, which writes the
        ``line N: `` prefix and keeps N as ``.line``."""
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert isinstance(exc.value, LineError) and issubclass(GraphParseError, LineError)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ") == (line is not None)

    def test_needs_three_variables(self):
        with pytest.raises(FormulaError, match="at least three"):
            Formula(2, (frozenset({1, 2}),) * 2)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: parse_formula("3 4\n1 2 3\n1 2 3\n1 2 3\n1 2 3\n"),
                         "expected 3 clauses for 3 variables, got 4", id="clause-count"),
            pytest.param(lambda: parse_formula("3 3\n1 2 3\n1 2 3\n1 2 x\n"),
                         "line 4: variable ids must be integers", id="variable-ids"),
            pytest.param(lambda: Formula(3, (frozenset({1, 2}),) + (frozenset({1, 2, 3}),) * 2),
                         "clause 1 must have three distinct variables", id="two-variables"),
        ],
    )
    def test_input_errors(self, make, message):
        # Messages no other test reaches, pinned as they read.
        with pytest.raises(FormulaError) as exc:
            make()
        assert str(exc.value) == message

    def test_incidence_warning_below_four_variables(self):
        with pytest.warns(IncidenceBoundWarning):
            parse_formula(helpers.SAT3_TEXT)

    def test_no_warning_at_four_variables(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_formula(helpers.UNSAT4_TEXT)


class TestAssignments:
    def test_parse_assignment(self):
        assert parse_assignment("TfF", 3) == (True, False, False)

    @pytest.mark.parametrize("text", ["TT", "TTTT", "TXF", ""])
    def test_parse_assignment_rejects(self, text):
        with pytest.raises(AssignmentError):
            parse_assignment(text, 3)

    def test_one_in_three(self, sat3):
        assert is_one_in_three(sat3, (True, False, False))
        assert not is_one_in_three(sat3, (True, True, False))
        assert not is_one_in_three(sat3, (False, False, False))

    def test_satisfying_assignments_pinned(self, sat3, unsat4, unsat6):
        assert satisfying_assignments(sat3) == [
            (True, False, False),
            (False, True, False),
            (False, False, True),
        ]
        assert satisfying_assignments(unsat4) == []
        assert unsat6 == helpers.cubic_formula(random.Random(7000 + 31 * 6 + 10), 6)
        assert satisfying_assignments(unsat6) == []

    def test_counting_rule(self):
        """A cubic formula has n clauses and each variable is in three, so a
        1-in-3 assignment has 3 x (true variables) = n: none when 3 does not
        divide n, and exactly n/3 true variables otherwise."""
        satisfiable = set()
        for n in range(3, 13):
            for i in range(6):
                formula = helpers.cubic_formula(random.Random(f"count:{n}:{i}"), n)
                assignments = satisfying_assignments(formula)
                if n % 3:
                    assert assignments == [], (n, i)
                for assignment in assignments:
                    assert sum(assignment) == n // 3, (n, i, assignment)
                    satisfiable.add(n)
        assert satisfiable == {3, 6, 9, 12}

    def test_matches_the_exhaustive_reference_in_order(self):
        """The n/3-subset oracle lists what trying all 2^n assignments
        lists, in the same order, on draws with several assignments."""
        several = 0
        for n in range(3, 13):
            for i in range(10):
                formula = helpers.cubic_formula(random.Random(f"order:{n}:{i}"), n)
                assignments = satisfying_assignments(formula)
                assert assignments == helpers.exhaustive_assignments(formula), (n, i)
                several += n > 3 and len(assignments) > 1
        assert several

    def test_prism_closed_form_is_the_oracle(self):
        for m in range(4, 17, 2):
            formula = helpers.prism_formula(m)
            assert helpers.prism_assignments(m) == satisfying_assignments(formula), m


GRID = ((3, 2), (3, 3), (4, 2), (4, 4))


def grid_instance(n, t):
    text = helpers.SAT3_TEXT if n == 3 else helpers.UNSAT4_TEXT
    formula = helpers.make_formula(text)
    return formula, compile_formula(formula, t)


class TestCompile:
    def test_rejects_small_t(self, sat3):
        with pytest.raises(ValueError, match="t"):
            compile_formula(sat3, 1)

    @pytest.mark.parametrize("n,t", GRID)
    def test_vertex_count_formula(self, n, t):
        _, inst = grid_instance(n, t)
        assert inst.graph.vertex_count == n * (4 * t * t + 6 * t + 12)

    def test_pinned_sizes_at_smallest_scale(self):
        _, inst = grid_instance(3, 2)
        g = inst.graph
        assert g.vertex_count == 120
        assert g.edge_count == 123
        assert len(inst.graph.free_edge_ids) == 30

    @pytest.mark.parametrize("n,t", GRID)
    def test_free_edges_are_ten_per_variable(self, n, t):
        _, inst = grid_instance(n, t)
        assert len(inst.graph.free_edge_ids) == 10 * n

    def test_role_population(self):
        _, inst = grid_instance(3, 5)
        t, n = 5, 3
        counts = {}
        prefixes = ("leaf_zp", "leaf_u", "leaf_z", "leaf_w", "leaf_ap")
        for role in inst.roles:
            if role.startswith("leaf"):
                tag = next(p for p in prefixes if role.startswith(p))
            else:
                tag = role.split("_")[0]
            counts[tag] = counts.get(tag, 0) + 1
        assert counts["u"] == counts["v"] == counts["z"] == counts["zp"] == n
        assert counts["w"] == 3 * n
        assert counts["a"] == counts["ap"] == n
        assert counts["leaf_u"] == n * 3 * t
        assert counts["leaf_z"] == n * 3 * t
        assert counts["leaf_zp"] == n * 3 * t * t
        assert counts["leaf_w"] == n * 3
        assert counts["leaf_ap"] == n * t * t

    def test_gadget_weights(self):
        _, inst = grid_instance(3, 2)
        w = inst.core.weights
        t = 2
        assert w[helpers.role(inst, "u_1")] == 7 * t
        assert w[helpers.role(inst, "v_1")] == 4 * t
        assert w[helpers.role(inst, "z_1")] == t
        assert w[helpers.role(inst, "zp_1")] == 4 * t
        assert w[helpers.role(inst, "w_1_2")] == 3 * t
        assert w[helpers.role(inst, "a_2")] == 2 * t
        assert w[helpers.role(inst, "ap_2")] == t

    def test_cross_edges_follow_clause_order(self, sat3):
        inst = compile_formula(sat3, 2)
        for i in (1, 2, 3):
            assert inst.formula.slots[i - 1] == (1, 2, 3)
            for slot, j in enumerate(inst.formula.slots[i - 1], 1):
                w, a = helpers.role(inst, f"w_{i}_{slot}"), helpers.role(inst, f"a_{j}")
                assert inst.core.edge_id(w, a) is not None

    def test_instances_differ_across_inputs(self, sat3, unsat4):
        a = compile_formula(sat3, 2).graph
        b = compile_formula(sat3, 3).graph
        c = compile_formula(unsat4, 2).graph
        assert a != b
        assert a != c

    def test_instance_value_semantics(self, sat3, unsat4):
        """An instance is the value of (formula, t): compile_formula and the
        constructor give equal instances with equal hashes, and another t or
        formula gives an unequal one."""
        inst, again = compile_formula(sat3, 2), ReductionInstance(sat3, 2)
        assert inst == again and hash(inst) == hash(again)
        assert inst == ReductionInstance(helpers.make_formula(helpers.SAT3_TEXT), 2)
        assert inst != compile_formula(sat3, 3)
        assert inst != compile_formula(unsat4, 2)
        assert inst.formula is sat3 and inst.t == 2 and inst.variable_count == 3
        with pytest.raises(ValueError, match="scale t must be at least 2, got 1"):
            ReductionInstance(sat3, 1)
        clauses = "(frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({1, 2, 3}))"
        assert repr(inst) == (
            f"ReductionInstance(formula=Formula(variable_count=3, clauses={clauses}), t=2)")
        with pytest.raises(AttributeError):
            inst.t = 3

    def test_two_core_is_subdivided_incidence_graph(self, unsat4):
        inst = compile_formula(unsat4, 2)
        g = inst.core
        adj = {v: set() for v in range(g.vertex_count)}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        alive = set(range(g.vertex_count))
        while True:
            ones = [v for v in alive if len(adj[v]) <= 1]
            if not ones:
                break
            for v in ones:
                for u in adj[v]:
                    adj[u].discard(v)
                adj[v].clear()
                alive.discard(v)
        n = inst.variable_count
        expected = {helpers.role(inst, f"v_{i}") for i in range(1, n + 1)}
        expected |= {helpers.role(inst, f"w_{i}_{s}") for i in range(1, n + 1) for s in (1, 2, 3)}
        expected |= {helpers.role(inst, f"a_{j}") for j in range(1, n + 1)}
        assert alive == expected
        # contracting each degree-2 w vertex leaves variable-clause incidences
        got = set()
        for i in range(1, n + 1):
            for s in (1, 2, 3):
                nbrs = adj[helpers.role(inst, f"w_{i}_{s}")]
                j = inst.formula.slots[i - 1][s - 1]
                assert nbrs == {helpers.role(inst, f"v_{i}"), helpers.role(inst, f"a_{j}")}
                got.add((i, j))
        expected_incidence = {
            (i, j)
            for j, clause in enumerate(unsat4.clauses, 1)
            for i in clause
        }
        assert got == expected_incidence

    def test_role_lines(self):
        _, inst = grid_instance(3, 2)
        lines = list(role_lines(inst))
        assert len(lines) == inst.graph.vertex_count
        assert lines[0].split() == ["0", inst.roles[0]]
        tags = {line.split()[1] for line in lines}
        assert "u_1" in tags and "ap_3" in tags


class TestGadgetTables:
    @given(st.integers(3, 9), st.integers(2, 5), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=60)
    def test_match_the_role_string_derivation(self, n, t, seed):
        formula = helpers.cubic_formula(random.Random(seed), n)
        inst = compile_formula(formula, t)
        ref = helpers.PlainGadget(inst)
        roles = helpers.plain_roles(n, t)
        assert list(inst.roles) == roles
        assert list(role_lines(inst)) == [f"{vid} {role}\n" for vid, role in enumerate(roles)]
        # The tables hold core ids; explicit_ids and the free edge ids carry
        # them over to the explicit graph that the role strings describe.
        ids, free = inst.explicit_ids, inst.graph.free_edge_ids
        for i in range(1, n + 1):
            for name in ("u", "v", "z", "zp", "a", "ap"):
                assert ids[helpers.role(inst, f"{name}_{i}")] == getattr(ref, name)(i), (name, i)
            ascending = [j for j, clause in enumerate(formula.clauses, 1) if i in clause]
            for slot in (1, 2, 3):
                assert ids[helpers.role(inst, f"w_{i}_{slot}")] == ref.w(i, slot)
                assert (inst.formula.slots[i - 1][slot - 1] == ref.slot_clause(i, slot)
                        == ascending[slot - 1])
        assert ref.leaves() == tuple(vid for vid, d in enumerate(inst.graph.degrees) if d == 1)
        assert tuple(ids[x] for x in inst.attachment_vertices) == ref.attachment_vertices()
        assert tuple(ids[x] for x in inst.designated_vertices) == ref.designated_vertices()
        assert tuple(free[eid] for eid in inst.gadget_edge_order) == ref.gadget_edge_order()
        for leaf in ref.leaves():
            ((hub, _),) = inst.graph.incidence[leaf]
            assert inst.roles[leaf] == "leaf_" + inst.roles[hub]

    @pytest.mark.parametrize("n,t", [(3, 2), (4, 3), (6, 5)])
    def test_one_tag_string_per_hub(self, n, t):
        """9n tags for the tagged vertices, and one string shared by all the
        leaves of each of the 7n hubs."""
        inst = compile_formula(helpers.cubic_formula(random.Random(n), n), t)
        assert len({id(role) for role in inst.roles}) == 16 * n

    @pytest.mark.parametrize("n,t", [(3, 2), (4, 3), (6, 5)])
    def test_one_fraction_per_distinct_weight(self, n, t):
        """Seven weights (t - 1, t, 2t, 3t, 4t, 7t, 7t + 1), one object each."""
        weights = compile_formula(helpers.cubic_formula(random.Random(n), n), t).graph.weights
        assert len({id(w) for w in weights}) == len(set(weights)) == 7

    def test_oversized_instance_refused_before_allocating(self, sat3):
        """The core compiles at any t; reading the explicit graph past the
        cap refuses before allocating it."""
        tracemalloc.start()
        try:
            inst = compile_formula(sat3, 5000)
            with pytest.raises(ValueError) as exc:
                inst.graph
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert str(exc.value) == (
            "n = 3, t = 5000 compiles to n(4t^2 + 6t + 12) = 300090036 vertices, "
            "over the cap of 1000000")

    def test_compiling_builds_the_core_once(self, monkeypatch, unsat4):
        """compile_formula and every gadget table build one WeightedGraph,
        the core: the tables come from the pass that laid it out."""
        from corrsubopt import WeightedGraph

        built, init = [], WeightedGraph.__init__
        monkeypatch.setattr(WeightedGraph, "__init__",
                            lambda graph, *args: built.append(args[0]) or init(graph, *args))
        inst = compile_formula(unsat4, 3)
        for name in ("explicit_ids", "gadget_edge_order",
                     "attachment_vertices", "designated_vertices"):
            getattr(inst, name)
        assert built == [36]


def pattern_readings(inst, x):
    """(pattern, W, s, d) per subset of core vertex x's free edges, its
    forced edges and pendants kept: the roles of the free neighbours it
    keeps (``w`` for ``w_1_2``), sorted, then x's scaled weight, kept
    neighbours' scaled weight sum and degree."""
    core = inst.core
    _, weights = core.scaled_weights
    forced, base = core.forced_degrees()[x], core.forced_nbr_sums[x]
    for size in range(len(core.free_incidence[x]) + 1):
        for kept in itertools.combinations(core.free_incidence[x], size):
            others = [u if v == x else v for u, v in (core.edges[eid] for eid in kept)]
            yield (tuple(sorted(inst.tags[y].split("_")[0] for y in others)), weights[x],
                   base + sum(weights[y] for y in others), forced + size)


def passing_patterns(inst, x) -> list[tuple[str, ...]]:
    """The patterns of core vertex x (:func:`pattern_readings`) that keep
    its ND below t^2/9, by the exact int test 9 (W d - s)^2 < (L t d)^2."""
    lt = inst.core.scaled_weights[0] * inst.t
    return sorted(pattern for pattern, w, s, d in pattern_readings(inst, x)
                  if d and 9 * (w * d - s) ** 2 < (lt * d) ** 2)


def _through(values) -> list[Fraction]:
    """The coefficients, in x, of the polynomial of degree at most 2 that
    takes ``values`` at x = 0, 1 and 2 (Newton's forward differences)."""
    f0, f1, f2 = values
    d1, d2 = f1 - f0, Fraction(f2 - 2 * f1 + f0)
    return [Fraction(f0), d1 - d2 / 2, d2 / 2]


def _product(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sum(p, q) -> list:
    return [a + b for a, b in itertools.zip_longest(p, q, fillvalue=0)]


class TestLemmaTables:
    """The construction's key lemma as gadget-local tables: whether a
    designated vertex passes depends only on which of its own free edges a
    mask keeps, and v_i, w_i_l and a_j pass in exactly these patterns, the
    same at every t checked.  So v and w keep a variable's three cross edges
    all or none, and a keeps exactly one per clause.  u_i and z_i constrain
    only below t = 4: their leaves alone give ND = 1, below t^2/9 from
    t = 4 on.  From t = 4 on every table is the one at t = 4."""

    TABLES = {
        "v": [("u", "w", "w", "w"), ("u", "z")],  # z kept and every w dropped, or the reverse
        "w": [(), ("a", "v")],  # both edges or neither
        "a": [("ap", "w")] * 3,  # ap_j and exactly one of the three w's
    }
    TABLES_BY_T = {
        2: {"u": [("v",)], "z": [("v",), ("zp",)]},  # z keeps v or zp, not both
        3: {"u": [("v",)], "z": [("v",), ("v", "zp"), ("zp",)]},  # z keeps v or zp
        4: {"u": [(), ("v",)], "z": [(), ("v",), ("v", "zp"), ("zp",)]},  # no constraint
    }
    FORMULAS = ["sat3", "unsat4", "prism6", "cubic9"]

    @staticmethod
    def formula(name, sat3, unsat4):
        return {"sat3": sat3, "unsat4": unsat4, "prism6": helpers.prism_formula(6),
                "cubic9": helpers.cubic_formula(random.Random(9), 9)}[name]

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("name", FORMULAS)
    def test_passing_patterns(self, name, t, sat3, unsat4):
        formula = self.formula(name, sat3, unsat4)
        inst = compile_formula(formula, t)
        tables = {**self.TABLES, **self.TABLES_BY_T[t]}
        for x in inst.designated_vertices:
            assert passing_patterns(inst, x) == tables[inst.tags[x].split("_")[0]], inst.tags[x]
        # u, v, z and three w per variable, a per clause
        assert len(inst.designated_vertices) == 7 * formula.variable_count

    @pytest.mark.parametrize("name", FORMULAS)
    def test_every_t_from_4_passes_as_t_4(self, name, sat3, unsat4):
        """W, s and d of each (designated role, pattern) are the same for
        every vertex of the role, and polynomials of degree at most 2 in t:
        read at t = 4, 5 and 6, they hold at t = 7.  The pattern passes iff
        P(t) = (L t d)^2 - 9 (W d - s)^2 > 0, and the coefficients of
        P(4 + x) share one sign, with P(4) > 0 when it is positive; so P
        keeps one sign on t >= 4, and the pattern passes at every t >= 4
        iff it does at t = 4."""
        formula = self.formula(name, sat3, unsat4)
        readings = []
        for t in (4, 5, 6, 7):
            inst = compile_formula(formula, t)
            assert inst.core.scaled_weights[0] == 1  # L: the gadget weights are integers
            found = {}
            for x in inst.designated_vertices:
                for pattern, *wsd in pattern_readings(inst, x):
                    key = inst.tags[x].split("_")[0], pattern
                    assert found.setdefault(key, wsd) == wsd, key
            readings.append(found)
        # Patterns count the w's kept: u 2, v 2 * 2 * 4, z 4, w 4 and a 2 * 4.
        assert len(readings[0]) == 34
        for key in readings[0]:
            w, s, d = (_through([r[key][i] for r in readings[:3]]) for i in range(3))
            at_7 = [sum(c * 3 ** k for k, c in enumerate(p)) for p in (w, s, d)]  # x = 3
            assert at_7 == readings[3][key]
            gap = _sum(_product(w, d), [-c for c in s])
            ltd = _product([4, 1], d)  # L t d, t = 4 + x
            p = _sum(_product(ltd, ltd), [-9 * c for c in _product(gap, gap)])
            assert (p[0] > 0 and min(p) >= 0) or max(p) <= 0, key

    @pytest.mark.parametrize("t", [2, 3, 4, 7, 50])
    def test_check_2_closed_forms(self, t, unsat4):
        """Check 2's largest attachment discrepancies are zp_i's
        9t^2/(3t^2 + 1)^2 and ap_j's t^2/(t^2 + 1)^2, each with its free
        edge kept (0 with it dropped).  1/t^2 exceeds them by numerators
        6t^2 + 1 and 2t^2 + 1 over t^2 times their denominators, so both
        lie below 1/t^2 at every t, and check 2 reports zp_1's."""
        inst = compile_formula(unsat4, t)
        scale = inst.core.scaled_weights[0]
        closed = {"zp": Fraction(9 * t * t, (3 * t * t + 1) ** 2),
                  "ap": Fraction(t * t, (t * t + 1) ** 2)}
        for x in inst.attachment_vertices:
            nds = [Fraction((w * d - s) ** 2, (scale * d) ** 2)
                   for _, w, s, d in pattern_readings(inst, x)]
            assert sorted(nds) == [0, closed[inst.tags[x].split("_")[0]]], inst.tags[x]
        bound = Fraction(1, t * t)
        assert bound - closed["zp"] == Fraction(6 * t * t + 1, t * t * (3 * t * t + 1) ** 2)
        assert bound - closed["ap"] == Fraction(2 * t * t + 1, t * t * (t * t + 1) ** 2)
        (record,) = run_checks(unsat4, t, ("2",))
        assert record.status == "pass"
        assert record.quantities == (("max_nd", format_fraction(closed["zp"])),
                                     ("vertex", str(inst.explicit_ids[inst.tags.index("zp_1")])),
                                     ("bound", f"1/{t * t}"))


def _decide_pipeline(graph):
    """decide's optimisation on a compiled graph: the local-search warm
    start, then the exact search from it, or the warm start alone past the
    free-edge cap."""
    warm = solve_local(graph, restarts=2, seed=0)
    if len(graph.free_edge_ids) > DEFAULT_FREE_EDGE_CAP:
        return warm
    return solve_exact(graph, initial_mask=warm.best_mask, order=breadth_first_order(graph))


class TestFoldedCore:
    """The core that compile_formula builds, each hub's leaves folded into a
    pendant, against the explicit graph built from it."""

    @given(st.integers(3, 5), st.sampled_from(("2", "3", "n^2")), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=12)
    def test_matches_the_explicit_graph(self, n, scale, seed):
        t = {"2": 2, "3": 3, "n^2": n * n}[scale]
        formula = helpers.cubic_formula(random.Random(seed), n)
        inst = compile_formula(formula, t)
        core, graph, ids = inst.core, inst.graph, inst.explicit_ids
        assert core.vertex_count == 9 * n
        assert 9 * n + sum(count for _, count, _ in core.pendants) == graph.vertex_count
        assert [ids[c] for c in core.core_vertices] == list(graph.core_vertices)
        assert core.discrepancy_scale == graph.discrepancy_scale
        assert core.leaf_numerator == graph.leaf_numerator
        full_core, full = SubgraphMask.full(core), SubgraphMask.full(graph)
        for hub, x in enumerate(ids):
            assert core.degrees[hub] == graph.degrees[x]
            assert core.forced_nbr_sums[hub] == graph.forced_nbr_sums[x]
            assert (neighbourhood_discrepancy(core, full_core, hub)
                    == neighbourhood_discrepancy(graph, full, x))
        with pytest.raises(ValueError, match="folded leaves"):
            dump_graph(core)
        # The core's edges are the explicit free edges, in the same order.
        free = graph.free_edge_ids
        assert [(ids[u], ids[v]) for u, v in core.edges] == [graph.edges[eid] for eid in free]
        assert [free[eid] for eid in breadth_first_order(core)] == list(breadth_first_order(graph))

        # The explicit graph under the core's C, n.
        graph_n = helpers.with_multiplier(graph, n)
        folded, explicit = _decide_pipeline(core), _decide_pipeline(graph_n)
        for a, b in zip(folded.best_score, explicit.best_score):
            assert repr(a) == repr(b)
        assert folded.nodes_explored == explicit.nodes_explored
        assert folded.optimality == explicit.optimality
        assert folded.best_mask.kept == [explicit.best_mask.kept[eid] for eid in free]
        over_n = lambda mask: SubgraphMask(graph_n, inst.explicit_mask(mask).kept)  # noqa: E731
        assert over_n(folded.best_mask) == explicit.best_mask
        if t == n * n:
            report = decide(formula)
            assert report.core_report == folded
            assert over_n(report.core_report.best_mask) == explicit.best_mask

    def test_decide_builds_no_explicit_graph(self, monkeypatch):
        """At n = 8, t = 64 the explicit graph has 134,240 vertices; decide
        builds and reads only the 72 of the core."""
        from corrsubopt import reduction

        unfolded, unfold = [], reduction._unfold
        monkeypatch.setattr(reduction, "_unfold",
                            lambda inst: unfolded.append(inst) or unfold(inst))
        formula = helpers.cubic_formula(random.Random(8), 8)
        tracemalloc.start()
        try:
            report = decide(formula)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.t == 64 and unfolded == []

    def test_explicit_graph_built_only_to_be_written(self, monkeypatch, tmp_path, sat3, unsat4):
        """hash, == and repr read the four fields, and every check and decide
        read the core; witness builds the explicit graph once, for its mask."""
        from corrsubopt import cli, reduction
        from corrsubopt.verification import run_checks

        written, unfold = [], reduction._unfold
        monkeypatch.setattr(reduction, "_unfold",
                            lambda inst: written.append(inst) or unfold(inst))
        inst, again = compile_formula(sat3, 64), compile_formula(sat3, 64)
        assert hash(inst) == hash(again) and inst == again and repr(inst) == repr(again)
        assert written == []
        for formula in (sat3, unsat4):
            for t in (2, 3):
                records = run_checks(formula, t, lemma_samples=20)
                assert [r.status for r in records if r.status != "pass"] in ([], ["inconclusive"])
        assert written == []
        decide(sat3)
        assert written == []
        path = tmp_path / "sat3.f"
        path.write_text(helpers.SAT3_TEXT)
        assert cli.main(["witness", "-f", str(path), "-t", "2", "-a", "TFF"]) == 0
        assert len(written) == 1


class TestWitness:
    def test_rejects_non_satisfying(self, sat3):
        with pytest.raises(AssignmentError):
            witness_mask(compile_formula(sat3, 2), (True, True, False))

    def test_drops_each_variables_role_edges(self):
        """The paper's rule, stated by role name: a true variable drops
        exactly v z, a false one exactly z zp, v w_l and w_l a_{r_l}.  On
        every satisfying assignment of random cubic formulas with n = 3..9
        (n/3 true variables cover the n clauses, so only n = 3, 6, 9 have
        one; n = 3 is sat3) and of the prisms up to 60 variables, past the
        oracle's cap."""
        rng = random.Random(47)
        formulas = [helpers.cubic_formula(rng, n) for n in (3, 6, 9) for _ in range(8)]
        cases = [(formula, assignment)
                 for formula in formulas for assignment in satisfying_assignments(formula)]
        cases += [(helpers.prism_formula(m), assignment)
                  for m in range(6, 61, 6) for assignment in helpers.prism_assignments(m)]
        assert {formula.variable_count for formula, _ in cases} == {3, 9, *range(6, 61, 6)}
        for formula, assignment in cases:
            inst = compile_formula(formula, 2)
            edge_id = inst.core.edge_id
            mask = witness_mask(inst, assignment)
            assert is_valid(inst.core, mask)
            expected = set()
            for i, (true, clauses) in enumerate(zip(assignment, formula.slots), 1):
                v, z = helpers.role(inst, f"v_{i}"), helpers.role(inst, f"z_{i}")
                if true:
                    expected.add(edge_id(v, z))
                else:
                    expected.add(edge_id(z, helpers.role(inst, f"zp_{i}")))
                    for slot, j in enumerate(clauses, 1):
                        w = helpers.role(inst, f"w_{i}_{slot}")
                        expected |= {edge_id(v, w), edge_id(w, helpers.role(inst, f"a_{j}"))}
            assert {eid for eid, keep in enumerate(mask.kept) if not keep} == expected

    def test_clause_anchor_keeps_exactly_one_cross_edge(self, sat3):
        inst = compile_formula(sat3, 2)
        mask = witness_mask(inst, (False, True, False))
        for j in (1, 2, 3):
            a = helpers.role(inst, f"a_{j}")
            kept_nbrs = [
                other
                for other, eid in inst.core.incidence[a]
                if mask.kept[eid]
            ]
            # ap_j plus the single true variable's w vertex
            assert len(kept_nbrs) == 2

    def test_designated_discrepancies_vanish(self, sat3):
        inst = compile_formula(sat3, 2)
        mask = witness_mask(inst, (False, False, True))
        for vtx in inst.designated_vertices:
            assert neighbourhood_discrepancy(inst.core, mask, vtx) == 0

    def test_pinned_witness_discrepancy_total(self, sat3):
        from corrsubopt.verification import reduction_score

        inst = compile_formula(sat3, 2)
        mask = witness_mask(inst, (True, False, False))
        value = reduction_score(inst, mask)
        assert value.discrepancy_total == Fraction(2676, 65)

    @given(st.integers(3, 6), st.sampled_from((2, 3)), st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_explicit_ids_and_masks_match_the_explicit_graph(self, n, t, seed):
        """Each core vertex's explicit id carries its role, and each witness
        over the core, written over the explicit graph, scores the same bit
        for bit (C = n) with designated discrepancy 0 at the explicit ids."""
        from corrsubopt import reduction, score

        formula = helpers.cubic_formula(random.Random(seed), n)
        inst = compile_formula(formula, t)
        tags = reduction._gadgets(n, t, formula.slots)[3]
        assert tuple(inst.roles[x] for x in inst.explicit_ids) == tags
        for assignment in satisfying_assignments(formula):
            mask = witness_mask(inst, assignment)
            explicit = inst.explicit_mask(mask)
            graph_n = helpers.with_multiplier(inst.graph, n)
            assert (repr(score(graph_n, SubgraphMask(graph_n, explicit.kept)))
                    == repr(score(inst.core, mask)))
            for vtx in inst.designated_vertices:
                x = inst.explicit_ids[vtx]
                assert neighbourhood_discrepancy(inst.graph, explicit, x) == 0


class TestDecide:
    def test_satisfiable_pipeline(self, sat3):
        report = decide(sat3)
        assert report.t == 9
        assert report.threshold == 8.5 * 3 * math.log(3)
        assert report.threshold == pytest.approx(28.0146, abs=1e-3)
        assert report.answer == "YES"
        assert report.solver == "exact"
        assert report.core_report.optimality == "proven"
        assert any("e^47" in note for note in report.notes)
        assert any("17/2" in note for note in report.notes)

    def test_unsatisfiable_pipeline_emits_caveat(self, unsat4):
        report = decide(unsat4)
        assert report.t == 16
        assert report.answer in ("YES", "NO")
        assert any("e^47" in note for note in report.notes)
        assert report.core_report.optimality == "proven"
        assert report.core_report.best_mask.graph.vertex_count == 9 * 4

    def test_every_formula_of_the_exact_branch_is_proven(self):
        # The core has 10n free edges, so decide searches exactly only for
        # n <= 4.  Every clause tuple of 3-subsets that is cubic: sat3's one
        # formula and the 24 clause orders of unsat4's, all proven to one
        # optimum in one node count.
        for n, count, nodes in ((3, 1, 768), (4, 24, 3_138)):
            subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)]
            outcomes = []
            for clauses in itertools.product(subsets, repeat=n):
                try:
                    formula = Formula(n, clauses)
                except FormulaError:
                    continue
                report = decide(formula)
                core = report.core_report
                outcomes.append((report.solver, core.optimality, core.nodes_explored,
                                 repr(core.best_score)))
            assert len(outcomes) == count
            assert len(set(outcomes)) == 1
            assert outcomes[0][:3] == ("exact", "proven", nodes)

    # Exact outputs of the default pipeline.  Any change to the float
    # summation order, the exact totals or the search order shows up here;
    # the ids name the input only, so a node-count edit keeps the test's name.
    @pytest.mark.parametrize(
        "name, value, log_sum, total, nodes, optimality, edges, dropped",
        [
            pytest.param("sat3", "49.81143619018074", "67.91016624345589",
                         Fraction(4170933, 10004), 768, "proven", 1173, (28, 337, 646),
                         id="sat3"),
            pytest.param("unsat4", "75.14012014157962", "104.18493295546489",
                         Fraction(281423232, 197633), 3_138, "proven", 4532,
                         (49, 925, 1801, 2677), id="unsat4"),
        ],
    )
    def test_golden_outputs(self, request, name, value, log_sum, total, nodes,
                            optimality, edges, dropped):
        formula = request.getfixturevalue(name)
        report = decide(formula)
        core = report.core_report
        assert repr(core.best_score.value) == value
        assert repr(core.best_score.log_degree_sum) == log_sum
        assert core.best_score.discrepancy_total == total
        assert core.nodes_explored == nodes
        assert core.optimality == optimality
        assert report.answer == "YES"
        bits = ["1"] * edges
        for eid in dropped:
            bits[eid] = "0"
        explicit = compile_formula(formula, report.t).explicit_mask(report.core_report.best_mask)
        assert explicit.bitstring() == "".join(bits)
