import pytest

from corrsubopt import load_graph

import helpers


@pytest.fixture
def p3():
    return load_graph(helpers.P3_TEXT)


@pytest.fixture
def star():
    return load_graph(helpers.STAR_TEXT)


@pytest.fixture
def triangle():
    return load_graph(helpers.TRIANGLE_TEXT)


@pytest.fixture
def sat3():
    return helpers.make_formula(helpers.SAT3_TEXT)


@pytest.fixture
def unsat4():
    return helpers.make_formula(helpers.UNSAT4_TEXT)


@pytest.fixture
def unsat6():
    return helpers.make_formula(helpers.UNSAT6_TEXT)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
