"""Unit tests for coloring heuristics."""

import pytest

from repro.igraph.coloring import (
    dsatur_color,
    first_free_color,
    min_color,
    num_colors,
    simplify_color,
    validate_coloring,
)
from repro.igraph.graph import UndirectedGraph


def clique(n):
    g = UndirectedGraph()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(f"n{i}", f"n{j}")
    return g


def cycle(n):
    g = UndirectedGraph()
    for i in range(n):
        g.add_edge(f"n{i}", f"n{(i + 1) % n}")
    return g


def test_first_free_color():
    assert first_free_color([]) == 0
    assert first_free_color([0, 1, 3]) == 2


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_clique_needs_n_colors(colorer):
    g = clique(5)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 5


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_even_cycle_two_colors(colorer):
    g = cycle(6)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 2


@pytest.mark.parametrize("colorer", [dsatur_color, simplify_color, min_color])
def test_odd_cycle_three_colors(colorer):
    g = cycle(7)
    c = colorer(g)
    validate_coloring(g, c)
    assert num_colors(c) == 3


def test_empty_graph():
    g = UndirectedGraph()
    assert num_colors(min_color(g)) == 0


def test_isolated_nodes_one_color():
    g = UndirectedGraph()
    g.add_node("a")
    g.add_node("b")
    c = min_color(g)
    assert num_colors(c) == 1


def test_validate_detects_conflict():
    g = clique(2)
    with pytest.raises(ValueError):
        validate_coloring(g, {"n0": 0, "n1": 0})


def test_validate_detects_missing_node():
    g = clique(2)
    with pytest.raises(ValueError):
        validate_coloring(g, {"n0": 0})


def test_determinism():
    g = cycle(9)
    assert dsatur_color(g) == dsatur_color(g)
    assert simplify_color(g) == simplify_color(g)
