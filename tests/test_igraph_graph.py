"""Unit tests for the undirected graph type."""

import pytest

from repro.igraph.graph import UndirectedGraph


def g_with(*edges):
    g = UndirectedGraph()
    for a, b in edges:
        g.add_edge(a, b)
    return g


def test_add_edge_symmetry():
    g = g_with(("a", "b"))
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.degree("a") == 1


def test_self_loop_rejected():
    g = UndirectedGraph()
    with pytest.raises(ValueError):
        g.add_edge("a", "a")


def test_nodes_sorted_deterministically():
    g = g_with(("c", "a"), ("b", "a"))
    assert g.nodes() == ["a", "b", "c"]


def test_edges_listed_once():
    g = g_with(("a", "b"), ("b", "c"), ("a", "c"))
    assert g.edges() == [("a", "b"), ("a", "c"), ("b", "c")]
    assert g.n_edges() == 3


def test_remove_node_cleans_neighbors():
    g = g_with(("a", "b"), ("b", "c"))
    g.remove_node("b")
    assert "b" not in g
    assert g.degree("a") == 0 and g.degree("c") == 0


def test_copy_is_independent():
    g = g_with(("a", "b"))
    h = g.copy()
    h.remove_node("a")
    assert g.has_edge("a", "b")
    assert "a" not in h


def test_cached_views_track_mutation():
    g = g_with(("a", "b"))
    assert g.nodes() == ["a", "b"]
    assert g.edges() == [("a", "b")]
    g.add_edge("a", "c")
    assert g.nodes() == ["a", "b", "c"]
    assert g.edges() == [("a", "b"), ("a", "c")]
    g.remove_edge("a", "b")
    assert g.edges() == [("a", "c")]
    g.remove_node("c")
    assert g.nodes() == ["a", "b"]
    assert g.edges() == []


def test_cached_views_survive_noop_mutations():
    g = g_with(("a", "b"))
    nodes_before = g.nodes()
    g.add_node("a")           # already present
    g.remove_node("zzz")      # absent
    g.remove_edge("a", "zzz")  # absent
    assert g.nodes() is nodes_before  # cache not invalidated needlessly


def test_neighbors_sorted_and_fresh():
    g = g_with(("b", "a"), ("b", "c"))
    assert g.neighbors("b") == ["a", "c"]
    g.add_edge("b", "d")
    assert g.neighbors("b") == ["a", "c", "d"]


def test_copy_does_not_share_caches():
    g = g_with(("a", "b"))
    g.nodes()
    h = g.copy()
    h.add_edge("a", "c")
    assert g.nodes() == ["a", "b"]
    assert h.nodes() == ["a", "b", "c"]
