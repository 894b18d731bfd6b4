"""Tests for pair, service and project level coupling metrics."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from mscoupling.errors import UnconnectedPair, UnknownService
from mscoupling.graph import DependencyEdge, ServiceGraph, ServiceNode
from mscoupling.metrics import (
    analyze,
    pair_matrix,
    pair_metrics,
    project_summary,
    service_table,
    siy,
    structural_coupling,
    summarize,
)
from strategies import service_graphs

APPROX = dict(rel=None, abs=1e-12)


def service_rows(graph):
    return {row.id: row for row in service_table(graph)}


def bidirectional_pair():
    return ServiceGraph.build(
        [ServiceNode("A"), ServiceNode("B")],
        [DependencyEdge("A", "B"), DependencyEdge("B", "A")],
    )


class TestLocalWeightFactor:
    def test_single_edge_directions(self, single_edge):
        assert pair_metrics(single_edge, "A", "B").lwf == pytest.approx(1.0, **APPROX)
        assert pair_metrics(single_edge, "B", "A").lwf == pytest.approx(0.5, **APPROX)

    def test_balanced_pair(self):
        graph = bidirectional_pair()
        assert pair_metrics(graph, "A", "B").lwf == pytest.approx(2 / 3, **APPROX)
        assert pair_metrics(graph, "B", "A").lwf == pytest.approx(2 / 3, **APPROX)

    def test_demo_values(self, demo):
        assert pair_metrics(demo, "A", "B").lwf == pytest.approx(0.5, **APPROX)
        assert pair_metrics(demo, "B", "A").lwf == pytest.approx(1.0, **APPROX)
        assert pair_metrics(demo, "A", "E").lwf == pytest.approx(2 / 3, **APPROX)

    def test_unconnected_pair_rejected(self, demo):
        with pytest.raises(UnconnectedPair):
            pair_metrics(demo, "B", "C").lwf


class TestGlobalWeightFactor:
    def test_only_edge_is_global_maximum(self, single_edge):
        assert pair_metrics(single_edge, "A", "B").gwf == pytest.approx(1.0, **APPROX)

    def test_star_pairs(self, star4):
        for leaf in ("leaf1", "leaf2", "leaf3", "leaf4"):
            assert pair_metrics(star4, leaf, "hub").gwf == pytest.approx(0.25, **APPROX)
            assert pair_metrics(star4, "hub", leaf).gwf == pytest.approx(0.25, **APPROX)

    def test_demo_values(self, demo):
        assert pair_metrics(demo, "A", "B").gwf == pytest.approx(0.2, **APPROX)
        assert pair_metrics(demo, "A", "E").gwf == pytest.approx(0.4, **APPROX)

    def test_unconnected_pair_rejected(self, demo):
        with pytest.raises(UnconnectedPair):
            pair_metrics(demo, "C", "D").gwf


class TestStructuralCoupling:
    def test_single_edge_extremes(self, single_edge):
        assert structural_coupling(single_edge, "A", "B") == 0.0
        assert structural_coupling(single_edge, "B", "A") == pytest.approx(0.5, **APPROX)

    def test_star_values(self, star4):
        for leaf in ("leaf1", "leaf2", "leaf3", "leaf4"):
            assert structural_coupling(star4, leaf, "hub") == pytest.approx(0.75, **APPROX)
            assert structural_coupling(star4, "hub", leaf) == pytest.approx(0.875, **APPROX)

    def test_demo_values(self, demo):
        assert structural_coupling(demo, "A", "B") == pytest.approx(0.9, **APPROX)
        assert structural_coupling(demo, "B", "A") == pytest.approx(0.8, **APPROX)
        assert structural_coupling(demo, "A", "E") == pytest.approx(13 / 15, **APPROX)
        assert structural_coupling(demo, "E", "A") == pytest.approx(13 / 15, **APPROX)

    def test_unconnected_pair_rejected(self, demo):
        with pytest.raises(UnconnectedPair):
            structural_coupling(demo, "B", "D")
        with pytest.raises(UnconnectedPair):
            structural_coupling(demo, "A", "A")

    def test_unknown_service_rejected(self, demo):
        with pytest.raises(UnknownService):
            structural_coupling(demo, "A", "Z")


class TestPairMatrix:
    def test_edgeless_graph_has_no_pairs(self):
        graph = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")])
        assert pair_matrix(graph) == ()

    def test_single_edge_matrix(self, single_edge):
        matrix = pair_matrix(single_edge)
        assert [(m.s1, m.s2) for m in matrix] == [("A", "B"), ("B", "A")]
        assert matrix[0].sc == 0.0
        assert matrix[1].sc == pytest.approx(0.5, **APPROX)

    def test_star_multiset(self, star4):
        values = sorted(m.sc for m in pair_matrix(star4))
        assert values == pytest.approx([0.75] * 4 + [0.875] * 4, **APPROX)

    def test_entries_are_internally_consistent(self, demo):
        for m in pair_matrix(demo):
            assert m.degree == m.outdegree + m.indegree
            assert m.lwf == pytest.approx(pair_metrics(demo, m.s1, m.s2).lwf, **APPROX)
            assert m.gwf == pytest.approx(pair_metrics(demo, m.s1, m.s2).gwf, **APPROX)
            assert m.sc == pytest.approx(structural_coupling(demo, m.s1, m.s2), **APPROX)

    def test_pair_metrics_matches_components(self, demo):
        m = pair_metrics(demo, "A", "E")
        assert (m.degree, m.outdegree, m.indegree) == (2, 1, 1)


class TestServiceLevelMetrics:
    def test_cbm_demo(self, demo):
        rows = service_rows(demo)
        assert rows["A"].cbm == pytest.approx(0.02, **APPROX)
        assert rows["B"].cbm == pytest.approx(0.1, **APPROX)
        assert rows["E"].cbm == pytest.approx(1 / 30, **APPROX)

    def test_cbm_without_class_count(self, star4):
        assert service_rows(star4)["hub"].cbm is None

    def test_cbm_zero_class_count(self):
        graph = ServiceGraph.build(
            [ServiceNode("A", class_count=0), ServiceNode("B", class_count=4)],
            [DependencyEdge("A", "B")],
        )
        assert service_rows(graph)["A"].cbm is None

    def test_cbm_no_outgoing_calls(self):
        graph = ServiceGraph.build(
            [ServiceNode("A", class_count=4), ServiceNode("B", class_count=4)],
            [DependencyEdge("B", "A")],
        )
        assert service_rows(graph)["A"].cbm == 0.0

    def test_cbm_counts_weight_not_edges(self):
        graph = ServiceGraph.build(
            [ServiceNode("A", class_count=10), ServiceNode("B")],
            [DependencyEdge("A", "B", weight=3)],
        )
        assert service_rows(graph)["A"].cbm == pytest.approx(0.3, **APPROX)

    def test_ais_ads_acs_star(self, star4):
        rows = service_rows(star4)
        assert rows["hub"].ais == 4
        assert rows["hub"].ads == 0
        hub = service_table(star4)[0]
        assert (hub.id, hub.acs) == ("hub", 0)
        assert rows["leaf1"].ais == 0
        assert rows["leaf1"].ads == 1

    def test_ais_ignores_weight(self):
        graph = ServiceGraph.build(
            [ServiceNode("A"), ServiceNode("B")],
            [DependencyEdge("B", "A", weight=7)],
        )
        assert service_rows(graph)["A"].ais == 1

    def test_demo_service_row(self, demo):
        row = service_table(demo)[0]
        assert row.id == "A"
        assert (row.indegree, row.outdegree, row.degree) == (4, 1, 5)
        assert row.class_count == 50
        assert row.cbm == pytest.approx(0.02, **APPROX)
        assert (row.ais, row.ads, row.acs) == (4, 1, 4)

    def test_service_table_sorted(self, demo):
        assert [row.id for row in service_table(demo)] == ["A", "B", "C", "D", "E"]

    def test_siy(self, demo, star4, single_edge):
        assert siy(demo) == 1
        assert siy(star4) == 0
        assert siy(single_edge) == 0

    def test_siy_counts_unordered_pairs_once(self):
        graph = ServiceGraph.build(
            [ServiceNode(s) for s in "ABC"],
            [
                DependencyEdge("A", "B"),
                DependencyEdge("B", "A"),
                DependencyEdge("A", "C"),
            ],
        )
        assert siy(graph) == 1


class TestSummaries:
    def test_summarize_star_sc(self, star4):
        summary = summarize(m.sc for m in pair_matrix(star4))
        assert summary.count == 8
        assert summary.max == pytest.approx(0.875, **APPROX)
        assert summary.avg == pytest.approx(0.8125, **APPROX)
        assert summary.median == pytest.approx(0.8125, **APPROX)
        assert summary.stdev == pytest.approx(0.0625, **APPROX)
        assert summary.total == pytest.approx(6.5, **APPROX)

    def test_summarize_single_value(self):
        summary = summarize([0.4])
        assert summary.count == 1
        assert summary.max == summary.avg == summary.median == summary.total == 0.4
        assert summary.stdev == 0.0

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.max is None
        assert summary.avg is None
        assert summary.median is None
        assert summary.stdev is None
        assert summary.total is None

    def test_even_length_median_averages_middle_two(self):
        assert summarize([1, 2, 10, 20]).median == pytest.approx(6.0, **APPROX)

    def test_project_summary_star(self, star4):
        summary = project_summary(analyze(star4), "star")
        assert summary.project_name == "star"
        assert summary.sc.count == 8
        assert summary.gwf.max == pytest.approx(0.25, **APPROX)
        assert summary.gwf.stdev == pytest.approx(0.0, **APPROX)
        assert summary.lwf.max == pytest.approx(1.0, **APPROX)
        assert summary.lwf.stdev == pytest.approx(0.25, **APPROX)
        assert summary.degree.max == 1
        assert summary.cbm.count == 0
        assert summary.siy == 0

    def test_project_summary_demo(self, demo):
        summary = project_summary(analyze(demo), "demo")
        assert summary.sc.count == 8
        assert summary.sc.avg == pytest.approx((3 * 0.9 + 3 * 0.8 + 2 * 13 / 15) / 8, **APPROX)
        assert summary.degree.total == 10
        assert summary.cbm.count == 5
        assert summary.siy == 1

    def test_project_summary_edgeless(self):
        summary = project_summary(analyze(ServiceGraph.build([ServiceNode("A")])), "one")
        assert summary.sc.count == 0
        assert summary.degree.count == 0
        assert summary.siy == 0


class TestMetricProperties:
    @given(service_graphs())
    def test_sc_range(self, graph):
        for s1, s2 in graph.connected_pairs():
            value = structural_coupling(graph, s1, s2)
            assert 0.0 <= value < 1.0

    @given(service_graphs())
    def test_lwf_range_and_mirror_identity(self, graph):
        for s1, s2 in graph.connected_pairs():
            forward = pair_metrics(graph, s1, s2).lwf
            backward = pair_metrics(graph, s2, s1).lwf
            assert 0.0 < forward <= 1.0
            degree = pair_metrics(graph, s1, s2).degree
            assert forward + backward == pytest.approx(
                (degree + 2) / (degree + 1), **APPROX
            )

    @given(service_graphs())
    def test_gwf_range_and_symmetry(self, graph):
        for s1, s2 in graph.connected_pairs():
            value = pair_metrics(graph, s1, s2).gwf
            assert 0.0 < value <= 1.0
            assert value == pytest.approx(pair_metrics(graph, s2, s1).gwf, **APPROX)

    @given(service_graphs())
    def test_sc_orders_by_outdegree(self, graph):
        for s1, s2 in graph.connected_pairs():
            if s2 < s1:
                continue
            forward = structural_coupling(graph, s1, s2)
            backward = structural_coupling(graph, s2, s1)
            out_forward = pair_metrics(graph, s1, s2).outdegree
            out_backward = pair_metrics(graph, s2, s1).outdegree
            if out_forward == out_backward:
                assert forward == pytest.approx(backward, **APPROX)
            elif out_forward > out_backward:
                assert forward < backward
            else:
                assert forward > backward

    @given(service_graphs(min_nodes=2, max_edges=40))
    def test_sc_is_one_minus_lwf_over_max_degree(self, graph):
        # gwf = degree / max degree, so the pair's own degree cancels: SC ranks pairs exactly as LWF does.
        rows = analyze(graph).pairs
        max_degree = graph.max_node_degree()
        for row in rows:
            assert abs(row.sc - (1 - row.lwf / max_degree)) <= 2 * math.ulp(row.sc)
        for p in rows:
            for q in rows:
                if p.lwf < q.lwf:
                    assert p.sc >= q.sc

    @given(service_graphs())
    def test_matches_brute_force(self, graph):
        raw = [(e.source, e.target, e.weight) for e in graph.edges]
        ids = graph.service_ids
        for s1, s2 in graph.connected_pairs():
            assert structural_coupling(graph, s1, s2) == pytest.approx(
                oracles.sc(raw, ids, s1, s2), **APPROX
            )
        rows = service_rows(graph)
        for s in ids:
            assert rows[s].ais == oracles.ais(raw, s)
            assert rows[s].ads == oracles.ads(raw, s)
        for row in service_table(graph):
            assert row.acs == oracles.acs(raw, row.id)
        assert siy(graph) == oracles.siy(raw)

    @given(service_graphs())
    def test_acs_is_product(self, graph):
        for row in service_table(graph):
            assert row.acs == row.ais * row.ads

    @given(service_graphs())
    def test_siy_bounded_by_connected_pairs(self, graph):
        assert 0 <= siy(graph) <= len(graph.connected_pairs()) // 2

    @given(service_graphs())
    def test_adding_unrelated_edge_keeps_lwf(self, graph):
        pairs = graph.connected_pairs()
        assume(pairs)
        grown = ServiceGraph.build(
            graph.nodes + (ServiceNode("zz1"), ServiceNode("zz2")),
            graph.edges + (DependencyEdge("zz1", "zz2"),),
        )
        for s1, s2 in pairs:
            assert pair_metrics(grown, s1, s2).lwf == pytest.approx(pair_metrics(graph, s1, s2).lwf, **APPROX)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_summarize_agrees_with_statistics_module(self, values):
        summary = summarize(values)
        assert summary.count == len(values)
        assert summary.max == max(values)
        assert summary.avg == pytest.approx(statistics.fmean(values), abs=1e-9)
        assert summary.median == pytest.approx(statistics.median(values), abs=1e-9)
        assert summary.stdev == pytest.approx(statistics.pstdev(values), abs=1e-9)
        assert math.isfinite(summary.total)
