"""Tests for CSV, DOT and SVG emission."""

from __future__ import annotations

import csv
import io
import math
import time
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mscoupling import report
from mscoupling.errors import EmptyGraph, ValidationError
from mscoupling.graph import DependencyEdge, ServiceGraph, ServiceNode
from mscoupling.metrics import Analysis, analyze, project_summary
from mscoupling.report import (
    PAIR_METRICS,
    ColorClass,
    RenderOptions,
    classify,
    emit_dot,
    emit_pair_matrices_csv,
    emit_pair_matrix_csv,
    emit_service_metrics_csv,
    emit_summary_csv,
    emit_svg,
    node_size,
)
from mscoupling.sample import sample_graph
from sample_systems import make_hub, make_star4
from strategies import service_graphs


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def classify_all(graph, options=RenderOptions()):
    """Each service's class, from the analysis and the service's row as the emitters call it."""
    analysis = analyze(graph)
    return {row.id: classify(analysis, row, options) for row in analysis.services}


def node_sizes(graph):
    analysis = analyze(graph)
    return {row.id: node_size(analysis, row) for row in analysis.services}


def rows_by_first_column(text):
    reader = csv.DictReader(io.StringIO(text))
    key = reader.fieldnames[0]
    return {row[key]: row for row in reader}


class TestRenderOptions:
    def test_defaults(self):
        options = RenderOptions()
        assert options.hub_fraction == 0.6
        assert options.hub_min_degree == 3
        assert options.decimal_places == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hub_fraction": 0.0},
            {"hub_fraction": 1.5},
            {"hub_min_degree": -1},
            {"hub_min_degree": 2.5},
            {"decimal_places": -1},
            {"decimal_places": 18},
            # bools and non-numbers, which no range check can catch
            {"decimal_places": True},
            {"decimal_places": 2.0},
            {"decimal_places": "2"},
            {"hub_min_degree": True},
            {"hub_fraction": True},
            {"hub_fraction": "x"},
            {"hub_fraction": None},
            {"hub_fraction": math.nan},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValidationError):
            RenderOptions(**kwargs)

    def test_decimal_places_up_to_double_precision(self):
        assert RenderOptions(decimal_places=17).decimal_places == 17

    def test_integer_hub_fraction_accepted(self):
        assert RenderOptions(hub_fraction=1).hub_fraction == 1


class TestClassification:
    def test_demo_classes(self, demo):
        classes = classify_all(demo)
        assert classes["A"] is ColorClass.HUB
        assert classes["B"] is ColorClass.HIGH_OUT
        assert classes["E"] is ColorClass.REGULAR

    def test_hub_wins_over_bridge(self, star4):
        assert "hub" in star4.articulation_services()
        assert classify_all(star4)["hub"] is ColorClass.HUB

    def test_bridge(self, chain3):
        assert classify_all(chain3)["B"] is ColorClass.BRIDGE

    def test_high_out_leaf(self, star4):
        assert classify_all(star4)["leaf1"] is ColorClass.HIGH_OUT

    def test_edgeless_nodes_are_regular(self):
        graph = ServiceGraph.build([ServiceNode("A")])
        assert classify_all(graph)["A"] is ColorClass.REGULAR

    def test_thresholds_are_tunable(self, single_edge):
        generous = RenderOptions(hub_fraction=1.0, hub_min_degree=0)
        classes = classify_all(single_edge, generous)
        assert classes["A"] is ColorClass.HUB
        assert classes["B"] is ColorClass.HUB

    def test_color_values(self):
        assert ColorClass.HUB.value == "green"
        assert ColorClass.BRIDGE.value == "yellow"
        assert ColorClass.HIGH_OUT.value == "blue"
        assert ColorClass.REGULAR.value == "red"


class TestNodeSize:
    def test_scales_between_1x_and_3x(self, demo):
        sizes = node_sizes(demo)
        assert sizes["A"] == pytest.approx(3.0)
        assert sizes["B"] == pytest.approx(1.4)
        assert sizes["E"] == pytest.approx(1.8)

    def test_edgeless_graph(self):
        graph = ServiceGraph.build([ServiceNode("A")])
        assert node_sizes(graph)["A"] == pytest.approx(1.0)


class TestPairMatrixCsv:
    def test_single_edge_sc_matrix(self, single_edge):
        assert emit_pair_matrix_csv(analyze(single_edge), "sc") == (
            "service,A,B\nA,,0.00\nB,0.50,\n"
        )

    def test_degree_cells_are_integers(self, single_edge):
        assert emit_pair_matrix_csv(analyze(single_edge), "degree") == (
            "service,A,B\nA,,1\nB,1,\n"
        )

    def test_unconnected_cells_empty(self, demo):
        rows = rows_by_first_column(emit_pair_matrix_csv(analyze(demo), "sc"))
        assert rows["B"]["C"] == ""
        assert rows["B"]["A"] == "0.80"
        assert rows["A"]["A"] == ""

    def test_star_lwf_matrix(self, star4):
        rows = rows_by_first_column(emit_pair_matrix_csv(analyze(star4), "lwf"))
        assert rows["leaf1"]["hub"] == "1.00"
        assert rows["hub"]["leaf1"] == "0.50"

    def test_decimal_places(self, single_edge):
        text = emit_pair_matrix_csv(analyze(single_edge), "sc", RenderOptions(decimal_places=3))
        assert "0.500" in text

    def test_edgeless_matrix_all_empty(self):
        graph = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")])
        assert emit_pair_matrix_csv(analyze(graph), "sc") == "service,A,B\nA,,\nB,,\n"

    def test_unknown_metric_rejected(self, demo):
        with pytest.raises(ValueError):
            emit_pair_matrix_csv(analyze(demo), "entropy")

    @given(service_graphs(min_nodes=1, max_nodes=5))
    def test_matrix_shape(self, graph):
        for metric in PAIR_METRICS:
            lines = emit_pair_matrix_csv(analyze(graph), metric).splitlines()
            count = len(graph.service_ids)
            assert len(lines) == count + 1
            assert all(line.count(",") == count for line in lines)

    @given(service_graphs(max_nodes=8), st.booleans())
    def test_matches_dense_oracle(self, graph, isolated_ends):
        if isolated_ends:  # "a" and "z" sort around every "s<i>", so the first and last rows are empty
            nodes = [ServiceNode("a"), *graph.nodes, ServiceNode("z")]
            graph = ServiceGraph(tuple(nodes), graph.edges)
        analysis = analyze(graph)
        for places in (0, 2, 17):
            options = RenderOptions(decimal_places=places)
            for metric in PAIR_METRICS:
                assert emit_pair_matrix_csv(analysis, metric, options) == oracles.pair_matrix_csv(
                    analysis, metric, places
                )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hub_matches_dense_oracle(self, seed):
        analysis = analyze(make_hub(seed, 300))
        for metric in PAIR_METRICS:
            assert emit_pair_matrix_csv(analysis, metric) == oracles.pair_matrix_csv(analysis, metric, 2)

    def test_edgeless_rows_are_id_and_all_commas(self):
        graph = ServiceGraph.build([ServiceNode(f"svc{i:04d}") for i in range(2000)])
        lines = emit_pair_matrix_csv(analyze(graph), "sc").split("\n")
        assert lines[-1] == ""
        assert lines[1:-1] == [f"svc{i:04d}" + "," * 2000 for i in range(2000)]

    def test_sparse_matrices_grow_linearly_in_their_text(self):
        # 2,998 edgeless rows before the one edge: the walk must append them, not recopy them row by row
        services = [ServiceNode(f"svc{i:04d}") for i in range(3000)]
        graph = ServiceGraph.build(services, [DependencyEdge("svc2999", "svc2998", 2)])
        analysis = analyze(graph)
        start = time.perf_counter()
        matrices = emit_pair_matrices_csv(analysis)
        assert time.perf_counter() - start < 2.0
        lines = matrices["degree"].split("\n")
        assert lines[1:2999] == [f"svc{i:04d}" + "," * 3000 for i in range(2998)]
        assert lines[2999:] == ["svc2998" + "," * 3000 + "2", "svc2999" + "," * 2999 + "2,", ""]

    @pytest.mark.parametrize(
        "reorder",
        [
            lambda pairs: pairs[::-1],
            lambda pairs: pairs[1:2] + pairs[:1] + pairs[2:],
            lambda pairs: pairs[:1] + pairs,
            lambda pairs: pairs + pairs[:1],
            lambda pairs: ((pairs[0][0], "zz-foreign", pairs[0][2]),) + pairs,
            lambda pairs: (("0-foreign", *pairs[0][1:]),) + pairs,
            lambda pairs: pairs + (("zz-foreign", *pairs[0][1:]),),
        ],
        ids=["reversed", "row-swapped", "repeat-first", "repeat-last", "foreign-column", "foreign-row-first",
             "foreign-row-last"],
    )
    def test_pairs_out_of_order_rejected(self, star4, reorder):
        analysis = analyze(star4)
        assert analysis.pairs[0][0] == analysis.pairs[1][0] == "hub"
        bad = Analysis(analysis.graph, reorder(analysis.pairs), analysis.services)
        with pytest.raises(ValueError, match=r"not in \(s1, s2\) order"):
            emit_pair_matrix_csv(bad, "sc")
        with pytest.raises(ValueError, match=r"not in \(s1, s2\) order"):
            emit_pair_matrices_csv(bad)


class TestPairMatricesCsv:
    """All four matrices from one walk over the pair rows."""

    @given(service_graphs(max_nodes=8), st.booleans())
    def test_matches_dense_oracle(self, graph, isolated_ends):
        if isolated_ends:
            graph = ServiceGraph((ServiceNode("a"), *graph.nodes, ServiceNode("z")), graph.edges)
        analysis = analyze(graph)
        for places in (0, 2, 17):
            matrices = emit_pair_matrices_csv(analysis, options=RenderOptions(decimal_places=places))
            assert matrices == {metric: oracles.pair_matrix_csv(analysis, metric, places) for metric in PAIR_METRICS}
            assert list(matrices) == list(PAIR_METRICS)

    @pytest.mark.parametrize("name, graph", [("example", sample_graph()), ("star4", make_star4())])
    def test_matches_golden_files_and_oracle(self, name, graph):
        analysis = analyze(graph)
        for metric, text in emit_pair_matrices_csv(analysis).items():
            assert text == (GOLDEN_DIR / f"{name}.pair_{metric}.csv").read_text()
            assert text == oracles.pair_matrix_csv(analysis, metric, 2)

    def test_hub_matches_dense_oracle(self):
        analysis = analyze(make_hub(4, 300))
        for metric, text in emit_pair_matrices_csv(analysis).items():
            assert text == oracles.pair_matrix_csv(analysis, metric, 2)

    def test_metrics_subset_in_the_order_asked(self, demo):
        analysis = analyze(demo)
        matrices = emit_pair_matrices_csv(analysis, ("sc", "degree"))
        assert list(matrices) == ["sc", "degree"]
        assert matrices["degree"] == emit_pair_matrix_csv(analysis, "degree")
        assert emit_pair_matrices_csv(analysis, ()) == {}

    def test_unknown_metric_rejected(self, demo):
        with pytest.raises(ValueError, match="entropy"):
            emit_pair_matrices_csv(analyze(demo), ("sc", "entropy"))


class TestServiceMetricsCsv:
    def test_demo_table(self, demo):
        assert emit_service_metrics_csv(analyze(demo)) == (
            "service,in_degree,out_degree,degree,classes,loc,cbm,ais,ads,acs\n"
            "A,4,1,5,50,,0.02,4,1,4\n"
            "B,0,1,1,10,,0.10,0,1,0\n"
            "C,0,1,1,11,,0.09,0,1,0\n"
            "D,0,1,1,17,,0.06,0,1,0\n"
            "E,1,1,2,30,,0.03,1,1,1\n"
        )

    def test_missing_class_count_leaves_cells_empty(self, star4):
        rows = rows_by_first_column(emit_service_metrics_csv(analyze(star4)))
        assert rows["hub"]["classes"] == ""
        assert rows["hub"]["cbm"] == ""
        assert rows["hub"]["ais"] == "4"

    def test_loc_column(self):
        graph = ServiceGraph.build([ServiceNode("A", loc=120)])
        rows = rows_by_first_column(emit_service_metrics_csv(analyze(graph)))
        assert rows["A"]["loc"] == "120"

    def test_zero_counts_print_zero_not_blank(self):
        graph = ServiceGraph.build([ServiceNode("A", class_count=0, loc=0)])
        rows = rows_by_first_column(emit_service_metrics_csv(analyze(graph)))
        assert (rows["A"]["classes"], rows["A"]["loc"], rows["A"]["cbm"]) == ("0", "0", "")


class TestSummaryCsv:
    def test_star_row(self, star4):
        text = emit_summary_csv([project_summary(analyze(star4), "star")])
        rows = rows_by_first_column(text)
        row = rows["star"]
        assert row["sc_max"] == "0.88"
        assert row["sc_avg"] == "0.81"
        assert row["sc_stdev"] == "0.06"
        assert row["sc_tot"] == "6.50"
        assert row["lwf_max"] == "1.00"
        assert row["lwf_stdev"] == "0.25"
        assert row["gwf_max"] == "0.25"
        assert row["gwf_stdev"] == "0.00"
        assert row["degree_max"] == "1.00"
        assert row["siy"] == "0"

    def test_undefined_cbm_group_left_blank(self, star4):
        row = rows_by_first_column(emit_summary_csv([project_summary(analyze(star4), "star")]))["star"]
        assert row["cbm_max"] == ""
        assert row["cbm_tot"] == ""

    def test_demo_row(self, demo):
        row = rows_by_first_column(emit_summary_csv([project_summary(analyze(demo), "demo")]))["demo"]
        assert row["sc_max"] == "0.90"
        assert row["sc_avg"] == "0.85"
        assert row["sc_med"] == "0.87"
        assert row["cbm_max"] == "0.10"
        assert row["siy"] == "1"

    def test_multiple_projects_one_row_each(self, demo, star4):
        text = emit_summary_csv(
            [project_summary(analyze(demo), "demo"), project_summary(analyze(star4), "star")]
        )
        assert len(text.splitlines()) == 3

    def test_empty_input_emits_header_only(self):
        text = emit_summary_csv([])
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("project,degree_max,")
        assert lines[0].endswith(",siy")


class TestDot:
    def test_demo_dot(self, demo):
        text = emit_dot(analyze(demo))
        assert text.startswith("digraph coupling {\n")
        assert '"A" [fillcolor=green, width=3.00, height=3.00];' in text
        assert '"B" [fillcolor=blue, width=1.40, height=1.40];' in text
        assert '"B" -> "A" [label="0.80", penwidth=3.40];' in text
        assert '"A" -> "E" [label="0.87", penwidth=3.60];' in text
        assert '"A" -> "B"' not in text

    def test_one_arrow_per_direction(self, single_edge):
        text = emit_dot(analyze(single_edge))
        assert text.count("->") == 1
        assert '"A" -> "B" [label="0.00", penwidth=1.00];' in text

    def test_edgeless_graph_lists_nodes_only(self):
        graph = ServiceGraph.build([ServiceNode("A")])
        text = emit_dot(analyze(graph))
        assert '"A" [fillcolor=red' in text
        assert "->" not in text

    def test_empty_graph(self):
        assert emit_dot(analyze(ServiceGraph.build([]))) == "digraph coupling {\n    node [style=filled];\n}\n"

    def test_backslash_in_id_escaped(self):
        graph = ServiceGraph.build([ServiceNode("x\\"), ServiceNode("y")], [DependencyEdge("x\\", "y")])
        lines = emit_dot(analyze(graph)).splitlines()
        assert lines[2].startswith('    "x\\\\" [fillcolor=')
        assert lines[4].startswith('    "x\\\\" -> "y" [')

    def test_deterministic(self, demo):
        assert emit_dot(analyze(demo)) == emit_dot(analyze(demo))


class TestSvg:
    def test_structure(self, star4):
        text = emit_svg(analyze(star4))
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert '<svg xmlns="http://www.w3.org/2000/svg" width="520" height="520"' in text
        assert text.rstrip().endswith("</svg>")

    def test_star_colors(self, star4):
        text = emit_svg(analyze(star4))
        assert text.count('fill="green"') == 1
        assert text.count('fill="blue"') == 4

    def test_first_service_sits_on_top(self, star4):
        # hub sorts first, so it takes the top position of the circle
        assert '<circle cx="260.0" cy="80.0"' in emit_svg(analyze(star4))

    def test_single_node_centered_without_edges(self):
        graph = ServiceGraph.build([ServiceNode("A")])
        text = emit_svg(analyze(graph))
        assert '<circle cx="260.0" cy="260.0"' in text
        assert "<line" not in text

    def test_one_arrow_per_direction_with_label(self, single_edge):
        text = emit_svg(analyze(single_edge))
        assert text.count("<line") == 1
        assert ">0.00</text>" in text

    def test_bidirectional_pair_draws_two_arrows(self, demo):
        assert emit_svg(analyze(demo)).count("<line") == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            emit_svg(analyze(ServiceGraph.build([])))

    def test_markup_in_id_is_escaped(self):
        graph = ServiceGraph.build([ServiceNode("a&b<c"), ServiceNode("d>")], [DependencyEdge("a&b<c", "d>")])
        document = minidom.parseString(emit_svg(analyze(graph)))
        labels = [text.firstChild.data for text in document.getElementsByTagName("text")]
        assert "a&b<c" in labels and "d>" in labels

    def test_deterministic(self, demo):
        assert emit_svg(analyze(demo)) == emit_svg(analyze(demo))

    def test_self_pair_draws_no_arrow(self, single_edge):
        analysis = analyze(single_edge)
        (s1, _, pair), *_ = analysis.pairs
        with_self = Analysis(analysis.graph, ((s1, s1, pair), *analysis.pairs), analysis.services)
        text = emit_svg(with_self)
        assert text == emit_svg(analysis)  # the zero-length arrow is skipped, not drawn nor divided by
        assert minidom.parseString(text).getElementsByTagName("line").length == 1

    @given(service_graphs(min_nodes=1, max_nodes=6))
    def test_every_service_drawn(self, graph):
        text = emit_svg(analyze(graph))
        assert text.count("<circle") == len(graph.service_ids)


class TestPairClassFormatting:
    @pytest.mark.parametrize("graph", [make_star4(), sample_graph(), make_hub(3)], ids=["star4", "demo", "hub"])
    def test_fmt_runs_once_per_class_and_metric(self, graph, monkeypatch):
        analysis = analyze(graph)
        classes = {id(pair): pair for _, _, pair in analysis.pairs}
        arrow_classes = sum(1 for pair in classes.values() if pair.outdegree)
        assert len(classes) < len(analysis.pairs)
        calls = []
        fmt = report._fmt
        monkeypatch.setattr(report, "_fmt", lambda value, places: calls.append(value) or fmt(value, places))

        def formatted(emit, *args):
            calls.clear()
            emit(analysis, *args)
            return len(calls)

        for metric in PAIR_METRICS:
            assert formatted(emit_pair_matrix_csv, metric) == len(classes)
        assert formatted(emit_pair_matrices_csv) == len(PAIR_METRICS) * len(classes)
        # DOT also prints each node's size; each arrow class prints its label and pen width.
        assert formatted(emit_dot) == len(analysis.services) + 2 * arrow_classes
        assert formatted(emit_svg) == arrow_classes
