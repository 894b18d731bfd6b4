"""Acceptance gate: one test per release criterion.

Each test prints a ``[acceptance] <name>: PASS/FAIL`` line via the
hook in conftest so the gate's verdict is readable from the terminal.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import oracles
from mscoupling.cli import main
from mscoupling.errors import UnconnectedPair
from mscoupling.metrics import (
    analyze,
    pair_matrix,
    pair_metrics,
    project_summary,
    service_table,
    structural_coupling,
)
from mscoupling.report import (
    PAIR_METRICS,
    ColorClass,
    classify,
    emit_dot,
    emit_pair_matrix_csv,
    emit_service_metrics_csv,
    emit_summary_csv,
    emit_svg,
)
from mscoupling.sample import SAMPLE_PROJECT_NAME, sample_graph
from sample_systems import make_chain3, make_hub, make_single_edge, make_star4
from strategies import random_graph

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 20260825
RANDOM_GRAPH_COUNT = 1000
TOLERANCE = 1e-12


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_builtin_example_reproduces_reference_rows(tmp_path, capsys):
    started = time.perf_counter()
    assert main(["example", "--out", str(tmp_path / "out")]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    table = (tmp_path / "out" / "service_metrics.csv").read_text().splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in table[1:]}
    assert rows["A"][1:5] == ["4", "1", "5", "50"]
    assert rows["B"][1:5] == ["0", "1", "1", "10"]
    assert rows["C"][1:5] == ["0", "1", "1", "11"]
    assert rows["D"][1:5] == ["0", "1", "1", "17"]
    # E receives one call and makes one call, so with degree 2 its
    # in-degree must be 1 (degree = in + out); an in-degree of 0 next
    # to degree 2, as sometimes tabulated for this system, cannot hold.
    assert rows["E"][1:5] == ["1", "1", "2", "30"]
    assert elapsed < 1.0


def test_star_anchor_values():
    star = make_star4()
    pairs = [pair for _, _, pair in pair_matrix(star)]
    assert len(pairs) == 8

    sc_values = sorted(pair.sc for pair in pairs)
    assert sc_values[:4] == pytest.approx([0.75] * 4, abs=TOLERANCE)
    assert sc_values[4:] == pytest.approx([0.875] * 4, abs=TOLERANCE)
    assert f"{max(sc_values):.2f}" == "0.88"

    assert [pair.gwf for pair in pairs] == pytest.approx([0.25] * 8, abs=TOLERANCE)
    summary = project_summary(analyze(star), "star")
    assert summary.gwf.stdev == pytest.approx(0.0, abs=TOLERANCE)

    lwf_values = sorted(pair.lwf for pair in pairs)
    assert lwf_values[:4] == pytest.approx([0.5] * 4, abs=TOLERANCE)
    assert lwf_values[4:] == pytest.approx([1.0] * 4, abs=TOLERANCE)
    assert summary.lwf.max == pytest.approx(1.0, abs=TOLERANCE)
    assert summary.lwf.stdev == pytest.approx(0.25, abs=TOLERANCE)


def test_single_edge_coupling_extremes():
    graph = make_single_edge()
    assert structural_coupling(graph, "A", "B") == 0.0
    assert structural_coupling(graph, "B", "A") == 0.5


def test_engine_matches_brute_force_oracle():
    rng = random.Random(SEED)
    started = time.perf_counter()
    checked_pairs = 0
    for _ in range(RANDOM_GRAPH_COUNT):
        graph, names, raw = random_graph(rng)
        for s1, s2 in graph.connected_pairs():
            checked_pairs += 1
            assert pair_metrics(graph, s1, s2).degree == oracles.pair_degree(raw, s1, s2)
            assert abs(pair_metrics(graph, s1, s2).lwf - oracles.lwf(raw, s1, s2)) <= TOLERANCE
            assert (
                abs(structural_coupling(graph, s1, s2) - oracles.sc(raw, names, s1, s2))
                <= TOLERANCE
            )
        rows = {row.id: row for row in service_table(graph)}
        for service in names:
            assert rows[service].ais == oracles.ais(raw, service)
            assert rows[service].ads == oracles.ads(raw, service)
        for row in service_table(graph):
            assert row.acs == oracles.acs(raw, row.id)
        assert project_summary(analyze(graph), "p").siy == oracles.siy(raw)
        assert graph.articulation_services() == frozenset(
            oracles.articulation_points(names, raw)
        )
    elapsed = time.perf_counter() - started
    assert checked_pairs > 1000
    assert elapsed < 30.0


def test_metric_invariants_on_random_graphs():
    rng = random.Random(SEED)
    for _ in range(RANDOM_GRAPH_COUNT):
        graph, _, _ = random_graph(rng)
        for s1, s2 in graph.connected_pairs():
            sc_forward = structural_coupling(graph, s1, s2)
            assert 0.0 <= sc_forward < 1.0

            degree = pair_metrics(graph, s1, s2).degree
            assert degree == pair_metrics(graph, s2, s1).degree
            mirror_sum = pair_metrics(graph, s1, s2).lwf + pair_metrics(graph, s2, s1).lwf
            assert abs(mirror_sum - (degree + 2) / (degree + 1)) <= TOLERANCE

            sc_backward = structural_coupling(graph, s2, s1)
            out_forward = pair_metrics(graph, s1, s2).outdegree
            out_backward = pair_metrics(graph, s2, s1).outdegree
            if out_forward == out_backward:
                assert abs(sc_forward - sc_backward) <= TOLERANCE
            elif out_forward > out_backward:
                assert sc_forward < sc_backward
            else:
                assert sc_forward > sc_backward
        for row in service_table(graph):
            assert row.acs == row.ais * row.ads


def test_cbm_absent_without_class_counts(tmp_path, capsys):
    document = {
        "name": "anon",
        "services": [{"id": "hub"}] + [{"id": f"leaf{i}"} for i in range(1, 5)],
        "edges": [{"source": f"leaf{i}", "target": "hub"} for i in range(1, 5)],
    }
    source = tmp_path / "project.json"
    source.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert main(["analyze", str(source), "--out", str(out)]) == 0
    capsys.readouterr()

    table = (out / "service_metrics.csv").read_text().splitlines()
    cbm_column = table[0].split(",").index("cbm")
    assert all(line.split(",")[cbm_column] == "" for line in table[1:])

    header, row = (out / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert all(cells[f"cbm_{stat}"] == "" for stat in ("max", "avg", "med", "stdev", "tot"))

    sc_rows = (out / "pair_sc.csv").read_text().splitlines()
    leaf1 = sc_rows[2].split(",")
    assert sc_rows[2].startswith("leaf1,")
    assert leaf1[1] == "0.75"

    summary = project_summary(analyze(make_star4()), "star")
    assert summary.cbm.count == 0
    assert summary.sc.count == 8
    with pytest.raises(UnconnectedPair):
        structural_coupling(make_star4(), "leaf1", "leaf2")


def test_repeated_and_parallel_runs_are_byte_identical(tmp_path, capsys):
    source = tmp_path / "project.json"
    source.write_text(
        json.dumps(
            {
                "name": "fixture",
                "services": [
                    {"id": "api", "classes": 14},
                    {"id": "auth", "classes": 6},
                    {"id": "db"},
                ],
                "edges": [
                    {"source": "api", "target": "auth", "weight": 2},
                    {"source": "auth", "target": "api"},
                    {"source": "api", "target": "db", "weight": 3},
                ],
            }
        )
    )
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(
            ["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"]
        ) == 0
    capsys.readouterr()
    assert read_tree(first) == read_tree(second)

    corpus = tmp_path / "corpus"
    for index in range(6):
        project_dir = corpus / f"p{index}"
        project_dir.mkdir(parents=True)
        (project_dir / "project.json").write_text(
            json.dumps(
                {
                    "name": f"p{index}",
                    "services": [{"id": "a", "classes": 2 + index}, {"id": "b"}],
                    "edges": [{"source": "a", "target": "b", "weight": 1 + index % 3}],
                }
            )
        )
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["corpus", str(corpus), "--out", str(serial), "--jobs", "1"]) == 0
    serial_stdout = capsys.readouterr().out
    assert main(["corpus", str(corpus), "--out", str(parallel), "--jobs", "4"]) == 0
    parallel_stdout = capsys.readouterr().out
    assert read_tree(serial) == read_tree(parallel)
    assert serial_stdout == parallel_stdout


def test_tables_match_golden_files():
    fixtures = {"example": (sample_graph(), SAMPLE_PROJECT_NAME), "star4": (make_star4(), "star4")}
    for name, (graph, project) in fixtures.items():
        analysis = analyze(graph)
        assert emit_service_metrics_csv(analysis) == (GOLDEN_DIR / f"{name}.service_metrics.csv").read_text()
        for metric in PAIR_METRICS:
            assert emit_pair_matrix_csv(analysis, metric) == (GOLDEN_DIR / f"{name}.pair_{metric}.csv").read_text()
        summary = project_summary(analysis, project)
        assert emit_summary_csv([summary]) == (GOLDEN_DIR / f"{name}.summary.csv").read_text()


def test_drawings_match_golden_files():
    fixtures = {"example": sample_graph(), "star4": make_star4()}
    for name, graph in fixtures.items():
        assert emit_dot(analyze(graph)) == (GOLDEN_DIR / f"{name}.dot").read_text()
        assert emit_svg(analyze(graph)) == (GOLDEN_DIR / f"{name}.svg").read_text()

    star = analyze(make_star4())
    star_rows = {row.id: row for row in star.services}
    assert "hub" in star.graph.articulation_services()
    assert classify(star, star_rows["hub"]) is ColorClass.HUB
    assert ColorClass.HUB.value == "green"
    chain = analyze(make_chain3())
    assert classify(chain, chain.services[1]) is ColorClass.BRIDGE
    assert chain.services[1].id == "B"
    assert ColorClass.BRIDGE.value == "yellow"
    assert classify(star, star_rows["leaf1"]) is ColorClass.HIGH_OUT
    assert ColorClass.HIGH_OUT.value == "blue"


# The sha256 of each file that `analyze --emit csv,dot,svg` writes for the 600-service hub below.
HUB600_DIGESTS = {
    "graph.dot": "41a10cf68664dfc77ab2b6a4eb282078a29d2da374775b53d22b73327c89788d",
    "graph.svg": "1ff7578075db6e337e9e102a711aa2f7274a40d43c44ab966ec1aab76c39e5b2",
    "pair_degree.csv": "176b86a7c451f658387a52befb073e826ce4d2f6f4fb9f6d7f2f8af9d8da4368",
    "pair_gwf.csv": "fb258139987e11030e9a96068c52cee9a7236da192a476db7015594ccc8eac35",
    "pair_lwf.csv": "826e517c016e7b8b26edafd137dec30ebaa98b00c53588f761a2a0c0b194420b",
    "pair_sc.csv": "11d2f18c392085b2eac76923f8c6e5b4b84289829c6fec7e926dc67bfb4c732b",
    "service_metrics.csv": "efb811c736f19304f834838a7c8522e03de161041375948a5eff4446d9a48eeb",
    "summary.csv": "f0cc8760b13bcd8f38375917cd3c114410ff9b58724c9436c31a21d5f4a4ccdc",
}


def test_large_hub_outputs_match_pinned_digests(tmp_path, capsys):
    graph = make_hub(600, services=600)
    services = [{"id": node.id} | ({"classes": i % 7} if i % 3 else {}) for i, node in enumerate(graph.nodes)]
    edges = [{"source": e.source, "target": e.target, "weight": e.weight, "kind": e.kind.value} for e in graph.edges]
    path = tmp_path / "hub600.json"
    path.write_text(json.dumps({"name": "hub600", "services": services, "edges": edges}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", str(path), "--emit", "csv,dot,svg", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in read_tree(out).items()}
    assert digests == HUB600_DIGESTS
