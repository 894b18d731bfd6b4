"""End-to-end tests of the command line interface."""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mscoupling import cli, metrics
from mscoupling.cli import CORPUS_ERRORS, CORPUS_FILES, CORPUS_SUMMARY, OUTPUT_NAMES, build_parser, main, run
from mscoupling.graph import ServiceGraph
from mscoupling.report import RenderOptions

SINGLE_EDGE_DESCRIPTOR = {
    "name": "pair",
    "services": [{"id": "A"}, {"id": "B"}],
    "edges": [{"source": "A", "target": "B"}],
}

CSV_FILES = (
    "service_metrics.csv",
    "pair_degree.csv",
    "pair_lwf.csv",
    "pair_gwf.csv",
    "pair_sc.csv",
    "summary.csv",
)


HUB_DESCRIPTOR = {
    "name": "hub",
    "services": [{"id": service} for service in ("api", "auth", "db", "web", "worker")],
    "edges": [
        {"source": "web", "target": "api", "weight": 2},
        {"source": "api", "target": "web"},
        {"source": "api", "target": "db", "weight": 3},
        {"source": "auth", "target": "db"},
        {"source": "worker", "target": "api"},
    ],
}


def write_descriptor(tmp_path, document, filename="project.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def write_corpus_project(root, dir_name, document):
    project_dir = root / dir_name
    project_dir.mkdir(parents=True)
    write_descriptor(project_dir, document)
    return project_dir


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def run_python(*args):
    """Run a Python child process that imports the package from ``src``, capturing its output."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def run_module(*args):
    """Run ``python -m mscoupling`` in a child process, capturing its output."""
    return run_python("-m", "mscoupling", *args)


def read_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _exit_worker(descriptor_path, out_dir, emit, options):
    """A corpus worker that ends its process without returning, as a crashed worker does."""
    os._exit(1)


@pytest.fixture
def pool_runs(monkeypatch):
    """Replace the process pool with an in-process stand-in; returns the ``(max_workers, worker, chunksize)`` of each pool run."""
    runs = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            runs.append((self.max_workers, fn, chunksize))
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return runs


class TestAnalyze:
    def test_default_outputs(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 0
        produced = {path.name for path in out.iterdir()}
        assert produced == set(CSV_FILES) | {"graph.dot"}
        line = capsys.readouterr().out.strip()
        assert line == "pair: services=2 edges=1 siy=0 sc_max=0.50 sc_avg=0.25"

    def test_pair_metrics_evaluated_once_per_class(self, tmp_path, monkeypatch, capsys):
        source = write_descriptor(tmp_path, HUB_DESCRIPTOR)
        evaluated = Counter()
        pair_metrics = metrics.pair_metrics

        def counting(graph, s1, s2):
            pair = pair_metrics(graph, s1, s2)
            evaluated[pair.outdegree, pair.indegree] += 1
            return pair

        monkeypatch.setattr(metrics, "pair_metrics", counting)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out"), "--emit", "csv,dot,svg"]) == 0
        capsys.readouterr()
        # 8 connected pairs fall into 6 (outdegree, indegree) classes: (1, 0) and (0, 1) repeat.
        assert evaluated == Counter({(1, 2): 1, (2, 1): 1, (3, 0): 1, (0, 3): 1, (1, 0): 1, (0, 1): 1})

    def test_node_degree_computed_once_per_service(self, tmp_path, monkeypatch, capsys):
        source = write_descriptor(tmp_path, HUB_DESCRIPTOR)
        queried = Counter()
        node_degree = ServiceGraph.node_degree

        def counting(graph, service):
            queried[service] += 1
            return node_degree(graph, service)

        monkeypatch.setattr(ServiceGraph, "node_degree", counting)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out"), "--emit", "csv,dot,svg"]) == 0
        capsys.readouterr()
        # The constructor computes each degree once; no metric or drawing asks for one again.
        assert queried == Counter()

    def test_emit_selection(self, tmp_path):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out), "--emit", "svg"]) == 0
        assert {path.name for path in out.iterdir()} == {"graph.svg"}

    def test_no_leftover_temp_files(self, tmp_path):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"])
        assert not list(out.glob("*.tmp"))

    def test_failed_rename_leaves_no_temp_files(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        (out / "graph.dot").mkdir(parents=True)
        assert main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(out.glob("*.tmp"))
        assert (out / "graph.dot").is_dir()

    def test_failed_write_renames_nothing(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        (out / "graph.dot.tmp").mkdir(parents=True)
        assert main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [path.name for path in out.iterdir()] == ["graph.dot.tmp"]

    def test_edge_csv_input(self, tmp_path, capsys):
        source = tmp_path / "deps.csv"
        source.write_text("source,target\nweb,db\n")
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("deps: services=2 edges=1")

    def test_compose_input(self, tmp_path):
        source = tmp_path / "docker-compose.yml"
        source.write_text("services:\n  web:\n    depends_on: [db]\n  db: {}\n")
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 0
        assert (out / "service_metrics.csv").exists()

    def test_compose_list_entry_exits_1(self, tmp_path, capsys):
        source = tmp_path / "docker-compose.yml"
        source.write_text("services:\n  web:\n    depends_on: [[db]]\n  db: {}\n")
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'web'" in err
        assert "['db']" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("services: [web]\n", "'services' must be a mapping"),
            ("services:\n  web: [db]\n", "service 'web' entry must be a mapping"),
            ("services:\n  web:\n    depends_on: db\n", "service 'web': depends_on must be a list or mapping"),
            ("services:\n  web:\n    links: db\n", "service 'web': links must be a list"),
        ],
        ids=["services", "entry", "depends-on", "links"],
    )
    def test_compose_shape_errors_exit_1(self, tmp_path, text, message):
        source = tmp_path / "x.yml"
        source.write_text(text)
        completed = run_module("analyze", str(source), "--out", str(tmp_path / "out"))
        assert completed.returncode == 1
        assert completed.stdout == b""
        assert completed.stderr.decode("utf-8") == f"error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["x.yml"]

    def test_compose_alias_entry_keeps_message_short(self, tmp_path, capsys):
        # five levels of nine aliases: one entry expands to 9**5 names if printed
        levels = ["  - &a0 [" + ", ".join(["db"] * 9) + "]"]
        levels += [f"  - &a{i} [" + ", ".join([f"*a{i - 1}"] * 9) + "]" for i in range(1, 5)]
        source = tmp_path / "docker-compose.yml"
        source.write_text(
            "x-anchors:\n" + "\n".join(levels) + "\nservices:\n  web:\n    depends_on: [*a4]\n  db: {}\n"
        )
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert len(capsys.readouterr().err) < 1024

    @pytest.mark.parametrize(
        "source_dir", ["x" * 5000, "a/" * 2500, "gone"], ids=["long-name", "long-path", "missing"]
    )
    def test_missing_source_dir_names_the_service_and_stays_short(self, tmp_path, capsys, source_dir):
        document = {"name": "p", "services": [{"id": "a", "source_dir": source_dir}]}
        out = tmp_path / "out"
        assert main(["analyze", str(write_descriptor(tmp_path, document)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: service 'a': source_dir '")
        assert err.endswith(" is not a directory\n")
        assert len(err) < 200
        assert not out.exists()

    def test_format_override(self, tmp_path):
        source = tmp_path / "edges.txt"
        source.write_text("source,target\nA,B\n")
        command = ["analyze", str(source), "--out", str(tmp_path / "out")]
        assert main(command) == 1
        assert main(command + ["--format", "edges"]) == 0

    def test_edgeless_project_prints_dashes(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, {"name": "quiet", "services": [{"id": "A"}]})
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 0
        assert "siy=0 sc_max=- sc_avg=-" in capsys.readouterr().out

    def test_decimal_places_flag(self, tmp_path):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        main(["analyze", str(source), "--out", str(out), "--decimal-places", "3"])
        assert "0.500" in (out / "pair_sc.csv").read_text()

    def test_malformed_input_exits_1_without_output(self, tmp_path, capsys):
        source = tmp_path / "project.json"
        source.write_text("{broken")
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["source,target,weight\nA,B,1\nB,C,0\n", "source,target\nA,B\nC,C\n"],
        ids=["zero-weight", "self-dependency"],
    )
    def test_bad_edge_record_names_its_line(self, tmp_path, text, capsys):
        source = tmp_path / "deps.csv"
        source.write_text(text)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_bom_edge_csv_analyzes(self, tmp_path, capsys):
        source = tmp_path / "deps.csv"
        source.write_bytes(b"\xef\xbb\xbfsource,target\nweb,db\n")
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("deps: services=2 edges=1")

    @pytest.mark.parametrize(
        "filename, data",
        [("deps.csv", b"source,target\nweb,d\xffb\n"), ("project.json", b"[" * 100000)],
        ids=["non-utf8", "deep-json"],
    )
    def test_undecodable_or_deep_input_exits_1(self, tmp_path, filename, data, capsys):
        source = tmp_path / filename
        source.write_bytes(data)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        ("filename", "data", "flags", "message"),
        [
            ("project.json", b"[" * 100000, [], "input is nested too deeply"),
            ("x.txt", b"source,target\nA,B\n", [], "cannot infer input format from 'x.txt'; pass one explicitly"),
            ("deps.csv", b"\n\n\n", [], "missing header row"),
            ("project.json", json.dumps(SINGLE_EDGE_DESCRIPTOR).encode(), ["--emit", ","], "emit set must not be empty"),
            ("project.json", b'{"name": "void", "services": [], "edges": []}', ["--emit", "svg"],
             "cannot render an empty graph"),
        ],
        ids=["deep-json", "unknown-suffix", "blank-csv", "empty-emit-set", "empty-graph-svg"],
    )
    def test_error_is_one_line_without_output(self, tmp_path, filename, data, flags, message):
        source = tmp_path / filename
        source.write_bytes(data)
        completed = run_module("analyze", str(source), "--out", str(tmp_path / "out"), *flags)
        # The whole of stderr is the one line, so no traceback was printed.
        assert (completed.returncode, completed.stdout, completed.stderr) == (1, b"", f"error: {message}\n".encode())
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_digit_limit_exits_1(self, tmp_path, capsys):
        source = tmp_path / "project.json"
        source.write_text('{"name": "big", "services": [{"id": "a", "classes": 1' + "0" * 5000 + "}]}")
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"name": "x", "services": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "b"}],'
             ' "edges": []}', "edges"),
            ('{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
             ' "edges": [{"source": "a", "target": "b", "weight": 2, "weight": 7}]}', "weight"),
        ],
        ids=["top-level", "in-record"],
    )
    def test_repeated_json_key_exits_1_naming_it(self, tmp_path, text, key, capsys):
        source = tmp_path / "project.json"
        source.write_text(text)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: duplicate key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "filename, text, position",
        [
            (
                "project.json",
                '{"name": "big", "services": [{"id": "A"}, {"id": "B"}],'
                ' "edges": [{"source": "A", "target": "B", "weight": 1' + "0" * 400 + "}]}",
                "edge #0",
            ),
            ("deps.csv", "source,target,weight\nA,B,1" + "0" * 400 + "\n", "line 2"),
            (
                "project.json",
                json.dumps(SINGLE_EDGE_DESCRIPTOR | {"edges": [{"source": "A", "target": "B", "weight": 2**52 + 1}] * 2}),
                "edge #1",
            ),
        ],
        ids=["descriptor", "edges", "merged-sum"],
    )
    def test_weight_beyond_double_precision_exits_1(self, tmp_path, filename, text, position, capsys):
        source = tmp_path / filename
        source.write_text(text)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert position in err and "'A'->'B'" in err and "2**53" in err
        assert "0" * 20 not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "filename, text, position",
        [
            ("deps.csv", "source,target,weight\nA,B," + "1" * 5000 + "\n", "line 2"),
            (
                "project.json",
                '{"name": "big", "services": [{"id": "A"}, {"id": "B"}],'
                ' "edges": [{"source": "A", "target": "B", "weight": -1' + "0" * 400 + "}]}",
                "edge #0",
            ),
            ("deps.csv", "source,target,weight,kind\nA,B,1," + "k" * 20000 + "\n", "line 2"),
            ("deps.csv", "x" * 30000 + "\nA,B\n", "line 1"),
            ("project.json", '{"name": "x", "services": [{"id": "' + "a," * 10000 + '"}]}', "service #0"),
            (
                "project.json",
                '{"name": "x", "services": [{"id": "A"}], "edges": [{"source": "A", "target": "' + "b" * 20000 + '"}]}',
                "edge #0",
            ),
        ],
        ids=["csv-weight-digits", "descriptor-huge-weight", "csv-long-kind", "csv-long-header", "long-bad-id",
             "long-undeclared-id"],
    )
    def test_error_message_bounds_echoed_values(self, tmp_path, filename, text, position, capsys):
        source = tmp_path / filename
        source.write_text(text)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.encode("utf-8")) <= 300
        assert position in err

    def test_unknown_field_warnings_bound_echoed_names(self, tmp_path):
        key = "k" * 20000
        source = write_descriptor(
            tmp_path,
            {
                "name": "x",
                key: 1,
                "services": [{"id": "A", key: 1}, {"id": "B"}],
                "edges": [{"source": "A", "target": "B", key: 1}],
            },
        )
        completed = run_module("analyze", str(source), "--out", str(tmp_path / "out"))
        assert completed.returncode == 0, completed.stderr[:1000]
        assert len(completed.stderr) <= 1000
        warnings = completed.stderr.decode("utf-8").splitlines()
        assert [line.split(":")[0] for line in warnings] == ["descriptor", "service #0", "edge #0"]

    def test_stray_quote_in_large_edge_csv_exits_1(self, tmp_path, capsys):
        source = tmp_path / "deps.csv"
        rows = "".join(f"svc-{i},svc-{i + 1}\n" for i in range(20000))
        source.write_text('source,target\nA,B\n"C,D\n' + rows)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: malformed CSV record")

    @pytest.mark.parametrize(
        "filename, text",
        [
            ("project.json", json.dumps(SINGLE_EDGE_DESCRIPTOR | {"name": "a,b\nc"})),
            ("a,b.csv", "source,target\nA,B\n"),
            ("x,y.yml", "services:\n  web: {}\n"),
        ],
        ids=["descriptor-name", "edges-stem", "compose-stem"],
    )
    def test_project_name_with_separator_exits_1(self, tmp_path, filename, text, capsys):
        source = tmp_path / filename
        source.write_text(text)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "project name" in captured.err
        assert not out.exists()

    def test_summary_csv_reads_back_project_name(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR | {"name": "shop v2.1 (beta)"})
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("shop v2.1 (beta): services=2 ")
        rows = read_rows(out / "summary.csv")
        assert [row["project"] for row in rows] == ["shop v2.1 (beta)"]
        assert rows[0]["sc_max"] == "0.50"

    @pytest.mark.parametrize("escaped_id", ["\\b", "\\ud800"], ids=["control", "surrogate"])
    def test_unprintable_service_id_exits_1(self, tmp_path, escaped_id, capsys):
        source = tmp_path / "project.json"
        source.write_text('{"name": "x", "services": [{"id": "a%s"}]}' % escaped_id)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"]) == 1
        assert "forbidden character" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_removes_outputs_it_did_not_write(self, tmp_path):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"]) == 0
        assert main(["analyze", str(source), "--out", str(out), "--emit", "dot"]) == 0
        assert {path.name for path in out.iterdir()} == {"graph.dot", "notes.txt"}

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err == f"error: no such file: {tmp_path / 'absent.json'}\n"

    @pytest.mark.parametrize("command", ["analyze", "render"])
    @pytest.mark.parametrize("make", [os.mkdir, getattr(os, "mkfifo", None)], ids=["directory", "fifo"])
    def test_input_that_is_not_a_file_exits_2(self, tmp_path, make, command, capsys):
        if make is None:
            pytest.skip("no FIFOs on this platform")
        make(source := tmp_path / "d.json")
        assert main([command, str(source), "--emit", "dot", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: not a file: {source}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--emit", "csv,hologram"],
            ["--emit", " , "],
            ["--hub-fraction", "1.5"],
            ["--decimal-places", "-1"],
            ["--decimal-places", "18"],
        ],
    )
    def test_bad_options_exit_1(self, tmp_path, flags, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")] + flags) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("flags", "reported"),
        [
            (["--emit", "hologram"], "unknown emit target 'hologram'"),
            (["--emit", "hologram", "--hub-fraction", "1.5"], "hub_fraction must be"),
        ],
        ids=["emit", "options-before-emit"],
    )
    def test_bad_options_are_reported_before_input_is_read(self, tmp_path, flags, reported, capsys):
        assert main(["analyze", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")] + flags) == 1
        assert capsys.readouterr().err.startswith(f"error: {reported}")
        assert not (tmp_path / "out").exists()


class TestExample:
    def test_writes_demo_analysis(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["example", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "example: services=5 edges=5 siy=1 sc_max=0.90 sc_avg=0.85"
        table = (out / "service_metrics.csv").read_text()
        assert "A,4,1,5,50,,0.02,4,1,4" in table

    def test_runs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        main(["example", "--out", str(first), "--emit", "csv,dot,svg"])
        main(["example", "--out", str(second), "--emit", "csv,dot,svg"])
        assert read_tree(first) == read_tree(second)


class TestRender:
    def test_emits_drawings_only(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["render", str(source), "--out", str(out), "--emit", "dot,svg"]) == 0
        assert {path.name for path in out.iterdir()} == {"graph.dot", "graph.svg"}
        assert capsys.readouterr().out == ""

    def test_default_emit_keeps_dot_part(self, tmp_path):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["render", str(source), "--out", str(out)]) == 0
        assert {path.name for path in out.iterdir()} == {"graph.dot"}

    def test_csv_only_emit_rejected(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        assert main(["render", str(source), "--out", str(tmp_path / "out"), "--emit", "csv"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["missing.json", "bad.json"])
    def test_emit_set_checked_before_input_is_read(self, tmp_path, source, capsys):
        (tmp_path / "bad.json").write_text("{nope")
        out = tmp_path / "out"
        assert main(["render", str(tmp_path / source), "--out", str(out), "--emit", "csv"]) == 1
        assert capsys.readouterr() == ("", "error: render emits only dot/svg; pass --emit dot,svg\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("filename", "content", "fmt"),
        [
            ("hub.json", json.dumps(HUB_DESCRIPTOR), []),
            ("solo.json", json.dumps({"name": "solo", "services": [{"id": "A"}], "edges": []}), []),
            ("edges.txt", "source,target,weight\nA,B,2\nB,C,1\n", ["--format", "edges"]),
        ],
        ids=["hub-and-mutual-pair", "one-service", "edge-list-txt"],
    )
    def test_draws_what_analyze_draws(self, tmp_path, capsys, filename, content, fmt):
        source = tmp_path / filename
        source.write_text(content, encoding="utf-8")
        drawings = {}
        for command in ("render", "analyze"):
            out = tmp_path / command
            assert main([command, str(source), "--out", str(out), "--emit", "dot,svg", *fmt]) == 0
            if command == "render":
                assert capsys.readouterr().out == ""
            drawings[command] = {name: (out / name).read_bytes() for name in ("graph.dot", "graph.svg")}
        assert drawings["render"] == drawings["analyze"]


class TestCorpus:
    def test_analyzes_every_project(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "alpha", SINGLE_EDGE_DESCRIPTOR | {"name": "alpha"})
        write_corpus_project(
            root,
            "beta",
            {
                "name": "beta",
                "services": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
                "edges": [
                    {"source": "A", "target": "B"},
                    {"source": "B", "target": "C"},
                ],
            },
        )
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("alpha: ")
        assert stdout[1].startswith("beta: ")
        assert stdout[2] == "2 project(s) analyzed, 0 failed"
        summary_lines = (out / "corpus_summary.csv").read_text().splitlines()
        assert len(summary_lines) == 3
        assert summary_lines[1].startswith("alpha,")
        assert summary_lines[2].startswith("beta,")
        assert (out / "alpha" / "service_metrics.csv").exists()
        assert (out / "beta" / "graph.dot").exists()
        assert not (out / "corpus_errors.txt").exists()

    def test_partial_failure_exits_3(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "good", SINGLE_EDGE_DESCRIPTOR | {"name": "good"})
        bad = root / "bad"
        bad.mkdir()
        (bad / "project.json").write_text("{nope")
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        stdout = capsys.readouterr().out
        assert "1 project(s) analyzed, 1 failed" in stdout
        errors = (out / "corpus_errors.txt").read_text()
        assert errors.startswith("bad: ")
        summary_lines = (out / "corpus_summary.csv").read_text().splitlines()
        assert len(summary_lines) == 2

    @pytest.mark.parametrize(
        ("make", "problem"),
        [
            (os.mkdir, "not a file"),
            (getattr(os, "mkfifo", None), "not a file"),
            (functools.partial(os.symlink, "gone"), "no such file"),
        ],
        ids=["directory", "fifo", "dangling-symlink"],
    )
    def test_project_json_that_is_not_a_file_fails_its_project(self, tmp_path, make, problem, capsys):
        if make is None:
            pytest.skip("no FIFOs on this platform")
        root = tmp_path / "corpus"
        write_corpus_project(root, "good", SINGLE_EDGE_DESCRIPTOR | {"name": "good"})
        (root / "bad").mkdir()
        make(descriptor := root / "bad" / "project.json")
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "1 project(s) analyzed, 1 failed"
        assert (out / CORPUS_ERRORS).read_text() == f"bad: {problem}: {descriptor}\n"

    @pytest.mark.parametrize("reserved", CORPUS_FILES)
    def test_project_directory_named_like_a_summary_file_fails_alone(self, tmp_path, capsys, reserved):
        root = tmp_path / "corpus"
        write_corpus_project(root, "ok", SINGLE_EDGE_DESCRIPTOR | {"name": "ok"})
        write_corpus_project(root, reserved, SINGLE_EDGE_DESCRIPTOR | {"name": "clash"})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "1 project(s) analyzed, 1 failed"
        assert [row["project"] for row in read_rows(out / CORPUS_SUMMARY)] == ["ok"]
        assert (out / CORPUS_ERRORS).read_text() == (
            f"{reserved}: project directory name is reserved for the run's own {reserved}\n"
        )

    def test_source_dir_cannot_forge_an_error_line(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "good", SINGLE_EDGE_DESCRIPTOR | {"name": "good"})
        for dir_name, source_dir in (("forged", "gone\nfake-project: injected line"), ("long", "x" * 5000)):
            document = {"name": dir_name, "services": [{"id": "a", "source_dir": source_dir}]}
            write_corpus_project(root, dir_name, document)
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "1 project(s) analyzed, 2 failed"
        errors = (out / CORPUS_ERRORS).read_text().splitlines()
        assert [line.split(":", 1)[0] for line in errors] == ["forged", "long"]
        assert errors[0] == "forged: service 'a': source_dir 'gone\\nfake-project: injected line' is not a directory"
        assert len(errors[1]) < 200

    def test_directory_name_cannot_forge_an_error_line(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        forged = root / "bad\nfake-project: injected"
        forged.mkdir(parents=True)
        (forged / "project.json").write_text("{nope")
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        capsys.readouterr()
        errors = (out / CORPUS_ERRORS).read_text().splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("'bad\\nfake-project: injected': ")

    def test_project_name_with_separator_fails_alone(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "bad", SINGLE_EDGE_DESCRIPTOR | {"name": "a,b\nc"})
        write_corpus_project(root, "good", SINGLE_EDGE_DESCRIPTOR | {"name": "good"})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "1 project(s) analyzed, 1 failed"
        assert [row["project"] for row in read_rows(out / "corpus_summary.csv")] == ["good"]
        assert [row["project"] for row in read_rows(out / "good" / "summary.csv")] == ["good"]
        assert (out / "corpus_errors.txt").read_text().startswith("bad: project name")
        assert not any((out / "bad" / name).exists() for name in OUTPUT_NAMES)

    def test_duplicate_project_names_flagged(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "one", SINGLE_EDGE_DESCRIPTOR | {"name": "same"})
        write_corpus_project(root, "two", SINGLE_EDGE_DESCRIPTOR | {"name": "same"})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        assert "duplicate project name" in (out / "corpus_errors.txt").read_text()
        capsys.readouterr()

    def test_duplicate_project_keeps_no_output(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "one", SINGLE_EDGE_DESCRIPTOR | {"name": "same"})
        write_corpus_project(root, "two", SINGLE_EDGE_DESCRIPTOR | {"name": "same"})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        capsys.readouterr()
        assert (out / "one" / "summary.csv").exists()
        assert not any((out / "two" / name).exists() for name in OUTPUT_NAMES)

    def test_rerun_with_broken_descriptor_keeps_no_output(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        project = write_corpus_project(root, "p", SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        assert (out / "p" / "summary.csv").exists()
        (project / "project.json").write_text("{nope")
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        capsys.readouterr()
        assert not any((out / "p" / name).exists() for name in OUTPUT_NAMES)

    @pytest.mark.parametrize(
        ("add_broken", "block_errors", "fresh_out", "code", "analyzed", "failed"),
        [
            (True, True, False, 2, None, None),
            (False, False, False, 0, ["bad", "good"], None),
            (True, False, True, 3, ["bad", "good"], ["worse"]),
        ],
        ids=["failed-write-leaves-no-pair", "clean-rerun-removes-errors", "failed-project-in-fresh-out"],
    )
    def test_summary_and_errors_are_one_batch(
        self, tmp_path, add_broken, block_errors, fresh_out, code, analyzed, failed, capsys
    ):
        root = tmp_path / "corpus"
        write_corpus_project(root, "good", SINGLE_EDGE_DESCRIPTOR | {"name": "good"})
        bad = write_corpus_project(root, "bad", SINGLE_EDGE_DESCRIPTOR | {"name": "bad"})
        (bad / "project.json").write_text("{nope")
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 3
        write_descriptor(bad, SINGLE_EDGE_DESCRIPTOR | {"name": "bad"})
        if add_broken:
            (root / "worse").mkdir()
            (root / "worse" / "project.json").write_text("{nope")
        if block_errors:
            (out / "corpus_errors.txt.tmp").mkdir()
        if fresh_out:
            out = tmp_path / "fresh"
        assert main(["corpus", str(root), "--out", str(out)]) == code
        capsys.readouterr()
        summary, errors = out / "corpus_summary.csv", out / "corpus_errors.txt"
        assert ([row["project"] for row in read_rows(summary)] if summary.exists() else None) == analyzed
        assert ([line.split(":")[0] for line in errors.read_text().splitlines()] if errors.exists() else None) == failed
        # bad/ failed in the first run; the second run analyzed it, even when its summary pair failed to write
        assert [row["project"] for row in read_rows(out / "bad" / "summary.csv")] == ["bad"]
        assert sorted(path.name for path in out.iterdir() if path.is_dir() and path.suffix != ".tmp") == ["bad", "good"]

    def test_stdout_follows_summary_row_order(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        for name in ("a", "a-b"):
            write_corpus_project(root, name, SINGLE_EDGE_DESCRIPTOR | {"name": name})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        printed = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert printed == [row["project"] for row in read_rows(out / "corpus_summary.csv")] == ["a", "a-b"]

    def test_unremovable_summary_exits_2_before_analyzing(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_corpus_project(root, "p", SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        (out / "corpus_summary.csv").mkdir(parents=True)
        assert main(["corpus", str(root), "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not (out / "p").exists()

    def test_empty_corpus(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        assert "0 project(s) analyzed, 0 failed" in capsys.readouterr().out
        assert len((out / "corpus_summary.csv").read_text().splitlines()) == 1

    def test_missing_root_exits_2(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "corpus_summary.csv").write_text("earlier\n")
        assert main(["corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()
        assert (tmp_path / "out" / "corpus_summary.csv").read_text() == "earlier\n"

    def test_missing_root_argument_exits_1(self, capsys):
        assert main(["corpus"]) == 1
        assert "root" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "corpus_summary.csv").write_text("earlier\n")
        root = tmp_path / "corpus"
        write_corpus_project(root, "p", SINGLE_EDGE_DESCRIPTOR)
        # Checked before the root is read and before the summary pair is removed, whether the root exists or not.
        for corpus_root in (root, tmp_path / "absent"):
            assert main(["corpus", str(corpus_root), "--out", str(out), "--jobs", "0"]) == 1
            assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
            assert (out / "corpus_summary.csv").read_text() == "earlier\n"
            assert not (out / "p").exists()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        for index in range(5):
            write_corpus_project(
                root,
                f"p{index}",
                {
                    "name": f"p{index}",
                    "services": [{"id": "A", "classes": 4 + index}, {"id": "B"}],
                    "edges": [{"source": "A", "target": "B", "weight": 1 + index}],
                },
            )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["corpus", str(root), "--out", str(serial)]) == 0
        serial_stdout = capsys.readouterr().out
        assert main(["corpus", str(root), "--out", str(parallel), "--jobs", "4"]) == 0
        parallel_stdout = capsys.readouterr().out
        assert read_tree(serial) == read_tree(parallel)
        assert serial_stdout == parallel_stdout

    @pytest.mark.parametrize("start_method", [None, "spawn"], ids=["default-start", "spawn"])
    def test_worker_processes_match_in_process_run(self, tmp_path, monkeypatch, start_method, capsys):
        if start_method is not None:
            context = multiprocessing.get_context(start_method)
            pool = functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context)
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        root = tmp_path / "corpus"
        write_corpus_project(root, "a", HUB_DESCRIPTOR)
        write_corpus_project(root, "b", SINGLE_EDGE_DESCRIPTOR | {"name": "hub"})
        write_corpus_project(root, "c", SINGLE_EDGE_DESCRIPTOR | {"name": "extra", "owner": "ops"})
        (root / "d").mkdir()
        (root / "d" / "project.json").write_text("{nope")
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out-{jobs}"
            code = main(["corpus", str(root), "--out", str(out), "--jobs", jobs])
            runs.append((code, capsys.readouterr().out, read_tree(out)))
        assert runs[0] == runs[1]
        assert runs[0][0] == 3
        assert runs[0][1].splitlines()[-1] == "2 project(s) analyzed, 2 failed"

    def test_chunked_workers_match_in_process_run(self, tmp_path, monkeypatch, capsys):
        chunksizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunksizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        root = tmp_path / "corpus"
        # 48 projects on 2 workers go in chunks of 3: the twins land in the first and the last chunk.
        names = ["a-twin", CORPUS_ERRORS, *(f"p{index:02}" for index in range(45)), "z-twin"]
        for index, name in enumerate(names):
            write_corpus_project(root, name, SINGLE_EDGE_DESCRIPTOR | {"name": "twin" if "twin" in name else f"n{index}"})
        (root / "p20" / "project.json").write_text("{nope")
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out-{jobs}"
            code = main(["corpus", str(root), "--out", str(out), "--jobs", jobs])
            runs.append((code, capsys.readouterr().out, read_tree(out)))
        assert chunksizes == [3]
        assert runs[0] == runs[1]
        assert runs[0][0] == 3
        assert runs[0][1].splitlines()[-1] == "45 project(s) analyzed, 3 failed"
        assert [line.split(":")[0] for line in runs[0][2][CORPUS_ERRORS].decode().splitlines()] == [
            CORPUS_ERRORS,
            "p20",
            "z-twin",
        ]

    def test_worker_warnings_reach_stderr(self, tmp_path):
        root = tmp_path / "corpus"
        for name in ("one", "two"):
            write_corpus_project(root, name, SINGLE_EDGE_DESCRIPTOR | {"name": name, "owner": "ops"})
        completed = run_module("corpus", str(root), "--out", str(tmp_path / "out"), "--jobs", "2")
        assert completed.returncode == 0, completed.stderr[:1000]
        assert completed.stderr.decode("utf-8").splitlines() == ["descriptor: ignoring unknown fields 'owner'"] * 2

    @pytest.mark.parametrize(
        ("projects", "jobs", "pools"),
        [(3, "64", [(3, 1)]), (2, "1", []), (1, "2", []), (0, "2", []), (17, "2", [(2, 1)]), (40, "2", [(2, 2)])],
        ids=["more-jobs-than-projects", "one-job", "one-project", "empty-corpus", "paper-corpus", "chunked"],
    )
    def test_pool_size_is_bounded_by_projects(self, tmp_path, pool_runs, projects, jobs, pools, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        for index in range(projects):
            write_corpus_project(root, f"p{index}", SINGLE_EDGE_DESCRIPTOR | {"name": f"p{index}"})
        assert main(["corpus", str(root), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 0
        assert [(size, chunksize) for size, _, chunksize in pool_runs] == pools
        assert capsys.readouterr().out.splitlines()[-1] == f"{projects} project(s) analyzed, 0 failed"

    def test_dead_worker_exits_2_without_summary(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "corpus"
        for name in ("one", "two"):
            write_corpus_project(root, name, SINGLE_EDGE_DESCRIPTOR | {"name": name})
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        assert (out / "corpus_summary.csv").is_file()
        capsys.readouterr()
        monkeypatch.setattr(cli, "_process_corpus_project", _exit_worker)
        assert main(["corpus", str(root), "--out", str(out), "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: corpus {root}: a worker process died before the run finished\n"
        assert not any((out / name).exists() for name in CORPUS_FILES)

    def test_worker_and_results_survive_pickling(self, tmp_path, pool_runs, capsys):
        root = tmp_path / "corpus"
        good = write_corpus_project(root, "good", HUB_DESCRIPTOR) / "project.json"
        bad = root / "bad" / "project.json"
        bad.parent.mkdir()
        bad.write_text("{nope")
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out), "--jobs", "2", "--emit", "svg,csv"]) == 3
        [(_, worker, _)] = pool_runs
        assert worker.keywords == {"out_dir": out, "emit": ("csv", "svg"), "options": RenderOptions()}
        clone = pickle.loads(pickle.dumps(worker))
        assert clone.func is cli._process_corpus_project
        assert clone.keywords == worker.keywords
        for path in (good, bad):
            result = clone(path)
            assert pickle.loads(pickle.dumps(result)) == result
        capsys.readouterr()


class TestArgumentHandling:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_bad_format_choice_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "x.json"), "--format", "sonar"]) == 1
        capsys.readouterr()

    def test_run_raises_system_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["mscoupling", "example", "--out", str(tmp_path / "out")]
        )
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 0
        capsys.readouterr()

    def test_importing_cli_loads_only_what_every_command_needs(self):
        code = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "import mscoupling.cli\n"
            "deferred = ('yaml', 'csv', 'logging', 'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
            "print(sorted(m for m in set(sys.modules) - bare if m.startswith(deferred)))\n"
        )
        completed = run_python("-c", code)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == b"[]\n"

    # The sha256 of each help screen at 80 columns, the same on Python 3.10 to 3.13.
    HELP_DIGESTS = {
        "": "5db313c1b7c170e49cd6daaf60043d5f86ccdcd251e5b739c2eed92ee6debbe8",
        "analyze": "410e4bb2910e7f578298fc7ac9fa3454800fb167a7a88931aa95806c2f8b62d7",
        "corpus": "4179bdd41ae668011795551c8a42811b4a265e7118553cd8686322cf09cd0332",
        "example": "00c45fd3252af72b11380d21e81801f63b11962f329119e72f21563938738f42",
        "render": "ed09de94b5a054cca967ad612f4cfdbeb86414181976096d5e54baea5968c45a",
    }

    @pytest.mark.parametrize("command", HELP_DIGESTS)
    def test_help_screens_are_unchanged(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == self.HELP_DIGESTS[command], text

    def test_importing_cli_without_site_leaves_out_typing(self):
        # Without `site` nothing but the package can bring `typing` or `__future__` in. The annotations are
        # evaluated as each function is defined, and they name only builtins, `collections.abc` and the package.
        code = "import sys, mscoupling.cli; print('typing' in sys.modules, '__future__' in sys.modules)"
        completed = run_python("-S", "-c", code)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == b"False False\n"

    @pytest.mark.parametrize("name", ["structural_coupling", "pair_matrix", "ServiceId"])
    def test_structural_coupling_is_not_exported(self, name):
        import mscoupling

        assert name not in mscoupling.__all__
        assert not hasattr(mscoupling, name)

    def test_deferred_imports_still_serve_their_inputs(self, tmp_path):
        descriptor = write_descriptor(tmp_path, {**SINGLE_EDGE_DESCRIPTOR, "flavor": 1})
        completed = run_module("analyze", str(descriptor), "--out", str(tmp_path / "out"))
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == b"descriptor: ignoring unknown fields 'flavor'\n"  # the last-resort handler's line
        compose = tmp_path / "docker-compose.yml"
        compose.write_text("services:\n  web:\n    depends_on: [db]\n  db:\n", encoding="utf-8")
        completed = run_module("analyze", str(compose), "--out", str(tmp_path / "compose"))
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith(b"docker-compose: services=2 edges=1 ")
        assert completed.stderr == b""

    def test_compose_without_pyyaml_is_a_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "yaml", None)
        compose = tmp_path / "x.yml"
        compose.write_text("services:\n  web:\n", encoding="utf-8")
        assert main(["analyze", str(compose), "--out", str(tmp_path / "compose")]) == 1
        assert capsys.readouterr().err == "error: reading compose files needs PyYAML\n"
        assert not (tmp_path / "compose").exists()
        # Descriptor and edge-CSV input do not need it.
        edges = tmp_path / "deps.csv"
        edges.write_text("source,target\nA,B\n", encoding="utf-8")
        for source in (write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR), edges):
            assert main(["analyze", str(source), "--out", str(tmp_path / source.stem)]) == 0
        assert capsys.readouterr().err == ""

    def test_python_m_runs_cli(self, tmp_path):
        out = tmp_path / "out"
        completed = run_module("example", "--out", str(out))
        assert completed.returncode == 0, completed.stderr
        assert (out / "graph.dot").is_file()


class TestGarbageCollectorPause:
    @pytest.fixture
    def runs(self, tmp_path, capsys):
        """Each command line, by name, and the exit code it must give."""
        root = tmp_path / "root"
        write_corpus_project(root, "hub", HUB_DESCRIPTOR)
        (root / "hub" / "api-src").mkdir()
        (root / "hub" / "api-src" / "Api.java").write_text("class Api {}\n")
        services = [{"id": "api", "source_dir": "api-src"}] + HUB_DESCRIPTOR["services"][1:]
        edges = HUB_DESCRIPTOR["edges"] + [{"source": "web", "target": "api"}]  # a repeated key, summed
        write_descriptor(root / "hub", {**HUB_DESCRIPTOR, "services": services, "edges": edges})
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        out = str(tmp_path / "out")
        yield {
            "analyze": (["analyze", str(root / "hub" / "project.json"), "--emit", "csv,dot,svg", "--out", out], 0),
            "corpus": (["corpus", str(root), "--jobs", "1", "--out", out], 0),
            "help": (["--help"], 0),
            "bad-input": (["analyze", str(bad), "--out", out], 1),
            "bad-option": (["analyze", str(bad), "--bogus"], 1),
            "missing-file": (["analyze", str(tmp_path / "absent.json"), "--out", out], 2),
        }
        capsys.readouterr()

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_setting(self, request):
        (gc.enable if request.param else gc.disable)()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("name", ["analyze", "corpus", "help", "bad-input", "bad-option", "missing-file"])
    def test_restores_the_callers_setting(self, runs, gc_setting, name, monkeypatch):
        argv, code = runs[name]
        seen, analyze = [], cli._analyze_graph

        def spy(*args):
            seen.append(gc.isenabled())
            return analyze(*args)

        monkeypatch.setattr(cli, "_analyze_graph", spy)
        assert main(argv) == code
        assert gc.isenabled() is gc_setting
        assert seen == ([False] if name in ("analyze", "corpus") else [])  # paused while the project ran

    def test_restores_it_when_an_unexpected_error_escapes(self, runs, gc_setting, monkeypatch):
        monkeypatch.setattr(cli, "load_project", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            main(runs["analyze"][0])
        assert gc.isenabled() is gc_setting

    @pytest.mark.parametrize("name", ["analyze", "corpus"])
    def test_a_successful_run_leaves_no_cycles(self, runs, name):
        assert main(runs[name][0]) == 0  # a warm-up: the first call builds the parser and fills import-time caches
        gc.collect()
        assert main(runs[name][0]) == 0
        assert gc.collect() == 0
        assert build_parser() is build_parser()
        # The one parser keeps no state between calls: help, a bad option, then a good run.
        assert [main(runs[other][0]) for other in ("help", "bad-option", name)] == [0, 1, 0]


class TestReadme:
    def test_library_example_runs(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
        completed = run_python("-c", code)
        assert completed.returncode == 0, completed.stderr
        sc, sc_max, dot = completed.stdout.decode().split("\n", 2)
        assert 0 <= float(sc) <= float(sc_max) < 1
        assert dot.startswith("digraph")
