"""End-to-end tests of the command line interface."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mscoupling import metrics
from mscoupling.cli import OUTPUT_NAMES, main, run
from mscoupling.graph import ServiceGraph

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


def run_module(*args):
    """Run ``python -m mscoupling`` in a child process, capturing its output."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "mscoupling", *args], env=env, capture_output=True, timeout=60)


def read_tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestAnalyze:
    def test_default_outputs(self, tmp_path, capsys):
        source = write_descriptor(tmp_path, SINGLE_EDGE_DESCRIPTOR)
        out = tmp_path / "out"
        assert main(["analyze", str(source), "--out", str(out)]) == 0
        produced = {path.name for path in out.iterdir()}
        assert produced == set(CSV_FILES) | {"graph.dot"}
        line = capsys.readouterr().out.strip()
        assert line == "pair: services=2 edges=1 siy=0 sc_max=0.50 sc_avg=0.25"

    def test_pair_metrics_evaluated_once_per_pair(self, tmp_path, monkeypatch, capsys):
        source = write_descriptor(tmp_path, HUB_DESCRIPTOR)
        evaluated = Counter()
        pair_metrics = metrics.pair_metrics

        def counting(graph, s1, s2):
            evaluated[s1, s2] += 1
            return pair_metrics(graph, s1, s2)

        monkeypatch.setattr(metrics, "pair_metrics", counting)
        assert main(["analyze", str(source), "--out", str(tmp_path / "out"), "--emit", "csv,dot,svg"]) == 0
        capsys.readouterr()
        assert len(evaluated) == 8
        assert set(evaluated.values()) == {1}

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
        assert queried == Counter({"api": 1, "auth": 1, "db": 1, "web": 1, "worker": 1})

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

    def test_integer_beyond_digit_limit_exits_1(self, tmp_path, capsys):
        source = tmp_path / "project.json"
        source.write_text('{"name": "big", "services": [{"id": "a", "classes": 1' + "0" * 5000 + "}]}")
        assert main(["analyze", str(source), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON")

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
        ],
        ids=["descriptor", "edges"],
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
        assert capsys.readouterr().err.startswith("error:")

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

    def test_empty_corpus(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        out = tmp_path / "out"
        assert main(["corpus", str(root), "--out", str(out)]) == 0
        assert "0 project(s) analyzed, 0 failed" in capsys.readouterr().out
        assert len((out / "corpus_summary.csv").read_text().splitlines()) == 1

    def test_missing_root_exits_2(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path / "absent")]) == 2
        capsys.readouterr()

    def test_missing_root_argument_exits_1(self, capsys):
        assert main(["corpus"]) == 1
        assert "root" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        root.mkdir()
        assert main(["corpus", str(root), "--jobs", "0"]) == 1
        capsys.readouterr()

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

    def test_python_m_runs_cli(self, tmp_path):
        out = tmp_path / "out"
        completed = run_module("example", "--out", str(out))
        assert completed.returncode == 0, completed.stderr
        assert (out / "graph.dot").is_file()
