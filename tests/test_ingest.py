"""Tests for descriptor, edge CSV and compose ingestion."""

from __future__ import annotations

import glob
import json
import logging
import os
import pathlib
import pickle
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from mscoupling.errors import CouplingError, DuplicateService, ParseError, UnknownService, ValidationError, _shown
from mscoupling.graph import DependencyEdge, EdgeKind, ServiceNode
from mscoupling.ingest import (
    ProjectDescriptor,
    _count_units,
    build_graph,
    load_corpus,
    load_project,
    parse_compose,
    parse_edge_csv,
    parse_project_descriptor,
)
from sample_systems import make_hub
from test_fuzz import _descriptors


def class_counts(graph):
    return {node.id: node.class_count for node in graph.nodes}


MINIMAL_DESCRIPTOR = json.dumps(
    {
        "name": "shop",
        "services": [{"id": "web", "classes": 12}, {"id": "db"}],
        "edges": [{"source": "web", "target": "db", "weight": 2}],
    }
)


class TestDescriptorParsing:
    def test_minimal_descriptor(self):
        descriptor = parse_project_descriptor(MINIMAL_DESCRIPTOR)
        assert descriptor.name == "shop"
        assert descriptor.services == (
            ServiceNode("web", class_count=12),
            ServiceNode("db"),
        )
        assert descriptor.edges == (DependencyEdge("web", "db", 2, EdgeKind.CALL),)

    def test_edge_defaults(self):
        descriptor = parse_project_descriptor(
            '{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
            ' "edges": [{"source": "a", "target": "b"}]}'
        )
        assert descriptor.edges[0].weight == 1
        assert descriptor.edges[0].kind is EdgeKind.CALL

    def test_declared_kind(self):
        descriptor = parse_project_descriptor(
            '{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
            ' "edges": [{"source": "a", "target": "b", "kind": "declared"}]}'
        )
        assert descriptor.edges[0].kind is EdgeKind.DECLARED

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_project_descriptor('{"name": "x",\n  "services": [}]}')
        assert "line 2" in str(excinfo.value)

    def test_non_object_document(self):
        with pytest.raises(ParseError):
            parse_project_descriptor("[1, 2]")

    def test_missing_name(self):
        with pytest.raises(ValidationError):
            parse_project_descriptor('{"services": []}')

    @pytest.mark.parametrize("name", ["a,b\nc", 'say "hi"', "tab\there"])
    def test_name_with_forbidden_character_rejected(self, name):
        with pytest.raises(ValidationError, match="project name"):
            parse_project_descriptor(json.dumps({"name": name}))

    def test_integer_beyond_digit_limit_is_parse_error(self):
        text = '{"name": "x", "services": [{"id": "a", "classes": 1' + "0" * 5000 + "}]}"
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_project_descriptor(text)

    def test_duplicate_service_id(self):
        descriptor = parse_project_descriptor('{"name": "x", "services": [{"id": "a"}, {"id": "a"}]}')
        with pytest.raises(DuplicateService) as excinfo:
            build_graph(descriptor)
        assert "service #1" in str(excinfo.value) and "'a'" in str(excinfo.value)

    def test_edge_to_undeclared_service(self):
        descriptor = parse_project_descriptor(
            '{"name": "x", "services": [{"id": "a"}],'
            ' "edges": [{"source": "a", "target": "ghost"}]}'
        )
        with pytest.raises(UnknownService) as excinfo:
            build_graph(descriptor)
        assert "ghost" in str(excinfo.value)

    @pytest.mark.parametrize("weight", ["0", "-2", "true", '"3"'])
    def test_bad_edge_weight(self, weight):
        with pytest.raises(ValidationError):
            parse_project_descriptor(
                '{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
                f' "edges": [{{"source": "a", "target": "b", "weight": {weight}}}]}}'
            )

    def test_record_errors_name_their_position(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_project_descriptor(
                '{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
                ' "edges": [{"source": "a", "target": "b"}, {"source": "b", "target": "b"}]}'
            )
        assert "edge #1" in str(excinfo.value)

    def test_bad_classes(self):
        with pytest.raises(ValidationError):
            parse_project_descriptor('{"name": "x", "services": [{"id": "a", "classes": -1}]}')

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            parse_project_descriptor(
                '{"name": "x", "services": [{"id": "a"}, {"id": "b"}],'
                ' "edges": [{"source": "a", "target": "b", "kind": "wire"}]}'
            )

    def test_services_must_be_array(self):
        with pytest.raises(ValidationError):
            parse_project_descriptor('{"name": "x", "services": {}}')

    def test_unknown_fields_warn_but_parse(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mscoupling.ingest"):
            descriptor = parse_project_descriptor(
                '{"name": "x", "flavor": "mild", "services": [{"id": "a", "color": "red"}]}'
            )
        assert descriptor.name == "x"
        assert "flavor" in caplog.text
        assert "color" in caplog.text


class TestEdgeCsvParsing:
    def test_minimal(self):
        entries = parse_edge_csv("source,target\nA,B\n").edges
        assert entries == (DependencyEdge("A", "B", 1, EdgeKind.CALL),)

    def test_weight_column(self):
        entries = parse_edge_csv("source,target,weight\nA,B,3\n").edges
        assert entries[0].weight == 3

    def test_kind_column(self):
        entries = parse_edge_csv("source,target,weight,kind\nA,B,2,compose\n").edges
        assert entries[0].kind is EdgeKind.COMPOSE

    def test_empty_optional_cells_use_defaults(self):
        entries = parse_edge_csv("source,target,weight,kind\nA,B,,\n").edges
        assert entries[0].weight == 1
        assert entries[0].kind is EdgeKind.CALL

    def test_header_case_insensitive(self):
        assert parse_edge_csv("Source,Target\nA,B\n").edges == (DependencyEdge("A", "B"),)

    def test_blank_lines_skipped(self):
        entries = parse_edge_csv("source,target\n\nA,B\n\n\nB,C\n").edges
        assert [(e.source, e.target) for e in entries] == [("A", "B"), ("B", "C")]

    def test_header_only(self):
        assert parse_edge_csv("source,target\n").edges == ()

    def test_missing_header(self):
        with pytest.raises(ParseError) as excinfo:
            parse_edge_csv("")
        assert "header" in str(excinfo.value)

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_csv("from,to\nA,B\n")

    def test_non_integer_weight_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_edge_csv("source,target,weight\nA,B,2\nB,C,lots\n")
        assert "line 3" in str(excinfo.value)

    def test_column_count_mismatch(self):
        with pytest.raises(ParseError) as excinfo:
            parse_edge_csv("source,target\nA,B,9\n")
        assert "line 2" in str(excinfo.value)

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_edge_csv("source,target,weight,kind\nA,B,1,magic\n")

    def test_stray_quote_reports_the_line_its_record_starts_on(self):
        rows = "".join(f"svc-{i},svc-{i + 1}\n" for i in range(20000))
        with pytest.raises(ParseError, match="field larger than field limit") as excinfo:
            parse_edge_csv('source,target\nA,B\n"C,D\n' + rows)
        assert excinfo.value.line == 3


class TestComposeParsing:
    def test_depends_on_list(self):
        descriptor = parse_compose(
            "services:\n  web:\n    depends_on: [db]\n  db: {}\n"
        )
        assert {s.id for s in descriptor.services} == {"web", "db"}
        assert descriptor.edges == (DependencyEdge("web", "db", 1, EdgeKind.COMPOSE),)

    def test_depends_on_mapping_form(self):
        descriptor = parse_compose(
            "services:\n"
            "  web:\n"
            "    depends_on:\n"
            "      db:\n"
            "        condition: service_started\n"
            "  db: {}\n"
        )
        assert descriptor.edges == (DependencyEdge("web", "db", 1, EdgeKind.COMPOSE),)

    def test_links_alias_stripped(self):
        descriptor = parse_compose(
            "services:\n  web:\n    links:\n      - db:database\n  db: {}\n"
        )
        assert descriptor.edges == (DependencyEdge("web", "db", 1, EdgeKind.COMPOSE),)

    def test_depends_on_and_links_merge_weight(self):
        descriptor = parse_compose(
            "services:\n"
            "  web:\n"
            "    depends_on: [db]\n"
            "    links: [db]\n"
            "  db: {}\n"
        )
        assert descriptor.edges == (DependencyEdge("web", "db", 1, EdgeKind.COMPOSE),) * 2
        assert build_graph(descriptor).edges == (DependencyEdge("web", "db", 2, EdgeKind.COMPOSE),)

    def test_bare_service_entry(self):
        descriptor = parse_compose("services:\n  web:\n  db:\n")
        assert {s.id for s in descriptor.services} == {"web", "db"}
        assert descriptor.edges == ()

    def test_self_dependency_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="mscoupling.ingest"):
            descriptor = parse_compose("services:\n  web:\n    depends_on: [web]\n")
        assert descriptor.edges == ()
        assert "self-dependency" in caplog.text

    def test_undeclared_dependency_rejected(self):
        descriptor = parse_compose("services:\n  web:\n    depends_on: [ghost]\n")
        with pytest.raises(UnknownService) as excinfo:
            build_graph(descriptor)
        assert "'web'->'ghost'" in str(excinfo.value)

    def test_bad_dependency_names_its_service(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_compose('services:\n  web:\n    depends_on: ["a,b"]\n')
        assert "service #0" in str(excinfo.value) and "forbidden character" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text",
        [
            "services:\n  web:\n    depends_on:\n      -\n  None:\n",
            "services:\n  web:\n    depends_on:\n      -\n  db:\n",
            "services:\n  web:\n    links:\n      -\n  db:\n",
        ],
        ids=["depends_on-with-None-service", "depends_on", "links"],
    )
    def test_empty_entry_rejected(self, text):
        with pytest.raises(ParseError) as excinfo:
            parse_compose(text)
        assert str(excinfo.value) == "service 'web': depends_on and links entries must be service names"

    @pytest.mark.parametrize(
        ("text", "position"),
        [
            ("services:\n  ? \n  : {depends_on: [web]}\n  web:\n", 0),
            ("services:\n  web:\n  !!null '': {}\n", 1),
        ],
        ids=["empty-key", "tagged-null-key"],
    )
    def test_empty_service_name_rejected(self, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_compose(text)
        assert str(excinfo.value) == f"service #{position}: service names must not be empty"

    def test_plain_scalar_names_stay_text(self):
        descriptor = parse_compose(
            "x-common: &common\n"
            "  depends_on: [db]\n"
            "services:\n"
            "  no:\n"
            "    <<: *common\n"
            "  010:\n"
            "    depends_on: [no, 1.10]\n"
            "  1.10:\n"
            "  db:\n"
        )
        assert [node.id for node in descriptor.services] == ["no", "010", "1.10", "db"]
        assert build_graph(descriptor).connected_pairs() == (
            ("010", "1.10"), ("010", "no"), ("1.10", "010"), ("db", "no"), ("no", "010"), ("no", "db"),
        )

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("services:\n  web:\n    depends_on: [db]\n  db:\n  web:\n", "line 5: duplicate key 'web'"),
            (
                "services:\n  web:\n    depends_on: [db]\n    depends_on: [cache]\n  db:\n  cache:\n",
                "line 4: duplicate key 'depends_on'",
            ),
            ("services:\n  web:\n    depends_on: [db]\n  db:\nservices:\n  db:\n", "line 5: duplicate key 'services'"),
            ("services: {web: {}, 'web': {}}\n", "line 1: duplicate key 'web'"),
        ],
        ids=["service", "depends_on", "services", "quoted-in-flow"],
    )
    def test_duplicate_key_rejected(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_compose(text)
        assert str(excinfo.value) == message

    def test_explicit_key_overrides_merged_key(self):
        descriptor = parse_compose(
            "x-base: &b\n"
            "  depends_on: [db]\n"
            "services:\n"
            "  web:\n"
            "    <<: *b\n"
            "    depends_on: [cache]\n"
            "  db:\n"
            "  cache:\n"
        )
        assert descriptor.edges == (DependencyEdge("web", "cache", 1, EdgeKind.COMPOSE),)

    def test_bad_service_id_names_its_position(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_compose('services:\n  web:\n  "a,b":\n')
        assert "service #1" in str(excinfo.value)

    def test_invalid_yaml_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_compose("services:\n  web: [unclosed\n")
        assert "line" in str(excinfo.value)

    def test_non_mapping_document(self):
        with pytest.raises(ParseError):
            parse_compose("- just\n- a\n- list\n")

    def test_empty_document(self):
        descriptor = parse_compose("")
        assert descriptor.services == ()
        assert descriptor.edges == ()

    def test_name_override(self):
        assert parse_compose("services: {}\n", name="stack").name == "stack"


class TestSourceCounting:
    def test_counts_matching_files(self, tmp_path):
        (tmp_path / "A.java").write_text("class A {}")
        (tmp_path / "B.java").write_text("class B {}")
        (tmp_path / "notes.txt").write_text("no")
        assert _count_units(tmp_path) == 2

    def test_counts_recursively(self, tmp_path):
        nested = tmp_path / "src" / "main"
        nested.mkdir(parents=True)
        (nested / "Deep.java").write_text("class Deep {}")
        (tmp_path / "Top.java").write_text("class Top {}")
        assert _count_units(tmp_path) == 2

    def test_empty_directory(self, tmp_path):
        assert _count_units(tmp_path) == 0

    def test_missing_directory(self, tmp_path):
        descriptor = ProjectDescriptor("x", (ServiceNode("web"),), source_dirs={"web": "absent"})
        with pytest.raises(FileNotFoundError) as caught:
            build_graph(descriptor, base_dir=tmp_path)
        assert str(caught.value) == "service 'web': source_dir 'absent' is not a directory"

    def test_name_too_long_to_stat_is_missing_and_echoed_short(self, tmp_path):
        name = "x" * 5000
        descriptor = ProjectDescriptor("x", (ServiceNode("web"),), source_dirs={"web": name})
        with pytest.raises(FileNotFoundError) as caught:
            build_graph(descriptor, base_dir=tmp_path)
        assert str(caught.value) == f"service 'web': source_dir {_shown(name)} is not a directory"

    def test_matches_rglob_on_links_and_odd_names(self, tmp_path):
        tree, outside = tmp_path / "tree", tmp_path / "outside"
        (tree / "src" / "main" / "Dir.java").mkdir(parents=True)
        outside.mkdir()
        for path in (
            tree / "Top.java",
            tree / "src" / "main" / "Deep.java",
            tree / "src" / "a.b.java",
            tree / ".java",
            tree / "..java",
            tree / "Shout.JAVA",
            tree / "notes.txt",
            outside / "Linked.java",
        ):
            path.write_text("class X {}")
        (tree / "linked-file.java").symlink_to(outside / "Linked.java")
        (tree / "linked-dir").symlink_to(outside, target_is_directory=True)
        (tree / "broken.java").symlink_to(tmp_path / "missing.java")
        (tree / "loop.java").symlink_to(tree / "loop.java")
        assert _count_units(tree) == oracles.source_units(tree) == 5

    def test_unreadable_subdirectory_is_skipped_like_rglob(self, tmp_path, monkeypatch):
        (tmp_path / "locked").mkdir()
        (tmp_path / "locked" / "Hidden.java").write_text("class Hidden {}")
        (tmp_path / "Open.java").write_text("class Open {}")
        scandir = os.scandir

        def guarded(path="."):
            if os.fspath(path).endswith("locked"):
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", guarded)
        # Path.rglob lists directories through a name bound to os.scandir at import:
        # pathlib._NormalAccessor.scandir on 3.10, glob._StringGlobber.scandir from 3.13.
        if hasattr(pathlib, "_NormalAccessor"):
            monkeypatch.setattr(pathlib._NormalAccessor, "scandir", staticmethod(guarded))
        if hasattr(glob, "_StringGlobber"):
            monkeypatch.setattr(glob._StringGlobber, "scandir", staticmethod(guarded))
        assert _count_units(tmp_path) == oracles.source_units(tmp_path) == 1


class TestGraphBuilding:
    def test_build_graph_carries_metadata(self):
        descriptor = parse_project_descriptor(MINIMAL_DESCRIPTOR)
        graph = build_graph(descriptor)
        assert class_counts(graph) == {"db": None, "web": 12}
        assert graph.providers("web").get("db", 0) == 2

    def test_build_graph_derives_classes_from_source_dir(self, tmp_path):
        source = tmp_path / "web-src"
        source.mkdir()
        (source / "One.java").write_text("class One {}")
        (source / "Two.java").write_text("class Two {}")
        descriptor = ProjectDescriptor(
            name="x",
            services=(ServiceNode("web"), ServiceNode("db")),
            source_dirs={"web": "web-src"},
        )
        graph = build_graph(descriptor, base_dir=tmp_path)
        assert class_counts(graph) == {"db": None, "web": 2}

    def test_each_counted_source_dir_is_checked_once(self, tmp_path, monkeypatch):
        for name in ("web-src", "api-src"):
            (tmp_path / name / "sub").mkdir(parents=True)
            (tmp_path / name / "sub" / "A.java").write_text("class A {}")
        (tmp_path / "db-src").write_text("not a directory")
        checked = []
        isdir = os.path.isdir
        monkeypatch.setattr(os.path, "isdir", lambda path: checked.append(os.fspath(path)) or isdir(path))
        services = (ServiceNode("api", loc=40), ServiceNode("web"), ServiceNode("db", class_count=3))
        source_dirs = {"api": "api-src", "web": "web-src", "db": "db-src"}
        graph = build_graph(ProjectDescriptor("x", services, source_dirs=source_dirs), base_dir=tmp_path)
        assert graph.nodes == (ServiceNode("api", 1, 40), ServiceNode("db", 3), ServiceNode("web", 1))
        assert checked == [os.path.join(tmp_path, "api-src"), os.path.join(tmp_path, "web-src")]
        services = (ServiceNode("db"),)
        with pytest.raises(FileNotFoundError) as caught:
            build_graph(ProjectDescriptor("x", services, source_dirs=source_dirs), base_dir=tmp_path)
        assert str(caught.value) == "service 'db': source_dir 'db-src' is not a directory"

    def test_explicit_classes_win_over_source_dir(self, tmp_path):
        descriptor = ProjectDescriptor(
            name="x",
            services=(ServiceNode("web", class_count=9),),
            source_dirs={"web": "nowhere"},
        )
        graph = build_graph(descriptor, base_dir=tmp_path)
        assert class_counts(graph) == {"web": 9}

    def test_source_dir_ignored_without_base_dir(self):
        descriptor = ProjectDescriptor(
            name="x", services=(ServiceNode("web"),), source_dirs={"web": "src"}
        )
        assert class_counts(build_graph(descriptor)) == {"web": None}


class TestLoadProject:
    def test_descriptor_auto(self, tmp_path):
        path = tmp_path / "project.json"
        path.write_text(MINIMAL_DESCRIPTOR)
        graph, descriptor = load_project(path)
        assert descriptor.name == "shop"
        assert graph.service_ids == ("db", "web")

    def test_edges_auto_declares_endpoints(self, tmp_path):
        path = tmp_path / "deps.csv"
        path.write_text("source,target\nweb,db\nweb,cache\n")
        graph, descriptor = load_project(path)
        assert descriptor.name == "deps"
        assert graph.service_ids == ("cache", "db", "web")
        assert class_counts(graph) == {"cache": None, "db": None, "web": None}

    def test_compose_auto(self, tmp_path):
        path = tmp_path / "docker-compose.yml"
        path.write_text("services:\n  web:\n    depends_on: [db]\n  db: {}\n")
        graph, descriptor = load_project(path)
        assert descriptor.name == "docker-compose"
        assert graph.providers("web").get("db", 0) == 1

    @pytest.mark.parametrize(
        "filename, text",
        [("a,b.csv", "source,target\nweb,db\n"), ("stack,v2.yml", "services:\n  web: {}\n")],
        ids=["edges", "compose"],
    )
    def test_file_stem_with_comma_rejected_as_project_name(self, tmp_path, filename, text):
        path = tmp_path / filename
        path.write_text(text)
        with pytest.raises(ValidationError, match="project name"):
            load_project(path)

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("source,target\nA,B\n")
        graph, _ = load_project(path, fmt="edges")
        assert graph.service_ids == ("A", "B")

    def test_unknown_extension_in_auto_mode(self, tmp_path):
        path = tmp_path / "deps.toml"
        path.write_text("x = 1\n")
        with pytest.raises(ValidationError):
            load_project(path)

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(ValidationError):
            load_project(tmp_path / "x.json", fmt="telepathy")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_project(tmp_path / "absent.json")

    def test_descriptor_source_dirs_resolve_against_file(self, tmp_path):
        source = tmp_path / "svc"
        source.mkdir()
        (source / "Impl.java").write_text("class Impl {}")
        path = tmp_path / "project.json"
        path.write_text(
            '{"name": "x", "services": [{"id": "svc", "source_dir": "svc"}]}'
        )
        graph, _ = load_project(path)
        assert class_counts(graph) == {"svc": 1}

    def test_row_order_does_not_matter(self, tmp_path):
        forward = tmp_path / "a.csv"
        forward.write_text("source,target\nA,B\nB,C\n")
        backward = tmp_path / "b.csv"
        backward.write_text("source,target\nB,C\nA,B\n")
        assert load_project(forward)[0] == load_project(backward)[0]

    def test_edge_csv_reader_returns_the_loaded_project(self, tmp_path):
        # Blank and whitespace-only rows, padded and empty optional cells, and a repeated record.
        text = "source, Target ,weight,kind\n\nweb , db,,\n  ,  , ,\napi,web, 2 ,\nweb,db,,\n\n"
        path = tmp_path / "deps.csv"
        path.write_text(text)
        graph, descriptor = load_project(path)
        assert parse_edge_csv(text, "deps") == descriptor
        assert build_graph(parse_edge_csv(text, "deps")) == graph
        assert dict(graph.providers("web")) == {"db": 2}


class TestLoadCorpus:
    def test_discovers_sorted_descriptors(self, tmp_path):
        for name in ("beta", "alpha"):
            project = tmp_path / name
            project.mkdir()
            (project / "project.json").write_text('{"name": "%s"}' % name)
        assert [p.parent.name for p in load_corpus(tmp_path)] == ["alpha", "beta"]

    def test_skips_directories_without_descriptor(self, tmp_path, caplog):
        (tmp_path / "good").mkdir()
        (tmp_path / "good" / "project.json").write_text('{"name": "good"}')
        (tmp_path / "junk").mkdir()
        with caplog.at_level(logging.WARNING, logger="mscoupling.ingest"):
            projects = load_corpus(tmp_path)
        assert [p.parent.name for p in projects] == ["good"]
        assert "junk" in caplog.text

    def test_lists_a_project_json_that_is_not_a_file(self, tmp_path, caplog):
        (tmp_path / "a" / "project.json").mkdir(parents=True)
        with caplog.at_level(logging.WARNING, logger="mscoupling.ingest"):
            assert load_corpus(tmp_path) == (tmp_path / "a" / "project.json",)
        assert caplog.messages == []

    def test_ignores_plain_files_in_root(self, tmp_path):
        (tmp_path / "README.md").write_text("hello")
        assert load_corpus(tmp_path) == ()

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent")


# -- the bulk descriptor path --------------------------------------------------

_FIELDS = {"services": {"id", "classes", "loc", "source_dir"}, "edges": {"source", "target", "weight", "kind"}}
# Fields that each make a record invalid, or send it to the per-record path, in its own way.
_NEAR_MISSES = {
    "service": [
        ("id", ["a"]), ("id", None), ("id", ""), ("id", "a,b"), ("id", 'a"b'), ("id", "a\x00b"), ("id", "a\nb"),
        ("classes", True), ("classes", -1), ("classes", 2.0), ("classes", [1]), ("loc", False), ("loc", -5),
        ("loc", 7), ("source_dir", 5), ("source_dir", "src/a"), ("source_dir", None), ("extra", 1),
    ],
    "edge": [
        ("weight", True), ("weight", 1.0), ("weight", 2**53 + 1), ("weight", 2**53), ("weight", 0), ("weight", None),
        ("kind", "rpc"), ("kind", "CALL"), ("kind", None), ("kind", ["call"]), ("kind", "declared"),
        ("kind", "compose"), ("source", ["a"]), ("target", 3), ("source", "a,b"), ("target", "t\x7f"),
        ("extra", "x"), ("self", None),
    ],
}


def _miss(raw: dict, field_name: str, value: object) -> None:
    if field_name == "self":
        raw["target"] = raw["source"]
    else:
        raw[field_name] = value


@st.composite
def _plain_descriptors(draw) -> bytes:
    """Descriptors with plain ids and valid fields, so that most of them parse."""
    ids = draw(st.lists(st.text("ab-1", min_size=1, max_size=3), min_size=1, max_size=6, unique=True))
    services = [{"id": service, "classes": draw(st.none() | st.integers(0, 9))} for service in ids]
    edges = [
        {"source": ids[i], "target": ids[(i + j) % len(ids)], "weight": draw(st.integers(1, 3))}
        for i, j in draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(1, 5)), max_size=8))
        if j % len(ids)
    ]
    return json.dumps({"name": "p", "services": services, "edges": edges}).encode("utf-8")


@st.composite
def _near_miss_documents(draw) -> str:
    """A fuzz-suite or plain descriptor, with some of its records given a near-miss field."""
    document = json.loads(draw(_descriptors() | _plain_descriptors()).decode("utf-8", "surrogatepass"))
    for _ in range(draw(st.integers(0, 3))):
        label = draw(st.sampled_from(sorted(_NEAR_MISSES)))
        records = document["services" if label == "service" else "edges"]
        if not records:
            continue
        _miss(records[draw(st.integers(0, len(records) - 1))], *draw(st.sampled_from(_NEAR_MISSES[label])))
    if draw(st.integers(0, 9)) == 0:
        document[draw(st.sampled_from(["services", "edges"]))].append(draw(st.sampled_from([[], "x", 1, None])))
    return json.dumps(document)


def _oracle_descriptor(text: str, warnings: list | None = None) -> ProjectDescriptor:
    """Every record built through the public constructors, each error and warning worded as the parser words it.

    The warnings go to ``warnings``, in order, when it is given.
    """
    document = json.loads(text)
    warnings = [] if warnings is None else warnings
    if unknown := sorted(set(document) - {"name", "services", "edges"}):
        warnings.append(f"descriptor: ignoring unknown fields {_shown(', '.join(unknown))}")

    def records(key, label, make):
        built = []
        for position, raw in enumerate(document.get(key, [])):
            if not isinstance(raw, dict):
                raise ValidationError(f"{label} #{position} must be an object")
            if unknown := sorted(set(raw) - _FIELDS[key]):
                warnings.append(f"{label} #{position}: ignoring unknown fields {_shown(', '.join(unknown))}")
            try:
                built.append(make(raw))
            except CouplingError as exc:
                raise ValidationError(f"{label} #{position}: {exc}") from None
        return built

    def service(raw):
        node = ServiceNode(raw.get("id"), raw.get("classes"), raw.get("loc"))
        if raw.get("source_dir") is not None and not isinstance(raw["source_dir"], str):
            raise ValidationError("source_dir must be a string")
        return node, raw.get("source_dir")

    def edge(raw):
        return DependencyEdge(raw.get("source"), raw.get("target"), raw.get("weight", 1), raw.get("kind", "call"))

    services = records("services", "service", service)
    edges = records("edges", "edge", edge)
    source_dirs = {node.id: path for node, path in services if path is not None}
    return ProjectDescriptor(document.get("name"), tuple(node for node, _ in services), tuple(edges), source_dirs)


def _outcome(parse, text):
    try:
        return parse(text)
    except CouplingError as exc:
        return type(exc), str(exc)


@pytest.fixture
def checked_inits(monkeypatch):
    """Calls to each record type's checking constructor, which still run."""
    calls = {ServiceNode: 0, DependencyEdge: 0}
    for cls in calls:
        def counted(self, *args, original=cls.__init__, cls=cls, **kwargs):
            calls[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return calls


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestBulkDescriptorPath:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_near_miss_documents())
    # Failing descriptors: a list id next to a source_dir; an invalid record, warned about, before a
    # non-object; an unknown field after the failing record, which the parse never reaches.
    @example(json.dumps({"name": "p", "services": [{"id": ["a"], "source_dir": "src/a"}]}))
    @example(json.dumps({"name": "p", "services": [{"id": "a", "classes": -1, "note": 1}, 5]}))
    @example(json.dumps({"name": "p", "version": 2, "services": [{"id": "a", "loc": -5}, {"id": "b", "x": 1}]}))
    def test_matches_per_record_constructors(self, text):
        handler, logger = _Warnings(), logging.getLogger("mscoupling.ingest")
        logger.addHandler(handler)
        try:
            parsed = _outcome(parse_project_descriptor, text)
        finally:
            logger.removeHandler(handler)
        warnings = []
        assert parsed == _outcome(lambda text: _oracle_descriptor(text, warnings), text)
        assert handler.messages == warnings
        if isinstance(parsed, ProjectDescriptor):
            assert all(type(edge.kind) is EdgeKind for edge in parsed.edges)

    @pytest.mark.parametrize("label, miss", [(label, miss) for label in _NEAR_MISSES for miss in _NEAR_MISSES[label]])
    def test_each_near_miss_matches_per_record_constructors(self, label, miss):
        document = json.loads(MINIMAL_DESCRIPTOR)
        _miss(document["services" if label == "service" else "edges"][-1], *miss)
        text = json.dumps(document)
        assert _outcome(parse_project_descriptor, text) == _outcome(_oracle_descriptor, text)

    def test_plain_descriptor_skips_record_checks(self, tmp_path, checked_inits):
        graph = make_hub(1, 80)
        (tmp_path / "src" / "svc00").mkdir(parents=True)
        (tmp_path / "src" / "svc00" / "A.java").write_text("class A {}\n")
        services = [{"id": node.id, "classes": 3, "loc": 100} for node in graph.nodes]
        services[0] = {"id": "svc00", "source_dir": "src/svc00"}
        edges = [{"source": a.source, "target": a.target, "weight": a.weight, "kind": "call"} for a in graph.edges]
        document = {"name": "hub", "services": services, "edges": edges}
        (tmp_path / "project.json").write_text(json.dumps(document))
        checked = _oracle_descriptor(json.dumps(document))
        checked_inits.update(dict.fromkeys(checked_inits, 0))  # building the fixture graph and the oracle above counted
        descriptor = parse_project_descriptor(json.dumps(document))
        assert checked_inits == {ServiceNode: 0, DependencyEdge: 0}
        assert descriptor == checked
        loaded, _ = load_project(tmp_path / "project.json")
        assert checked_inits == {ServiceNode: 0, DependencyEdge: 0}  # svc00's class count, from its source tree
        assert loaded.edges == graph.edges
        assert loaded.nodes[0] == ServiceNode("svc00", class_count=1)

    def test_bulk_records_behave_like_checked_ones(self):
        descriptor = parse_project_descriptor(MINIMAL_DESCRIPTOR)
        checked = _oracle_descriptor(MINIMAL_DESCRIPTOR)
        assert pickle.loads(pickle.dumps(descriptor)) == descriptor == checked
        assert list(map(hash, descriptor.services + descriptor.edges)) == list(map(hash, checked.services + checked.edges))
        assert repr(descriptor.edges) == repr(checked.edges)
        edge = descriptor.edges[0]
        assert DependencyEdge(edge.source, edge.target, 5, edge.kind) == DependencyEdge("web", "db", 5)
        with pytest.raises(ValidationError):
            DependencyEdge(edge.source, edge.target, 0, edge.kind)
        # A copy with a field replaced, as the graph sums an edge and build_graph counts a service's classes.
        for original, change, checked in [
            (edge, {"weight": 5}, DependencyEdge("web", "db", 5)),
            (descriptor.services[1], {"class_count": 4}, ServiceNode("db", class_count=4)),
        ]:
            before = repr(original)
            copy = original._replace(**change)
            assert copy == checked and hash(copy) == hash(checked) and repr(copy) == repr(checked)
            assert copy is not original and repr(original) == before and original != checked
            with pytest.raises(AttributeError):
                copy.source = "x"
            assert pickle.loads(pickle.dumps(copy)) == checked
            assert sys.getsizeof(vars(copy)) == sys.getsizeof(vars(checked)) == sys.getsizeof(vars(original))

    def test_doubtful_descriptor_warns_without_record_checks(self, checked_inits, caplog):
        text = MINIMAL_DESCRIPTOR.replace('"weight": 2', '"weight": 2, "note": "x"')
        with caplog.at_level(logging.WARNING, logger="mscoupling.ingest"):
            descriptor = parse_project_descriptor(text)
        assert caplog.messages == ["edge #0: ignoring unknown fields 'note'"]
        assert checked_inits == {ServiceNode: 0, DependencyEdge: 0}
        assert descriptor == parse_project_descriptor(MINIMAL_DESCRIPTOR)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ServiceNode(["a"]),
            lambda: ServiceNode("a,b"),
            lambda: ServiceNode("a", class_count=True),
            lambda: ServiceNode("a", loc=-1),
            lambda: DependencyEdge("a", "a"),
            lambda: DependencyEdge("a", "b\x00"),
            lambda: DependencyEdge("a", "b", weight=1.0),
            lambda: DependencyEdge("a", "b", weight=2**53 + 1),
            lambda: DependencyEdge("a", "b", kind="rpc"),
        ],
    )
    def test_records_built_alone_still_check_every_field(self, make):
        with pytest.raises(CouplingError):
            make()


def _either(parse, text):
    """What ``parse(text)`` returns, or the class and text of any exception it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than any recursion limit of the JSON decoder


def _unique(pairs) -> list:
    """An object of ``pairs`` without those whose key an earlier pair holds."""
    seen = set()
    return [(key, value) for key, value in pairs if not (key in seen or seen.add(key))]


# A JSON value as the descriptor text below is drawn: an object is a list of (key, value) pairs in text order,
# so it can hold a key twice, and an array is a tuple.  Keys and strings hold `:`, quotes and braces.
_KEY_TEXT = st.text(alphabet='ab:"\\{}', max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _KEY_TEXT,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.tuples(_KEY_TEXT, inner), max_size=3).map(_unique),
    max_leaves=6,
)
# Known fields of either record, to be read or warned about, and unknown ones with nested values.
_ANY_FIELDS = st.lists(
    st.sampled_from([("classes", 2), ("loc", 9), ("source_dir", "c:/src"), ("weight", 3), ("kind", "call")])
    | st.tuples(_KEY_TEXT, _VALUES),
    max_size=3,
)


def _objects(value) -> list:
    """Every object in ``value``, outermost first."""
    if isinstance(value, list):
        return [value, *(found for _, item in value for found in _objects(item))]
    if isinstance(value, tuple):
        return [found for item in value for found in _objects(item)]
    return []


def _write(value) -> str:
    """``value`` as JSON text, every object's pairs in order, a repeated key included."""
    if isinstance(value, list):
        return "{" + ", ".join(f"{json.dumps(key)}: {_write(item)}" for key, item in value) + "}"
    if isinstance(value, tuple):
        return "[" + ", ".join(map(_write, value)) + "]"
    return json.dumps(value)


@st.composite
def _descriptor_trees(draw) -> list:
    """A descriptor with `:` in ids and paths, unknown and nested fields, and at most one repeated key."""
    ids = draw(st.lists(st.text(alphabet="ab:1", min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=4))
    services = tuple(_unique([("id", service), *draw(_ANY_FIELDS)]) for service in ids)
    edges = tuple(_unique([("source", a), ("target", b), *draw(_ANY_FIELDS)]) for a, b in pairs if a != b)
    top = [("name", draw(st.sampled_from(["shop", "a:b"]))), ("services", services), ("edges", edges)]
    tree = _unique(draw(st.permutations(top + draw(_ANY_FIELDS))))
    if draw(st.booleans()):
        target = draw(st.sampled_from([found for found in _objects(tree) if found]))
        key = draw(st.sampled_from([key for key, _ in target]))
        target.insert(draw(st.integers(0, len(target))), (key, draw(_VALUES)))
    return tree


class TestJsonDecode:
    # Inputs that told a colon-counted plain decode from the hooked one while both existed, with their results then:
    # colons in strings, nested objects, and a repeat before a syntax error or before too deep a nesting.
    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"name": "x", "services": [], "name": "y"}', (ParseError, "duplicate key 'name'")),
            ('{"name": "x", "services": [{"id": "a", "classes": 1, "id": "b"}]}', (ParseError, "duplicate key 'id'")),
            (
                '{"name": "x", "services": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "b",'
                ' "weight": 2, "weight": 7}]}',
                (ParseError, "duplicate key 'weight'"),
            ),
            (
                '{"name": "x", "services": [{"id": "a", "meta": {"owner": "p", "owner": "q"}}]}',
                (ParseError, "duplicate key 'owner'"),
            ),
            (
                '{"name": "x", "services": [{"id": "a:1"}, {"id": "b"}], "edges": [{"source": "a:1", "target": "b"}]}',
                ProjectDescriptor("x", (ServiceNode("a:1"), ServiceNode("b")), (DependencyEdge("a:1", "b"),)),
            ),
            (
                '{"name": "x", "services": [{"id": "a", "source_dir": "c:/src/a"}]}',
                ProjectDescriptor("x", (ServiceNode("a"),), (), {"a": "c:/src/a"}),
            ),
            ('{"name": "x", "services": [{"id": "a", "id": "b"}], "edges": [}', (ParseError, "duplicate key 'id'")),
            (
                '{"name": "x", "services": [{"id": "a", "id": "b"}], "deep": ' + _DEEP + "}",
                (ParseError, "duplicate key 'id'"),
            ),
            (
                '{"name": "x", "services": [{"id": "a", "meta": {}}], "edges": [], "extra": [{}]}',
                ProjectDescriptor("x", (ServiceNode("a"),)),
            ),
            (
                '{"name": "x", "services": [{"id": "a"}], "deep": ' + _DEEP + "}",
                (RecursionError, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
            ),
            ("null", (ParseError, "descriptor must be a JSON object")),
            ("[]", (ParseError, "descriptor must be a JSON object")),
            ('[{"name": "x", "name": "y"}]', (ParseError, "duplicate key 'name'")),
            ("5", (ParseError, "descriptor must be a JSON object")),
        ],
        ids=[
            "repeat-top-level", "repeat-in-service", "repeat-in-edge", "repeat-in-nested-object", "colon-in-id",
            "colon-in-source-dir", "repeat-then-syntax-error", "repeat-then-too-deep", "empty-nested-objects",
            "too-deep", "top-level-null", "top-level-array", "top-level-array-with-repeat", "top-level-number",
        ],
    )
    def test_gives_the_recorded_result(self, text, expected):
        assert _either(parse_project_descriptor, text) == expected

    @settings(max_examples=300, deadline=None)
    @given(_descriptor_trees())
    def test_a_repeated_key_anywhere_is_named(self, tree):
        text = _write(tree)
        result = _either(parse_project_descriptor, text)
        if (key := oracles.first_repeated_key(tree)) is not None:
            assert result == (ParseError, f"duplicate key {key!r}")
        else:
            assert result == _either(parse_project_descriptor, json.dumps(json.loads(text)))

    def test_a_repeated_edge_key_sums_without_record_checks(self, checked_inits):
        document = json.loads(MINIMAL_DESCRIPTOR)
        document["edges"] *= 2
        graph = build_graph(parse_project_descriptor(json.dumps(document)))
        assert checked_inits == {ServiceNode: 0, DependencyEdge: 0}
        assert graph.edges == (DependencyEdge("web", "db", 4),)
        assert type(graph.edges[0].kind) is EdgeKind


# -- the edge CSV rows ---------------------------------------------------------

# Changes that each make one row fail in its own way: (cell index, new cell), a self-dependency, a dropped
# cell, or a blank line before the row.  A cell past the header's width makes the column count wrong.
_CSV_NEAR_MISSES = [
    (0, "a\x7fb"), (1, "t\x7f"), (0, ""), (2, "0"), (2, str(2**53 + 1)), (2, str(2**53)), (2, "x"), (2, ""),
    (3, "rpc"), (3, "CALL"), (3, "compose"), (4, "9"), "self", "drop", "blank",
]


def _csv_miss(row: list[str], miss) -> list[list[str]]:
    """The lines that replace ``row`` once ``miss`` is applied to it."""
    if miss == "blank":
        return [[], row]
    row = list(row)
    if miss == "self":
        row[1] = row[0]
    elif miss == "drop":
        row.pop()
    else:
        index, cell = miss
        row += [""] * (index + 1 - len(row))
        row[index] = cell
    return [row]


@st.composite
def _near_miss_edge_csvs(draw) -> str:
    """An edge CSV of plain ids, with a near miss at some random rows; no cell needs quoting."""
    width = draw(st.integers(2, 4))
    ids = draw(st.lists(st.text("ab-1", min_size=1, max_size=3), min_size=2, max_size=5, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        source, target = draw(st.permutations(ids))[:2]
        cells = [source, target, str(draw(st.integers(1, 3))), draw(st.sampled_from(["call", "declared", ""]))]
        rows.append([cells[:width]])
    # Distinct rows, so each row gets at most one near miss: "self" after "drop" would index a one-cell row.
    for at in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3, unique=True)) if rows else ():
        rows[at] = _csv_miss(rows[at][-1], draw(st.sampled_from(_CSV_NEAR_MISSES)))
    lines = [["source", "target", "weight", "kind"][:width]] + [line for group in rows for line in group]
    return "".join(",".join(line) + "\n" for line in lines)


def _oracle_edge_csv(text: str) -> ProjectDescriptor:
    """Every row built through the public constructors, line by line, each error worded as the parser words it."""
    lines = text.split("\n")
    header = lines[0].split(",")
    edges = []
    for number, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(cells)}", line=number)
        source, target, weight, kind = cells + [""] * (4 - len(cells))
        try:
            weight = int(weight or 1)
        except ValueError:
            raise ParseError(f"weight {_shown(weight)} is not an integer", line=number) from None
        try:
            edges.append(DependencyEdge(source, target, weight, kind or "call"))
        except CouplingError as exc:
            raise ParseError(str(exc), line=number) from None
    endpoints = sorted({end for edge in edges for end in (edge.source, edge.target)})
    return ProjectDescriptor("edges", tuple(map(ServiceNode, endpoints)), tuple(edges))


class TestEdgeCsvRows:
    @settings(max_examples=300, deadline=None)
    @given(_near_miss_edge_csvs())
    # A self-dependency at line 3 before a bad weight at line 4; a bad weight at line 2 before a self-dependency.
    @example("source,target,weight\na,b,1\nb,b,1\na,c,x\n")
    @example("source,target,weight\na,b,x\nb,b,1\n")
    # A wrong column count at line 3 after a forbidden id at line 2.
    @example("source,target\na\x7f,b\na,b,1\n")
    def test_matches_row_by_row_constructors(self, text):
        assert _outcome(parse_edge_csv, text) == _outcome(_oracle_edge_csv, text)

    def test_valid_csv_skips_record_checks(self, checked_inits):
        rows = "".join(f"svc-{i % 7},svc-{i % 7 + 1},{i % 3 + 1},{('call', 'compose', '')[i % 3]}\n" for i in range(50))
        descriptor = parse_edge_csv("source,target,weight,kind\n" + rows)
        assert checked_inits == {ServiceNode: 8, DependencyEdge: 0}  # one per endpoint, none per row
        assert descriptor == _oracle_edge_csv("source,target,weight,kind\n" + rows)
        assert all(type(edge.kind) is EdgeKind for edge in descriptor.edges)
