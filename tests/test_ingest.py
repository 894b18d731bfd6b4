"""Tests for descriptor, edge CSV and compose ingestion."""

from __future__ import annotations

import json
import logging

import pytest

from mscoupling.errors import DuplicateService, ParseError, UnknownService, ValidationError
from mscoupling.graph import DependencyEdge, EdgeKind, ServiceNode
from mscoupling.ingest import (
    ProjectDescriptor,
    build_graph,
    count_source_units,
    load_corpus,
    load_project,
    parse_compose,
    parse_edge_csv,
    parse_project_descriptor,
)

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
        entries = parse_edge_csv("source,target\nA,B\n")
        assert entries == (DependencyEdge("A", "B", 1, EdgeKind.CALL),)

    def test_weight_column(self):
        entries = parse_edge_csv("source,target,weight\nA,B,3\n")
        assert entries[0].weight == 3

    def test_kind_column(self):
        entries = parse_edge_csv("source,target,weight,kind\nA,B,2,compose\n")
        assert entries[0].kind is EdgeKind.COMPOSE

    def test_empty_optional_cells_use_defaults(self):
        entries = parse_edge_csv("source,target,weight,kind\nA,B,,\n")
        assert entries[0].weight == 1
        assert entries[0].kind is EdgeKind.CALL

    def test_header_case_insensitive(self):
        assert parse_edge_csv("Source,Target\nA,B\n") == (DependencyEdge("A", "B"),)

    def test_blank_lines_skipped(self):
        entries = parse_edge_csv("source,target\n\nA,B\n\n\nB,C\n")
        assert [(e.source, e.target) for e in entries] == [("A", "B"), ("B", "C")]

    def test_header_only(self):
        assert parse_edge_csv("source,target\n") == ()

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
        assert count_source_units(tmp_path) == 2

    def test_counts_recursively(self, tmp_path):
        nested = tmp_path / "src" / "main"
        nested.mkdir(parents=True)
        (nested / "Deep.java").write_text("class Deep {}")
        (tmp_path / "Top.java").write_text("class Top {}")
        assert count_source_units(tmp_path) == 2

    def test_empty_directory(self, tmp_path):
        assert count_source_units(tmp_path) == 0

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            count_source_units(tmp_path / "absent")


class TestGraphBuilding:
    def test_build_graph_carries_metadata(self):
        descriptor = parse_project_descriptor(MINIMAL_DESCRIPTOR)
        graph = build_graph(descriptor)
        assert graph.node("web").class_count == 12
        assert graph.node("db").class_count is None
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
        assert graph.node("web").class_count == 2

    def test_explicit_classes_win_over_source_dir(self, tmp_path):
        descriptor = ProjectDescriptor(
            name="x",
            services=(ServiceNode("web", class_count=9),),
            source_dirs={"web": "nowhere"},
        )
        graph = build_graph(descriptor, base_dir=tmp_path)
        assert graph.node("web").class_count == 9

    def test_source_dir_ignored_without_base_dir(self):
        descriptor = ProjectDescriptor(
            name="x", services=(ServiceNode("web"),), source_dirs={"web": "src"}
        )
        assert build_graph(descriptor).node("web").class_count is None


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
        assert graph.node("web").class_count is None

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
        assert graph.node("svc").class_count == 1

    def test_row_order_does_not_matter(self, tmp_path):
        forward = tmp_path / "a.csv"
        forward.write_text("source,target\nA,B\nB,C\n")
        backward = tmp_path / "b.csv"
        backward.write_text("source,target\nB,C\nA,B\n")
        assert load_project(forward)[0] == load_project(backward)[0]


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

    def test_ignores_plain_files_in_root(self, tmp_path):
        (tmp_path / "README.md").write_text("hello")
        assert load_corpus(tmp_path) == ()

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent")
