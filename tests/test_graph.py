"""Tests for the dependency graph model."""

from __future__ import annotations

import copy
import pickle
import sys

import networkx
import pytest
from hypothesis import given

import oracles
from mscoupling.errors import (
    DuplicateService,
    EmptyGraph,
    SelfDependency,
    UnknownService,
    ValidationError,
)
from mscoupling.graph import DependencyEdge, EdgeKind, ServiceGraph, ServiceNode
from mscoupling.ingest import ProjectDescriptor
from mscoupling.metrics import (
    Analysis,
    PairMetrics,
    ProjectSummary,
    ServiceMetrics,
    StatSummary,
    pair_metrics,
    service_table,
)
from mscoupling.report import RenderOptions
from strategies import service_graphs


def _clients(graph, service):
    """The map from each service depending on ``service`` to its weight, rebuilt from ``providers``."""
    return {client: weight for client in graph.service_ids if (weight := graph.providers(client).get(service))}


class TestServiceNode:
    def test_defaults(self):
        node = ServiceNode("A")
        assert node.class_count is None
        assert node.loc is None

    @pytest.mark.parametrize("bad_id", ["", "a,b", "a\nb", "a\tb", 'a"b', "a\rb"])
    def test_rejects_unsafe_ids(self, bad_id):
        with pytest.raises(ValidationError):
            ServiceNode(bad_id)

    @pytest.mark.parametrize(
        "bad_id", ["a\bb", "\x00", "a\x85", "a\u2028b", "\ud800", "a\ufffe"],
        ids=["backspace", "nul", "c1-control", "line-separator", "surrogate", "noncharacter"],
    )
    def test_rejects_unprintable_ids(self, bad_id):
        with pytest.raises(ValidationError, match="forbidden character"):
            ServiceNode(bad_id)

    @pytest.mark.parametrize("good_id", ["café", "a b", "a&<>\\'b", "服务"])
    def test_accepts_printable_ids(self, good_id):
        assert ServiceNode(good_id).id == good_id

    @pytest.mark.parametrize("field", ["class_count", "loc"])
    def test_rejects_negative_counts(self, field):
        with pytest.raises(ValidationError):
            ServiceNode("A", **{field: -1})

    @pytest.mark.parametrize("value", [True, 2.0, "3"])
    def test_rejects_non_int_counts(self, value):
        with pytest.raises(ValidationError):
            ServiceNode("A", class_count=value)

    def test_zero_counts_allowed(self):
        node = ServiceNode("A", class_count=0, loc=0)
        assert node.class_count == 0
        assert node.loc == 0


class TestDependencyEdge:
    def test_defaults(self):
        edge = DependencyEdge("A", "B")
        assert edge.weight == 1
        assert edge.kind is EdgeKind.CALL

    def test_self_dependency_rejected(self):
        with pytest.raises(SelfDependency):
            DependencyEdge("A", "A")

    @pytest.mark.parametrize("weight", [0, -3])
    def test_rejects_nonpositive_weight(self, weight):
        with pytest.raises(ValidationError):
            DependencyEdge("A", "B", weight=weight)

    def test_weight_bounded_by_double_precision(self):
        assert DependencyEdge("A", "B", weight=2**53).weight == 2**53
        with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
            DependencyEdge("A", "B", weight=2**53 + 1)

    @pytest.mark.parametrize("weight", [True, 1.0, "2"])
    def test_rejects_non_int_weight(self, weight):
        with pytest.raises(ValidationError):
            DependencyEdge("A", "B", weight=weight)

    def test_kind_from_string(self):
        assert DependencyEdge("A", "B", kind="compose").kind is EdgeKind.COMPOSE

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            DependencyEdge("A", "B", kind="psychic")

    @pytest.mark.parametrize("kind", [5, None])
    def test_non_string_kind_rejected(self, kind):
        with pytest.raises(ValidationError):
            DependencyEdge("A", "B", kind=kind)


class TestGraphConstruction:
    def test_empty_graph(self):
        graph = ServiceGraph.build([])
        assert graph.service_ids == ()
        assert graph.edges == ()

    def test_build_duplicate_nodes_rejected(self):
        with pytest.raises(DuplicateService, match=r"^service #1: service 'A' declared twice$"):
            ServiceGraph.build([ServiceNode("A"), ServiceNode("A")])

    def test_build_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownService, match=r"^edge #1 'A'->'C' references undeclared service 'C'$"):
            ServiceGraph.build(
                [ServiceNode("A"), ServiceNode("B")], [DependencyEdge("A", "B"), DependencyEdge("A", "C")]
            )

    @pytest.mark.parametrize(
        "edge, missing", [(DependencyEdge("X", "A"), "X"), (DependencyEdge("X", "Y"), "X"), (DependencyEdge("B", "Y"), "Y")]
    )
    def test_unknown_endpoint_named_source_first(self, edge, missing):
        with pytest.raises(UnknownService, match=rf"^edge #0 .* references undeclared service '{missing}'$"):
            ServiceGraph.build([ServiceNode("A"), ServiceNode("B")], [edge])

    def test_parallel_edges_merge_by_weight(self):
        graph = ServiceGraph.build(
            [ServiceNode("A"), ServiceNode("B")],
            [DependencyEdge("A", "B", weight=1), DependencyEdge("A", "B", weight=2)],
        )
        assert len(graph.edges) == 1
        assert graph.edges[0].weight == 3
        assert graph.providers("A").get("B", 0) == 3

    def test_one_record_object_repeated_counts_each_time(self):
        edge = DependencyEdge("A", "B")
        graph = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")], [edge] * 3)
        assert graph.edges == (DependencyEdge("A", "B", weight=3),)
        assert graph.providers("A")["B"] == graph._in["B"]["A"] == 3
        big = DependencyEdge("A", "B", weight=2**53)
        with pytest.raises(ValidationError, match=r"^edge #1 'A'->'B': merged weight must be at most 2\*\*53$"):
            ServiceGraph.build([ServiceNode("A"), ServiceNode("B")], [big, big])

    def test_distinct_kinds_kept_separate(self):
        graph = ServiceGraph.build(
            [ServiceNode("A"), ServiceNode("B")],
            [
                DependencyEdge("A", "B", kind=EdgeKind.CALL),
                DependencyEdge("A", "B", kind=EdgeKind.DECLARED),
            ],
        )
        assert len(graph.edges) == 2
        assert graph.providers("A").get("B", 0) == 2

    def test_nodes_sorted_regardless_of_input_order(self):
        forward = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")])
        backward = ServiceGraph.build([ServiceNode("B"), ServiceNode("A")])
        assert forward == backward

    def test_edges_sorted_regardless_of_input_order(self, demo):
        reversed_edges = ServiceGraph.build(demo.nodes, tuple(reversed(demo.edges)))
        assert reversed_edges == demo


class TestDegrees:
    def test_pair_degrees_single_edge(self, single_edge):
        assert pair_metrics(single_edge, "A", "B").outdegree == 1
        assert pair_metrics(single_edge, "B", "A").outdegree == 0
        assert pair_metrics(single_edge, "A", "B").degree == 1
        assert pair_metrics(single_edge, "B", "A").degree == 1

    def test_pair_degree_weighted_bidirectional(self):
        graph = ServiceGraph.build(
            [ServiceNode("A"), ServiceNode("B")],
            [DependencyEdge("A", "B", weight=2), DependencyEdge("B", "A", weight=1)],
        )
        assert pair_metrics(graph, "A", "B").outdegree == 2
        assert pair_metrics(graph, "B", "A").outdegree == 1
        assert pair_metrics(graph, "A", "B").degree == 3

    def test_pair_degree_unknown_service(self, single_edge):
        with pytest.raises(UnknownService):
            pair_metrics(single_edge, "A", "Z")

    def test_node_degrees_on_demo(self, demo):
        rows = {row.id: row for row in service_table(demo)}
        assert rows["A"].indegree == 4
        assert rows["A"].outdegree == 1
        assert demo.node_degree("A") == 5
        assert demo.node_degree("B") == 1
        assert rows["E"].indegree == 1
        assert rows["E"].outdegree == 1
        assert demo.node_degree("E") == 2

    def test_isolated_node_degrees(self):
        graph = ServiceGraph.build([ServiceNode("A")])
        (row,) = service_table(graph)
        assert row.indegree == 0
        assert row.outdegree == 0
        assert graph.node_degree("A") == 0

    def test_max_node_degree(self, demo, star4):
        assert demo.max_node_degree() == 5
        assert star4.max_node_degree() == 4

    def test_max_node_degree_edgeless(self):
        graph = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")])
        assert graph.max_node_degree() == 0

    def test_max_node_degree_empty_graph(self):
        with pytest.raises(EmptyGraph):
            ServiceGraph.build([]).max_node_degree()


class TestConnectivity:
    def test_connected_pairs_single_edge(self, single_edge):
        assert single_edge.connected_pairs() == (("A", "B"), ("B", "A"))

    def test_connected_pairs_edgeless(self):
        graph = ServiceGraph.build([ServiceNode("A"), ServiceNode("B")])
        assert graph.connected_pairs() == ()

    def test_connected_pairs_demo(self, demo):
        pairs = demo.connected_pairs()
        assert len(pairs) == 8
        assert pairs == tuple(sorted(pairs))
        assert ("A", "B") in pairs and ("B", "A") in pairs
        assert ("B", "C") not in pairs

    def test_articulation_chain(self, chain3):
        assert chain3.articulation_services() == frozenset({"B"})

    def test_articulation_star(self, star4):
        assert star4.articulation_services() == frozenset({"hub"})

    def test_articulation_single_edge(self, single_edge):
        assert single_edge.articulation_services() == frozenset()

    def test_articulation_cycle(self):
        nodes = [ServiceNode(s) for s in "ABC"]
        edges = [DependencyEdge("A", "B"), DependencyEdge("B", "C"), DependencyEdge("C", "A")]
        graph = ServiceGraph.build(nodes, edges)
        assert graph.articulation_services() == frozenset()


class TestLookups:
    def test_providers_and_clients(self, single_edge):
        assert single_edge.providers("A") == {"B": 1}
        assert _clients(single_edge, "A") == {}
        assert _clients(single_edge, "B") == {"A": 1}
        with pytest.raises(UnknownService):
            single_edge.providers("Z")

    def test_providers_are_read_only(self, single_edge):
        with pytest.raises(TypeError):
            single_edge.providers("A")["Z"] = 1

    def test_node_lookup(self, demo):
        assert {node.id: node.class_count for node in demo.nodes}["A"] == 50


class TestGraphProperties:
    @given(service_graphs())
    def test_pair_degree_symmetric(self, graph):
        for s1, s2 in graph.connected_pairs():
            assert pair_metrics(graph, s1, s2).degree == pair_metrics(graph, s2, s1).degree

    @given(service_graphs())
    def test_pair_degree_splits_into_directions(self, graph):
        for s1, s2 in graph.connected_pairs():
            total = graph.providers(s1).get(s2, 0) + graph.providers(s2).get(s1, 0)
            assert pair_metrics(graph, s1, s2).degree == total

    @given(service_graphs())
    def test_degree_flow_conservation(self, graph):
        rows = service_table(graph)
        out_total = sum(row.outdegree for row in rows)
        in_total = sum(row.indegree for row in rows)
        assert out_total == in_total == sum(edge.weight for edge in graph.edges)

    @given(service_graphs())
    def test_node_degree_sums_pair_degrees(self, graph):
        for s in graph.service_ids:
            partner_total = sum(
                graph.providers(s).get(other, 0) + graph.providers(other).get(s, 0)
                for other in graph.service_ids
                if other != s
            )
            assert graph.node_degree(s) == partner_total

    @given(service_graphs())
    def test_connected_pairs_come_in_mirrored_couples(self, graph):
        pairs = set(graph.connected_pairs())
        assert {(b, a) for a, b in pairs} == pairs

    @given(service_graphs())
    def test_articulation_matches_brute_force(self, graph):
        raw = [(e.source, e.target, e.weight) for e in graph.edges]
        expected = oracles.articulation_points(graph.service_ids, raw)
        assert graph.articulation_services() == frozenset(expected)

    @given(service_graphs())
    def test_articulation_matches_networkx(self, graph):
        projection = networkx.Graph()
        projection.add_nodes_from(graph.service_ids)
        projection.add_edges_from((e.source, e.target) for e in graph.edges)
        assert graph.articulation_services() == frozenset(networkx.articulation_points(projection))

    @given(service_graphs())
    def test_neighbour_maps_match_raw_edges(self, graph):
        raw = [(e.source, e.target, e.weight) for e in graph.edges]
        for s in graph.service_ids:
            assert graph.providers(s) == oracles.providers(raw, s)
            assert graph._in[s] == _clients(graph, s) == oracles.clients(raw, s)  # the in-map the metrics read


_DB, _WEB = ServiceNode("db"), ServiceNode("web", 2, 40)
_CALL = DependencyEdge("web", "db", 2)
_GRAPH = ServiceGraph((_DB, _WEB), (_CALL,))
_PAIR = PairMetrics(2, 2, 0, 0.75, 1.0, 0.625)
_SERVICE = ServiceMetrics("web", 0, 2, 2, 2, 1.0, 0, 1, 0)
_STAT = StatSummary(2, 1.0, 0.75, 0.75, 0.25, 1.5)
_DB_REPR = "ServiceNode(id='db', class_count=None, loc=None)"
_WEB_REPR = "ServiceNode(id='web', class_count=2, loc=40)"
_CALL_REPR = "DependencyEdge(source='web', target='db', weight=2, kind=<EdgeKind.CALL: 'call'>)"
_GRAPH_REPR = f"ServiceGraph(nodes=({_DB_REPR}, {_WEB_REPR}), edges=({_CALL_REPR},))"
_PAIR_REPR = "PairMetrics(degree=2, outdegree=2, indegree=0, lwf=0.75, gwf=1.0, sc=0.625)"
_SERVICE_REPR = (
    "ServiceMetrics(id='web', indegree=0, outdegree=2, degree=2, class_count=2, cbm=1.0, ais=0, ads=1, acs=0)"
)
_STAT_REPR = "StatSummary(count=2, max=1.0, avg=0.75, median=0.75, stdev=0.25, total=1.5)"
# Per record type: its field names in order, a full positional argument list, the defaults of its optional
# trailing fields, and the repr of the record those arguments build.
RECORDS = {
    "ServiceNode": (ServiceNode, "id class_count loc", ("web", 2, 40), (None, None), _WEB_REPR),
    "DependencyEdge": (
        DependencyEdge, "source target weight kind", ("web", "db", 2, EdgeKind.CALL), (1, EdgeKind.CALL), _CALL_REPR
    ),
    "ServiceGraph": (ServiceGraph, "nodes edges", ((_DB, _WEB), (_CALL,)), ((), ()), _GRAPH_REPR),
    "PairMetrics": (PairMetrics, "degree outdegree indegree lwf gwf sc", (2, 2, 0, 0.75, 1.0, 0.625), (), _PAIR_REPR),
    "ServiceMetrics": (
        ServiceMetrics, "id indegree outdegree degree class_count cbm ais ads acs", ("web", 0, 2, 2, 2, 1.0, 0, 1, 0),
        (), _SERVICE_REPR,
    ),
    "StatSummary": (
        StatSummary, "count max avg median stdev total", (2, 1.0, 0.75, 0.75, 0.25, 1.5), (None,) * 5, _STAT_REPR
    ),
    "ProjectSummary": (
        ProjectSummary, "project_name degree lwf gwf sc cbm siy", ("shop", *[_STAT] * 5, 1), (),
        f"ProjectSummary(project_name='shop', degree={_STAT_REPR}, lwf={_STAT_REPR}, gwf={_STAT_REPR}, "
        f"sc={_STAT_REPR}, cbm={_STAT_REPR}, siy=1)",
    ),
    "Analysis": (
        Analysis, "graph pairs services", (_GRAPH, (("web", "db", _PAIR),), (_SERVICE,)), (),
        f"Analysis(graph={_GRAPH_REPR}, pairs=(('web', 'db', {_PAIR_REPR}),), services=({_SERVICE_REPR},))",
    ),
    "RenderOptions": (
        RenderOptions, "hub_fraction hub_min_degree decimal_places", (0.5, 2, 3), (0.6, 3, 2),
        "RenderOptions(hub_fraction=0.5, hub_min_degree=2, decimal_places=3)",
    ),
    "ProjectDescriptor": (
        ProjectDescriptor, "name services edges source_dirs", ("shop", (_DB,), (), {"db": "src/db"}), ((), (), {}),
        f"ProjectDescriptor(name='shop', services=({_DB_REPR},), edges=(), source_dirs={{'db': 'src/db'}})",
    ),
}


class TestRecords:
    """The ten record types keep a frozen dataclass's value semantics."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_value_semantics(self, name):
        cls, fields, args, defaults, text = RECORDS[name]
        fields = fields.split()
        record = cls(*args)
        assert cls(**dict(zip(fields, args))) == record
        assert [getattr(record, field) for field in fields] == list(args)
        required = len(fields) - len(defaults)
        bare = cls(*args[:required])
        assert [getattr(bare, field) for field in fields[required:]] == list(defaults)

        twin, subclass = cls(*args), type("Sub", (cls,), {})
        assert twin == record and twin is not record and not twin != record
        assert record != tuple(args) and record != subclass(*args)
        assert (record != bare) == bool(defaults)
        if isinstance(args[-1], dict):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(twin) == hash(record) == hash(tuple(args))
        assert repr(record) == text

        for field in (*fields, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(record, field, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(record, field)
        assert [getattr(record, field) for field in fields] == list(args)

        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record and repr(copy) == text

    @pytest.mark.parametrize("name", RECORDS)
    def test_constructor_and_copy_have_one_dict_size(self, name):
        # An instance dict filled in place differs in size from one built from the same items: larger on
        # Python 3.11 and later, smaller on 3.10, where it shares its keys with the class.  Unpickling and
        # `copy.copy` would fill one in place, unless they rebuild the record through its constructor.
        cls, fields, args, _, _ = RECORDS[name]
        fields = fields.split()
        record = cls(*args)
        records = (
            record, cls(**dict(zip(fields, args))), record._replace(**{fields[-1]: args[-1]}),
            pickle.loads(pickle.dumps(record)), copy.copy(record),
        )
        built = dict(vars(records[0]).items())
        assert {sys.getsizeof(vars(record)) for record in records} == {sys.getsizeof(built)}

    def test_each_descriptor_gets_its_own_source_dirs(self):
        assert ProjectDescriptor("a").source_dirs is not ProjectDescriptor("a").source_dirs
