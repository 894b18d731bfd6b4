"""Arbitrary input bytes through ``analyze``: an exit code, never a traceback.

Each suite writes one generated file with the extension of one input
format and runs the full CLI on it.  Inputs are raw bytes, text over the
format's own punctuation, or well-formed documents whose ids and names
are arbitrary text.  A run must return 0, 1 or 2.  When it succeeds, the
SVG must parse as XML and ``service_metrics.csv`` must read back to
exactly the project's service ids.
"""

from __future__ import annotations

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from xml.dom import minidom

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mscoupling.cli import main
from mscoupling.ingest import load_project

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _near_miss(alphabet: str) -> st.SearchStrategy[bytes]:
    """Text over a format's own punctuation and keywords, so some inputs parse."""
    return st.text(alphabet, max_size=300).map(lambda text: text.encode("utf-8"))


def _inputs(alphabet: str, documents: st.SearchStrategy[bytes]) -> st.SearchStrategy[bytes]:
    return st.one_of(st.binary(max_size=300), _near_miss(alphabet), documents)


# Any text, or text over characters that CSV, DOT and XML treat specially.
_TEXT = st.one_of(st.text(max_size=6), st.text("ab &<>\\'é;-", min_size=1, max_size=6))
_IDS = st.lists(_TEXT, min_size=1, max_size=5, unique=True)


def _pairs(ids: list[str]) -> st.SearchStrategy[list[tuple[str, str]]]:
    """Ordered pairs of distinct ids, so that most documents are well-formed."""
    if len(ids) < 2:
        return st.just([])
    indices = st.tuples(st.integers(0, len(ids) - 1), st.integers(1, len(ids) - 1))
    return st.lists(indices.map(lambda ij: (ids[ij[0]], ids[(ij[0] + ij[1]) % len(ids)])), max_size=6)


@st.composite
def _descriptors(draw) -> bytes:
    ids = draw(_IDS)
    document = {
        "name": draw(_TEXT),
        "services": [{"id": service, "classes": draw(st.none() | st.integers(0, 5))} for service in ids],
        "edges": [
            {"source": source, "target": target, "weight": draw(st.integers(1, 3))}
            for source, target in draw(_pairs(ids))
        ],
    }
    return json.dumps(document, ensure_ascii=draw(st.booleans())).encode("utf-8", "surrogatepass")


@st.composite
def _edge_csvs(draw) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["source", "target", "weight"])
    writer.writerows((source, target, draw(st.integers(1, 3))) for source, target in draw(_pairs(draw(_IDS))))
    return text.getvalue().encode("utf-8", "surrogatepass")


@st.composite
def _composes(draw) -> bytes:
    ids = draw(_IDS)
    services = {service: {"depends_on": []} for service in ids}
    for source, target in draw(_pairs(ids)):
        services[source]["depends_on"].append(target)
    return yaml.safe_dump({"services": services}, allow_unicode=draw(st.booleans())).encode("utf-8", "surrogatepass")


def _analyze(filename: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / filename, Path(tmp) / "out"
        source.write_bytes(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["analyze", str(source), "--out", str(out), "--emit", "csv,dot,svg"])
        assert code in (0, 1, 2)
        if code != 0:
            return
        minidom.parse(str(out / "graph.svg"))
        with open(out / "service_metrics.csv", newline="", encoding="utf-8") as handle:
            ids = [row["service"] for row in csv.DictReader(handle)]
        assert tuple(ids) == load_project(source)[0].service_ids


@FUZZ
@given(_inputs('{}[]":,0123456789 -.\nabeinrstcdglowuvkyf&<\\', _descriptors()))
def test_descriptor_bytes(data):
    _analyze("project.json", data)


@FUZZ
@given(_inputs('sourcetargwhkindcalp,"\n\r 0123456789-&<\\\t;', _edge_csvs()))
def test_edge_csv_bytes(data):
    _analyze("deps.csv", data)


@FUZZ
@given(_inputs("servicdpnds_olkabw:-[]{},&*!|>'\"\n 0123#?", _composes()))
def test_compose_bytes(data):
    _analyze("docker-compose.yml", data)
