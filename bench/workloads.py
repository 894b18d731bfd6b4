"""Seeded input generators and the oracle each workload is checked against.

Every workload writes its input files under a fresh directory and returns
a :class:`Case`: the ``mscoupling`` arguments (without ``--out``), the
emit set, and one :class:`Expected` per project, computed from the
generated records alone and never from the program.

Service ids are plain ``[a-z0-9-]`` names, like real deployments.  The
hostile-id escaping defects (``&``, ``<``, trailing ``\\``) belong to the
package's own tests, not to this benchmark.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

_DOMAINS = (
    "account", "auth", "billing", "cart", "catalog", "checkout", "config",
    "coupon", "delivery", "email", "fraud", "gateway", "inventory", "invoice",
    "ledger", "media", "notify", "order", "payment", "pricing", "profile",
    "rating", "recommend", "report", "review", "search", "session", "shipping",
    "stock", "tax", "user", "wishlist",
)
_ROLES = ("api", "svc", "service", "worker", "adapter", "store", "sync", "bff")


@dataclass(frozen=True)
class Expected:
    """What one project's output must say, derived from its own records."""

    name: str
    services: tuple[str, ...]
    weights: dict[tuple[str, str], int]  # merged directed weight, kinds merged
    classes: dict[str, int | None]
    records: int

    @property
    def degree(self) -> dict[tuple[str, str], int]:
        """Pair degree of every connected ordered pair."""
        pairs: dict[tuple[str, str], int] = {}
        for (source, target), weight in self.weights.items():
            pairs[source, target] = pairs.get((source, target), 0) + weight
            pairs[target, source] = pairs.get((target, source), 0) + weight
        return pairs

    @property
    def siy(self) -> int:
        return sum(1 for source, target in self.weights if source < target and (target, source) in self.weights)

    def sc_values(self) -> list[float]:
        """sc = 1 - lwf * gwf / degree over every connected ordered pair."""
        node_degree = dict.fromkeys(self.services, 0)
        for (source, target), weight in self.weights.items():
            node_degree[source] += weight
            node_degree[target] += weight
        max_degree = max(node_degree.values())
        values = []
        for (s1, s2), degree in self.degree.items():
            local = (1 + self.weights.get((s1, s2), 0)) / (1 + degree)
            values.append(1.0 - (1.0 / degree) * local * (degree / max_degree))
        return values


@dataclass(frozen=True)
class Case:
    """Generated inputs of one workload plus their oracle."""

    argv: tuple[str, ...]
    emit: tuple[str, ...]
    projects: tuple[tuple[str, Expected], ...]  # (output subdirectory or "", oracle)
    corpus: bool

    def stats(self) -> dict[str, int]:
        """Input statistics recorded with every result."""
        return {
            "services": sum(len(p.services) for _, p in self.projects),
            "records": sum(p.records for _, p in self.projects),
            "merged_edges": sum(len(p.weights) for _, p in self.projects),
            "connected_pairs": sum(len(p.degree) for _, p in self.projects),
            "siy": sum(p.siy for _, p in self.projects),
        }


def _service_ids(rng: random.Random, count: int) -> list[str]:
    ids: list[str] = []
    seen: set[str] = set()
    while len(ids) < count:
        service = f"{rng.choice(_DOMAINS)}-{rng.choice(_ROLES)}"
        if rng.random() < 0.7:
            service += f"-{rng.randrange(1, 100)}"
        if service not in seen:
            seen.add(service)
            ids.append(service)
    return ids


def _hub_targets(rng: random.Random, ids: list[str]):
    """Target sampler with Zipf-like popularity: a few central providers."""
    ranked = ids[:]
    rng.shuffle(ranked)
    cumulative = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(ranked))))

    def pick(source: str) -> str:
        while True:
            target = rng.choices(ranked, cum_weights=cumulative)[0]
            if target != source:
                return target

    return pick


def _spread(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` values spread evenly over [low, high], in seeded order.

    Sizes drawn this way sum to the same total for every seed, so the seed
    changes the structure of a workload but not how much work it is.
    """
    values = [low + (high - low + 1) * index // count for index in range(count)]
    rng.shuffle(values)
    return values


def _records(rng: random.Random, ids: list[str]) -> list[tuple[str, str, int]]:
    """One to five (three on average) weighted records per service; repeats merge by weight."""
    pick = _hub_targets(rng, ids)
    return [
        (source, pick(source), rng.randint(1, 3))
        for source, count in zip(ids, _spread(rng, len(ids), 1, 5))
        for _ in range(count)
    ]


def _merge(records) -> dict[tuple[str, str], int]:
    weights: dict[tuple[str, str], int] = {}
    for source, target, weight in records:
        weights[source, target] = weights.get((source, target), 0) + weight
    return weights


def _descriptor(rng: random.Random, name: str, ids: list[str], classes: dict, source_dirs: dict) -> tuple[dict, list]:
    records = _records(rng, ids)
    services = []
    for service in ids:
        raw: dict = {"id": service}
        if service in source_dirs:
            raw["source_dir"] = source_dirs[service]
        elif classes[service] is not None:
            raw["classes"] = classes[service]
        if rng.random() < 0.5:
            raw["loc"] = rng.randint(200, 40_000)
        services.append(raw)
    edges = []
    for source, target, weight in records:
        raw = {"source": source, "target": target}
        if weight != 1:
            raw["weight"] = weight
        if rng.random() < 0.1:
            raw["kind"] = "declared"
        edges.append(raw)
    return {"name": name, "services": services, "edges": edges}, records


def make_hub(rng: random.Random, root: Path, services: int) -> Case:
    """One descriptor, hub-biased targets, class counts on most services."""
    ids = _service_ids(rng, services)
    classes = {service: rng.randint(1, 120) if rng.random() < 0.85 else None for service in ids}
    document, records = _descriptor(rng, f"hub{services}", ids, classes, {})
    path = root / "system.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    expected = Expected(document["name"], tuple(sorted(ids)), _merge(records), classes, len(records))
    return Case(("analyze", str(path), "--emit", "csv,dot,svg"), ("csv", "dot", "svg"), (("", expected),), False)


def make_edges(rng: random.Random, root: Path, services: int, repeats: int) -> Case:
    """Edge-list CSV where every distinct dependency recurs like trace records."""
    ids = _service_ids(rng, services)
    pick = _hub_targets(rng, ids)
    distinct = []
    for source, wanted in zip(ids, _spread(rng, len(ids), 1, 5)):
        targets: set[str] = set()
        while len(targets) < wanted:
            targets.add(pick(source))
        distinct.extend((source, target) for target in sorted(targets))
    rows = [
        (source, target, rng.randint(1, 3))
        for (source, target), count in zip(distinct, _spread(rng, len(distinct), repeats // 2, repeats * 3 // 2))
        for _ in range(count)
    ]
    rng.shuffle(rows)
    path = root / "calls.csv"
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("source,target,weight\n")
        handle.writelines(f"{source},{target},{weight}\n" for source, target, weight in rows)
    endpoints = tuple(sorted({end for pair in distinct for end in pair}))
    expected = Expected("calls", endpoints, _merge(rows), dict.fromkeys(endpoints), len(rows))
    return Case(("analyze", str(path), "--emit", "csv"), ("csv",), (("", expected),), False)


def make_corpus(rng: random.Random, root: Path, projects: int, jobs: int) -> Case:
    """Many small descriptor projects; a quarter of the services count .java files."""
    corpus = root / "corpus"
    cases = []
    for index, size in enumerate(_spread(rng, projects, 8, 60)):
        name = f"{rng.choice(_DOMAINS)}-platform-{index:03d}"
        project_dir = corpus / f"{index:03d}-{name.split('-')[0]}"
        ids = _service_ids(rng, size)
        classes: dict[str, int | None] = {}
        source_dirs: dict[str, str] = {}
        for service in ids:
            if rng.random() < 0.25:
                source_dirs[service] = f"src/{service}"
                classes[service] = _write_sources(rng, project_dir / "src" / service)
            else:
                classes[service] = rng.randint(1, 60) if rng.random() < 0.8 else None
        document, records = _descriptor(rng, name, ids, classes, source_dirs)
        project_dir.mkdir(parents=True, exist_ok=True)
        (project_dir / "project.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        cases.append((project_dir.name, Expected(name, tuple(sorted(ids)), _merge(records), classes, len(records))))
    argv = ("corpus", str(corpus), "--jobs", str(jobs), "--emit", "csv,dot")
    return Case(argv, ("csv", "dot"), tuple(cases), True)


def _write_sources(rng: random.Random, directory: Path) -> int:
    """A small source tree with a non-Java file; returns its ``.java`` count."""
    count = rng.randint(1, 6)
    directory.mkdir(parents=True)
    (directory / "README.md").write_text("service notes\n", encoding="utf-8")
    if count > 3:
        (directory / "impl").mkdir()
    for index in range(count):
        folder = directory / "impl" if index >= 3 else directory
        (folder / f"Unit{index}.java").write_text(f"class Unit{index} {{}}\n", encoding="utf-8")
    return count


# name -> (generator, full-size parameters, smoke-size parameters)
WORKLOADS = {
    "analyze-hub600": (make_hub, {"services": 600}, {"services": 12}),
    "edges-dup150": (make_edges, {"services": 150, "repeats": 310}, {"services": 10, "repeats": 6}),
    "corpus-200x2": (make_corpus, {"projects": 200, "jobs": 2}, {"projects": 4, "jobs": 2}),
}


def generate(workload: str, seed: int, root: Path, smoke: bool = False) -> Case:
    generator, full, tiny = WORKLOADS[workload]
    root.mkdir(parents=True, exist_ok=True)
    return generator(random.Random(f"{workload}:{seed}"), root, **(tiny if smoke else full))
