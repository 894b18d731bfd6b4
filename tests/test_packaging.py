"""The package metadata: no runtime dependency, PyYAML only as the optional ``compose`` extra."""

from __future__ import annotations

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_pyyaml_is_only_an_extra():
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extras = project["optional-dependencies"]
    assert project["dependencies"] == []
    assert extras["compose"] == ["PyYAML>=6"]
    assert any(requirement.startswith("PyYAML") for requirement in extras["test"])
