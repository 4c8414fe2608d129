"""Every source file parses as the oldest Python that pyproject.toml declares.

The grammar check runs on whatever interpreter runs the suite, so syntax
newer than ``requires-python`` (``except*``, say) fails here and not only
on an old interpreter. It checks syntax only: a newer standard-library call
still needs that interpreter to be found.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"
SOURCES = sorted((REPO / "src" / "subsel").rglob("*.py"))


def test_the_package_sources_are_found():
    assert REPO / "src" / "subsel" / "__init__.py" in SOURCES


def _oldest_python():
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_oldest_python())
