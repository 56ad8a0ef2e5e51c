"""Every source file parses under the oldest supported Python's grammar.

CI runs the suite and the benchmark on Python 3.10 as well; this catches
newer syntax (such as except* or type-parameter lists) on any interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.name == "test_syntax.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
