"""Execute every fenced ``python`` example in README and docs/.

Documented snippets rot silently: an import gets renamed, a parameter
disappears, and the README keeps teaching the old API.  This test walks
the markdown files, extracts each ```` ```python ```` fence, and
executes the blocks of a file sequentially in one shared namespace (so
a later block may build on an earlier one, doctest-style).  Only blocks
tagged ``python`` run; ``bash``/``text`` fences are documentation-only.

A companion check renders ``pydoc`` for the public modules the ISSUE 4
docstring pass touched, so ``python -m pydoc repro.flow`` keeps working.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose ``python`` fences must stay executable.
DOC_FILES = (
    "README.md",
    "PAPER.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
    "docs/OBSERVABILITY.md",
)

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path) -> list[str]:
    return [block for block in _FENCE.findall(path.read_text())]


def test_every_doc_file_exists():
    for name in DOC_FILES:
        assert (REPO_ROOT / name).is_file(), f"missing documentation file {name}"


@pytest.mark.parametrize("name", DOC_FILES)
def test_python_examples_execute(name):
    path = REPO_ROOT / name
    blocks = python_blocks(path)
    if not blocks:
        pytest.skip(f"{name} has no python examples")
    # the benchmarks/ package is a repo-root directory, not part of the
    # installed package — mirror run_benchmarks.py's path setup
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    namespace: dict = {"__name__": f"doc_example::{name}"}
    for index, block in enumerate(blocks):
        sink = io.StringIO()
        try:
            with redirect_stdout(sink):
                exec(compile(block, f"{name}[block {index}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - the assert is the point
            pytest.fail(
                f"documented example {name} block {index} raised "
                f"{type(exc).__name__}: {exc}"
            )


@pytest.mark.parametrize(
    "module",
    ["repro.flow", "repro.flow.maxflow", "repro.core.chitchat", "repro.flow.exact_oracle"],
)
def test_pydoc_renders(module):
    """``python -m pydoc`` must produce real documentation for the API."""
    import pydoc

    text = pydoc.render_doc(module)
    assert len(text) > 500
