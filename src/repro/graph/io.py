"""Edge-list I/O for social graphs.

The Twitter and Flickr datasets used by the paper ship as whitespace-separated
edge lists (one ``producer consumer`` pair per line).  This module reads and
writes that format, transparently handling gzip compression and comment
lines, so synthetic datasets generated by this package round-trip through the
same on-disk representation the original experiments consumed.
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import GraphError
from repro.graph.digraph import Edge, SocialGraph

COMMENT_CHARS = ("#", "%")


def _open_text(path: str | Path, mode: str) -> io.TextIOBase:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def iter_edge_list(path: str | Path) -> Iterator[Edge]:
    """Stream ``(producer, consumer)`` integer pairs from an edge-list file.

    Blank lines and lines starting with ``#`` or ``%`` are skipped.  A line
    with anything other than two integer tokens, bytes that are not UTF-8,
    or a cut or corrupt ``.gz`` stream raise :class:`GraphError` naming
    the file and line.
    """
    lineno = 0
    try:
        with _open_text(path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith(COMMENT_CHARS):
                    continue
                parts = stripped.split()
                if len(parts) != 2:
                    raise GraphError(
                        f"{path}:{lineno}: expected 'producer consumer', got {stripped!r}"
                    )
                try:
                    yield (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise GraphError(
                        f"{path}:{lineno}: non-integer node id in {stripped!r}"
                    ) from exc
    except (UnicodeDecodeError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise GraphError(f"{path}:{lineno + 1}: unreadable ({exc})") from exc


def read_edge_list(path: str | Path) -> SocialGraph:
    """Load an edge-list file into a :class:`SocialGraph`.

    Duplicate edges in the file are collapsed; self-loops raise
    :class:`GraphError` (they are meaningless in the paper's model).
    """
    graph = SocialGraph()
    graph.add_edges_from(iter_edge_list(path))
    return graph


def write_edge_list(
    graph: SocialGraph,
    path: str | Path,
    header: str | None = None,
) -> int:
    """Write ``graph`` as an edge list; returns the number of edges written.

    Parameters
    ----------
    header:
        Optional comment emitted as a ``#``-prefixed first line.
    """
    count = 0
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# {header}\n")
        for producer, consumer in graph.edges():
            handle.write(f"{producer} {consumer}\n")
            count += 1
    return count


def write_edges(edges: Iterable[Edge], path: str | Path) -> int:
    """Write raw ``(producer, consumer)`` pairs without building a graph."""
    count = 0
    with _open_text(path, "w") as handle:
        for producer, consumer in edges:
            handle.write(f"{producer} {consumer}\n")
            count += 1
    return count
