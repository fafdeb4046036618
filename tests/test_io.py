"""Unit tests for edge-list I/O."""

from __future__ import annotations

import gzip

import pytest

from repro.errors import GraphError
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.graph.io import iter_edge_list, read_edge_list, write_edge_list, write_edges


class TestRead:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.num_edges == 2
        assert g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% other comment style\n1 2\n")
        assert read_edge_list(path).num_edges == 1

    def test_bad_token_count_raises_with_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(GraphError, match=":1:"):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphError, match="non-integer"):
            read_edge_list(path)

    def test_cut_gzip_stream_raises_with_path(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        data = gzip.compress("".join(f"{i} {i + 1}\n" for i in range(500)).encode())
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphError, match="g.txt.gz"):
            read_edge_list(path)

    def test_non_utf8_bytes_raise_with_path(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"1 2\n3 \xff4\n")
        with pytest.raises(GraphError, match="g.txt"):
            read_edge_list(path)

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n1 2\n")
        assert read_edge_list(path).num_edges == 1

    def test_iter_edge_list_streams(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5 6\n7 8\n")
        assert list(iter_edge_list(path)) == [(5, 6), (7, 8)]


class TestWrite:
    def test_roundtrip(self, tmp_path):
        g = social_copying_graph(50, out_degree=4, seed=1)
        path = tmp_path / "g.txt"
        written = write_edge_list(g, path)
        assert written == g.num_edges
        assert read_edge_list(path) == g

    def test_gzip_roundtrip(self, tmp_path):
        g = social_copying_graph(40, out_degree=3, seed=2)
        path = tmp_path / "g.txt.gz"
        write_edge_list(g, path, header="synthetic graph")
        assert read_edge_list(path) == g

    def test_header_written_as_comment(self, tmp_path):
        g = SocialGraph([(1, 2)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="hello")
        assert path.read_text().startswith("# hello\n")

    def test_write_edges_raw(self, tmp_path):
        path = tmp_path / "e.txt"
        count = write_edges([(1, 2), (3, 4)], path)
        assert count == 2
        assert list(iter_edge_list(path)) == [(1, 2), (3, 4)]
