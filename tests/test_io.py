"""Tests for edge-list I/O."""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.graph.adjacency import AdjacencyGraph
from repro.api import RunSpec, run
from repro.graph.io import (
    EdgeListParseError,
    iter_edge_list,
    read_edge_columns,
    read_edge_list,
    relabel_consecutive,
    write_edge_list,
)
from repro.streams.transforms import simplify_edges


class TestRoundTrip:
    def test_graph_round_trip(self, tmp_path, k5_graph):
        path = tmp_path / "edges.txt"
        count = write_edge_list(k5_graph, path)
        assert count == 10
        back = read_edge_list(path)
        assert sorted(back.edges()) == sorted(k5_graph.edges())

    def test_edge_iterable_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list([(5, 2), (2, 9)], path)
        assert list(iter_edge_list(path)) == [(5, 2), (2, 9)]

    def test_gzip_round_trip(self, tmp_path, k4_graph):
        path = tmp_path / "edges.txt.gz"
        write_edge_list(k4_graph, path)
        with gzip.open(path, "rt") as handle:
            assert len(handle.readlines()) == 6
        back = read_edge_list(path)
        assert back.num_edges == 6


class TestParsing:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n% matrix comment\n// c style\n1 2\n3 4\n")
        assert list(iter_edge_list(path)) == [(1, 2), (3, 4)]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 1483228800 0.5\n2 3 1483228900 1.0\n")
        assert list(iter_edge_list(path)) == [(1, 2), (2, 3)]

    def test_short_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1\n1 2\n")
        assert list(iter_edge_list(path)) == [(1, 2)]

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n2,3\n")
        assert list(iter_edge_list(path, delimiter=",")) == [(1, 2), (2, 3)]

    def test_custom_node_type(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("alice bob\nbob carol\n")
        edges = list(iter_edge_list(path, node_type=str))
        assert edges == [("alice", "bob"), ("bob", "carol")]

    @pytest.mark.parametrize("intern", [False, True])
    def test_non_integer_labels_name_file_and_line(self, tmp_path, intern):
        from repro.streams.interner import NodeInterner

        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 3\nalice bob\n")
        interner = NodeInterner() if intern else None
        with pytest.raises(EdgeListParseError) as info:
            list(iter_edge_list(path, interner=interner))
        message = str(info.value)
        assert str(path) in message
        assert "'alice bob'" in message
        assert isinstance(info.value, ValueError)

    def test_read_simplifies(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n2 1\n3 3\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 1

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edge_list([(0, 1)], path, header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert list(iter_edge_list(path)) == [(0, 1)]


class TestRelabel:
    def test_relabel_consecutive(self):
        edges, mapping = relabel_consecutive([("x", "y"), ("y", "z")])
        assert edges == [(0, 1), (1, 2)]
        assert mapping == {"x": 0, "y": 1, "z": 2}

    def test_relabel_preserves_structure(self, k4_graph):
        edges, mapping = relabel_consecutive(k4_graph.edges())
        relabeled = AdjacencyGraph(edges)
        assert relabeled.num_edges == k4_graph.num_edges
        assert relabeled.num_nodes == k4_graph.num_nodes
        assert len(mapping) == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "absent.txt")


def _write_bytes(tmp_path, data: bytes, name: str = "edges.txt"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _tuple_path(path):
    return list(simplify_edges(iter_edge_list(path)))


class TestReadEdgeColumns:
    """The columnar reader equals the tuple reader, or declines."""

    @pytest.mark.parametrize("data", [
        pytest.param(b"1 2\n2 1\n3 3\n1 2\n2 3\n3 2\n4 4\n3 1\n",
                     id="loops-and-duplicates-both-orientations"),
        pytest.param(b"\n1 2\n   \n\t\n2 3\n\n", id="blank-lines"),
        pytest.param(b"1 2\r\n2 3\r\n3 1\r\n", id="crlf"),
        pytest.param(b"1 2\r2 3\r", id="bare-cr"),
        pytest.param(b"1\t2\n  2 \t 3  \n", id="tabs-and-padding"),
        pytest.param(b"1 2\n2 3", id="no-final-newline"),
        pytest.param(b"-1 2\n2 -3\n-3 -1\n-1 -1\n2 -1\n", id="negative"),
        pytest.param(b"+5 007\n7 5\n-0 +0\n0 5\n", id="signs-and-zeros"),
        pytest.param(b"2147483647 -2147483648\n-2147483648 2147483647\n",
                     id="int32-extremes"),
        pytest.param(b"", id="empty"),
        pytest.param(b"\n \n\t\n", id="whitespace-only"),
    ])
    def test_equals_tuple_reader(self, tmp_path, data):
        path = _write_bytes(tmp_path, data)
        columns = read_edge_columns(path)
        assert columns is not None
        u, v = columns
        assert u.dtype == v.dtype == np.int32
        assert list(zip(u.tolist(), v.tolist())) == _tuple_path(path)

    def test_equals_tuple_reader_on_generated_graph(self, tmp_path):
        from repro.graph.generators import powerlaw_cluster

        path = tmp_path / "edges.txt"
        edges = list(powerlaw_cluster(300, 3, 0.4, seed=2).edges())
        # Append every edge again, reversed, plus self-loops.
        write_edge_list(edges + [(v, u) for u, v in edges]
                        + [(u, u) for u, _ in edges[:20]], path)
        u, v = read_edge_columns(path)
        assert list(zip(u.tolist(), v.tolist())) == _tuple_path(path)

    @pytest.mark.parametrize("data", [
        pytest.param(b"1 2\n3 2147483648\n", id="above-int32"),
        pytest.param(b"1 -2147483649\n", id="below-int32"),
        pytest.param(b"1 99999999999999999999\n", id="int64-saturation"),
        pytest.param(b"# header\n1 2\n", id="hash-comment"),
        pytest.param(b"% matrix\n1 2\n", id="percent-comment"),
        pytest.param(b"// c style\n1 2\n", id="slash-comment"),
        pytest.param(b"1 2 17\n2 3 18\n", id="three-columns"),
        pytest.param(b"1\n1 2\n", id="one-token-line"),
        pytest.param(b"1 2\n2 3 4\n5\n", id="mixed-short-and-long"),
        pytest.param(b"1 -\n", id="lone-sign"),
        pytest.param(b"1-2 3\n", id="inner-sign"),
    ])
    def test_declines_files_the_line_reader_owns(self, tmp_path, data):
        path = _write_bytes(tmp_path, data)
        assert read_edge_columns(path) is None

    @pytest.mark.parametrize("token", [
        b"foo", b"1.5", b"0x10", b"1_000", b"\xc2\xb9",
    ])
    def test_declines_tokens_int_may_reject(self, tmp_path, token):
        path = _write_bytes(tmp_path, b"1 2\n" + token + b" 2\n")
        assert read_edge_columns(path) is None

    def test_declines_gzip(self, tmp_path):
        path = tmp_path / "edges.txt.gz"
        write_edge_list([(0, 1), (1, 2)], path)
        assert read_edge_columns(path) is None


class TestRunOnDeclinedFiles:
    """A file the columnar reader declines runs exactly as before."""

    SPEC = dict(method="gps-post", weight="uniform", budget=4, stream_seed=3)

    @pytest.mark.parametrize("data", [
        pytest.param(b"1 2\n2 3\n3 1\n1 4\n4 2\n1 2147483648\n",
                     id="above-int32"),
        pytest.param(b"1 99999999999999999999\n1 2\n2 3\n3 1\n",
                     id="int64-saturation"),
        pytest.param(b"# c\n1 2\n2 3\n3 1\n1 4\n4 2\n", id="comment"),
        pytest.param(b"1 2 9\n2 3 9\n3 1 9\n1 4 9\n4 2 9\n",
                     id="three-columns"),
        pytest.param(b"1\n1 2\n2 3\n3 1\n7\n1 4\n4 2\n",
                     id="one-token-lines"),
    ])
    def test_run_equals_tuple_population(self, tmp_path, data):
        path = _write_bytes(tmp_path, data)
        assert read_edge_columns(path) is None
        spec = RunSpec(source=str(path), **self.SPEC)
        from_file = run(spec)
        from_tuples = run(spec, graph=_tuple_path(path))
        assert from_file.estimates == from_tuples.estimates
        assert from_file.edges == from_tuples.edges
        assert from_file.pipeline == from_tuples.pipeline
        assert (from_file.to_dict()["post_stream"]
                == from_tuples.to_dict()["post_stream"])

    def test_bad_label_still_raises_parse_error(self, tmp_path):
        path = _write_bytes(tmp_path, b"1 2\nfoo 2\n")
        with pytest.raises(EdgeListParseError) as info:
            run(RunSpec(source=str(path), **self.SPEC))
        assert str(info.value) == (
            f"{path}: cannot read node labels from line 'foo 2' "
            f"(invalid literal for int() with base 10: 'foo')"
        )

    def test_gzip_runs_through_the_line_reader(self, tmp_path):
        plain = tmp_path / "edges.txt"
        packed = tmp_path / "edges.txt.gz"
        edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (1, 0)]
        write_edge_list(edges, plain)
        write_edge_list(edges, packed)
        a = run(RunSpec(source=str(plain), **self.SPEC))
        b = run(RunSpec(source=str(packed), **self.SPEC))
        assert a.estimates == b.estimates
        assert a.to_dict()["post_stream"] == b.to_dict()["post_stream"]
