"""Tests for the edge-stream model."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph.adjacency import AdjacencyGraph
from repro.streams.chunks import permuted_columns
from repro.streams.stream import EdgeStream


class TestConstruction:
    def test_from_graph_contains_all_edges(self, k5_graph):
        stream = EdgeStream.from_graph(k5_graph, seed=0)
        assert len(stream) == 10
        assert sorted(stream) == sorted(k5_graph.edges())

    def test_permutation_deterministic_by_seed(self, k5_graph):
        s1 = EdgeStream.from_graph(k5_graph, seed=42)
        s2 = EdgeStream.from_graph(k5_graph, seed=42)
        assert list(s1) == list(s2)

    def test_different_seeds_differ(self, medium_graph):
        s1 = EdgeStream.from_graph(medium_graph, seed=1)
        s2 = EdgeStream.from_graph(medium_graph, seed=2)
        assert list(s1) != list(s2)

    def test_replayable(self, k4_graph):
        stream = EdgeStream.from_graph(k4_graph, seed=0)
        assert list(stream) == list(stream)

    def test_from_edges_preserves_order(self):
        edges = [(3, 4), (1, 2), (2, 3)]
        assert list(EdgeStream.from_edges(edges)) == edges


class TestSlicing:
    def test_prefix(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert list(stream.prefix(2)) == [(0, 1), (1, 2)]

    def test_getitem_index_and_slice(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert stream[0] == (0, 1)
        assert list(stream[1:]) == [(1, 2), (2, 3)]
        assert isinstance(stream[1:], EdgeStream)

    def test_prefix_graph(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 0), (3, 4)])
        prefix = stream.prefix_graph(3)
        assert prefix.num_edges == 3
        assert prefix.has_edge(2, 0)
        full = stream.prefix_graph()
        assert full.num_edges == 4

    def test_enumerate_is_one_based(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2)])
        assert list(stream.enumerate()) == [(1, (0, 1)), (2, (1, 2))]


class TestCheckpoints:
    def test_checkpoints_end_at_stream_length(self):
        stream = EdgeStream.from_edges([(i, i + 1) for i in range(100)])
        marks = stream.checkpoints(4)
        assert marks == [25, 50, 75, 100]

    def test_checkpoints_more_than_length(self):
        stream = EdgeStream.from_edges([(0, 1), (1, 2), (2, 3)])
        assert stream.checkpoints(10) == [1, 2, 3]

    def test_checkpoints_zero(self):
        stream = EdgeStream.from_edges([(0, 1)])
        assert stream.checkpoints(0) == []

    def test_checkpoints_sorted_unique(self, medium_graph):
        stream = EdgeStream.from_graph(medium_graph, seed=0)
        marks = stream.checkpoints(17)
        assert marks == sorted(set(marks))
        assert marks[-1] == len(stream)

    def test_stream_node_labels_preserved(self):
        graph = AdjacencyGraph([("a", "b"), ("b", "c")])
        stream = EdgeStream.from_graph(graph, seed=0)
        assert sorted(stream) == [("a", "b"), ("b", "c")]


class TestCheckpointExactCount:
    """Regression: rounding collisions must not shrink the checkpoint list
    below ``min(count, n)`` (small streams used to lose marks)."""

    def test_exact_count_for_all_small_streams(self):
        for n in range(1, 60):
            stream = EdgeStream.from_edges([(i, i + 1) for i in range(n)])
            for count in range(1, 70):
                marks = stream.checkpoints(count)
                assert len(marks) == min(count, n), (n, count, marks)
                assert marks == sorted(set(marks)), (n, count, marks)
                assert marks[0] >= 1
                assert marks[-1] == n

    def test_strictly_increasing_no_collisions(self):
        stream = EdgeStream.from_edges([(i, i + 1) for i in range(7)])
        marks = stream.checkpoints(5)
        assert len(marks) == 5
        assert all(b > a for a, b in zip(marks, marks[1:]))
        assert marks[-1] == 7

    def test_empty_stream(self):
        assert EdgeStream.from_edges([]).checkpoints(4) == []


class TestColumnStreams:
    """Streams over int32 columns: the file reader's output shape."""

    def _stream(self, pairs):
        u = np.array([a for a, _ in pairs], dtype=np.int32)
        v = np.array([b for _, b in pairs], dtype=np.int32)
        return EdgeStream.from_columns(u, v)

    def test_iterates_to_plain_int_tuples(self):
        stream = self._stream([(0, 1), (1, 2), (-3, 2)])
        edges = list(stream)
        assert edges == [(0, 1), (1, 2), (-3, 2)]
        assert all(type(x) is int for edge in edges for x in edge)
        assert list(stream.enumerate()) == [
            (1, (0, 1)), (2, (1, 2)), (3, (-3, 2)),
        ]

    def test_columns_are_served_as_given(self):
        stream = self._stream([(0, 1), (1, 2)])
        u, v = stream.columnar()
        assert stream.columnar()[0] is u
        assert [b.tolist() for b, _ in stream.chunks(1)] == [[0], [1]]

    def test_sequence_protocol_matches_tuple_stream(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        columns, tuples = self._stream(pairs), EdgeStream(pairs)
        assert len(columns) == len(tuples) == 5
        assert columns[1] == tuples[1]
        assert list(columns[1:4]) == list(tuples[1:4])
        assert list(columns.prefix(2)) == list(tuples.prefix(2))
        assert columns.checkpoints(3) == tuples.checkpoints(3)
        assert (sorted(columns.prefix_graph(4).edges())
                == sorted(tuples.prefix_graph(4).edges()))
        assert list(columns.interned()[0]) == list(tuples.interned()[0])


class TestPermutedColumns:
    """The index shuffle reproduces the tuple shuffle exactly."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 11, 12345, 2**40 + 7])
    def test_equals_tuple_shuffle(self, n, seed):
        edges = [(i, 2 * i + 1) for i in range(n)]
        columns = (np.arange(n, dtype=np.int32),
                   np.arange(1, 2 * n + 1, 2, dtype=np.int32))
        u, v = permuted_columns(columns, seed)
        random.Random(seed).shuffle(edges)
        assert list(zip(u.tolist(), v.tolist())) == edges

    def test_no_seed_keeps_order(self):
        columns = (np.arange(3, dtype=np.int32), np.arange(3, dtype=np.int32))
        assert permuted_columns(columns, None) is columns
