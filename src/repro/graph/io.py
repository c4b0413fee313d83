"""Edge-list I/O.

Lets users run every experiment on real downloaded graphs (e.g. the
network-repository datasets the paper uses) instead of the synthetic
stand-ins.  Supported format: one edge per line, two node tokens separated
by whitespace or an explicit delimiter, ``#``/``%`` comment lines, optional
gzip (by ``.gz`` extension).  Extra columns (timestamps, weights) are
ignored unless requested.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node

PathLike = Union[str, Path]

_COMMENT_PREFIXES = ("#", "%", "//")


class EdgeListParseError(ValueError):
    """A line of an edge-list file whose node tokens do not convert."""


def _open_text(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def iter_edge_list(
    path: PathLike,
    delimiter: Optional[str] = None,
    node_type: Callable[[str], Node] = int,
    interner: Optional["NodeInterner"] = None,
) -> Iterator[Tuple[Node, Node]]:
    """Yield ``(u, v)`` pairs from an edge-list file, skipping comments.

    ``delimiter=None`` splits on arbitrary whitespace.  Lines with fewer
    than two tokens are skipped; extra tokens beyond the first two are
    ignored (timestamps/weights in temporal edge lists).  Passing a
    :class:`~repro.streams.interner.NodeInterner` interns the labels to
    dense ``int32`` ids at parse time (first-encounter order), so the
    rest of the pipeline runs on machine integers; the interner keeps
    the id → label mapping.  A token ``node_type`` rejects raises
    :class:`EdgeListParseError` naming the file and the line.
    """
    with _open_text(path, "r") as handle:
        line = ""
        try:
            if interner is not None:
                intern = interner.intern
                for line in handle:
                    line = line.strip()
                    if not line or line.startswith(_COMMENT_PREFIXES):
                        continue
                    parts = line.split(delimiter)
                    if len(parts) < 2:
                        continue
                    yield (intern(node_type(parts[0])),
                           intern(node_type(parts[1])))
                return
            for line in handle:
                line = line.strip()
                if not line or line.startswith(_COMMENT_PREFIXES):
                    continue
                parts = line.split(delimiter)
                if len(parts) < 2:
                    continue
                yield node_type(parts[0]), node_type(parts[1])
        except UnicodeDecodeError:
            raise  # an undecodable file, not a bad label: keep its error
        except ValueError as exc:
            # ``line`` still holds the line being converted; the loop
            # keeps no counter, so the hot path pays nothing for this.
            raise EdgeListParseError(
                f"{path}: cannot read node labels from line {line!r} "
                f"({exc})"
            ) from exc


def iter_edge_chunks(
    path: PathLike,
    size: Optional[int] = None,
    delimiter: Optional[str] = None,
    node_type: Callable[[str], Node] = int,
    interner: Optional["NodeInterner"] = None,
):
    """Read an edge-list file as columnar ``int32`` blocks.

    The chunk-shaped sibling of :func:`iter_edge_list` — same parsing
    (comment/short lines skipped, ``delimiter``/``node_type``
    honoured), but the lines arrive as ``(u, v)`` int32 array pairs of
    at most ``size`` edges (default
    :data:`repro.streams.chunks.DEFAULT_CHUNK_SIZE`): the input shape
    of the compact core's ``process_chunk``, without ever
    materialising the whole stream.  With the default ``node_type=int``
    labels pass through unchanged; non-int labels need an interner
    (same contract as :meth:`repro.streams.EdgeStream.chunks`).

    Note the executor's file passes stay scalar on purpose (duplicate
    handling differs from the simplified stream contract, and a lazy
    source cannot be pre-validated for the columnar gate); this is the
    programmatic surface for driving ``process_chunk`` over files
    directly.
    """
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE, iter_chunks

    return iter_chunks(
        iter_edge_list(path, delimiter=delimiter, node_type=node_type),
        size=size if size is not None else DEFAULT_CHUNK_SIZE,
        interner=interner,
    )


def read_edge_list(
    path: PathLike,
    delimiter: Optional[str] = None,
    node_type: Callable[[str], Node] = int,
    interner: Optional["NodeInterner"] = None,
) -> AdjacencyGraph:
    """Read an edge-list file into an :class:`AdjacencyGraph` (simplified)."""
    return AdjacencyGraph(
        iter_edge_list(
            path, delimiter=delimiter, node_type=node_type, interner=interner
        )
    )


def write_edge_list(
    edges: Union[AdjacencyGraph, Iterable[Tuple[Node, Node]]],
    path: PathLike,
    delimiter: str = " ",
    header: Optional[str] = None,
) -> int:
    """Write edges (or a graph's edges) to a file; returns edge count."""
    if isinstance(edges, AdjacencyGraph):
        edges = edges.edges()
    count = 0
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in edges:
            handle.write(f"{u}{delimiter}{v}\n")
            count += 1
    return count


def relabel_consecutive(
    edges: Iterable[Tuple[Node, Node]],
) -> Tuple[List[Tuple[int, int]], dict]:
    """Relabel arbitrary node ids to 0..n-1; returns (edges, mapping).

    Thin wrapper over :class:`~repro.streams.interner.NodeInterner`
    (kept for its historical ``(edges, {label: id})`` return shape).
    """
    from repro.streams.interner import NodeInterner

    interner = NodeInterner()
    out = interner.intern_edges(edges)
    return out, {label: i for i, label in enumerate(interner.labels)}
