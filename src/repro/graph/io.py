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

    Unlike :func:`read_edge_columns` this keeps every line — duplicates
    and self-loops included — and never holds the whole file, so it
    suits driving ``process_chunk`` directly over files too large to
    simplify in memory.
    """
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE, iter_chunks

    return iter_chunks(
        iter_edge_list(path, delimiter=delimiter, node_type=node_type),
        size=size if size is not None else DEFAULT_CHUNK_SIZE,
        interner=interner,
    )


# Byte classes of the columnar fast path.  Anything outside these
# (comment markers, letters, dots, underscores, non-ASCII, the
# separators ``str.split`` knows but numpy does not) sends the file to
# the line reader.
_DIGIT, _SIGN, _SPACE, _NEWLINE, _OTHER = range(5)


def _byte_classes():
    table = bytearray([_OTHER]) * 256
    for byte in b"0123456789":
        table[byte] = _DIGIT
    for byte in b"+-":
        table[byte] = _SIGN
    for byte in b" \t\x0b\x0c":
        table[byte] = _SPACE
    for byte in b"\n\r":  # the universal-newline line ends
        table[byte] = _NEWLINE
    return bytes(table)


_BYTE_CLASSES = _byte_classes()


def read_edge_columns(path: PathLike):
    """A clean integer edge-list file as simplified ``(u, v)`` int32 columns.

    The array twin of ``list(simplify_edges(iter_edge_list(path)))``:
    self-loops and repeat edges (in either orientation) are dropped and
    the first arrival of each edge is kept in its original orientation,
    so the columns equal that tuple list element for element.  The file
    is parsed in one vectorised pass instead of one Python step per line.

    Returns ``None`` whenever the line reader must decide instead: a
    ``.gz`` file, comment lines, a non-blank line without exactly two
    tokens, a token that is not ``[+-]digits``, a label outside int32,
    or numpy missing.  Callers then run the tuple path, which keeps its
    own behaviour for those files (skipped short lines, ignored extra
    columns, :class:`EdgeListParseError`, label-faithful tuples).

    >>> import tempfile, os
    >>> with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
    ...     _ = f.write("1 2\n2 1\n3 3\n2 3\n")
    >>> u, v = read_edge_columns(f.name)
    >>> u.tolist(), v.tolist()
    ([1, 2], [2, 3])
    >>> os.unlink(f.name)
    """
    from repro.streams.chunks import numpy_or_none

    np = numpy_or_none()
    if np is None or Path(path).suffix == ".gz":
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    classes = np.frombuffer(data.translate(_BYTE_CLASSES), dtype=np.uint8)
    if bool((classes == _OTHER).any()):
        return None
    in_token = classes <= _SIGN
    starts = in_token.copy()
    np.greater(in_token[1:], in_token[:-1], out=starts[1:])
    del in_token
    # A sign must open its token and precede a digit, so every token is
    # a literal ``int()`` accepts (numpy reads a lone "-" as 0).
    signs = np.flatnonzero(classes == _SIGN)
    if len(signs) and not (
        bool(starts[signs].all())
        and signs[-1] + 1 < len(classes)
        and bool((classes[signs + 1] == _DIGIT).all())
    ):
        return None
    # Token starts (True) and line ends (False) in byte order, framed by
    # line ends: a one-token line reads end-start-end, a line of three
    # or more tokens start-start-start.
    events = np.concatenate(
        ([False], starts[starts | (classes == _NEWLINE)], [False])
    )
    del starts, classes
    before, at, after = events[:-2], events[1:-1], events[2:]
    if bool((at & (before == after)).any()):
        return None
    tokens = int(np.count_nonzero(events))
    if tokens == 0:  # numpy reads whitespace-only text as [0]
        empty = np.empty(0, dtype=np.int32)
        return empty, empty.copy()
    labels = np.fromstring(data, dtype=np.int64, sep=" ")
    # int32 also rejects fromstring's silent saturation at int64 max.
    if (len(labels) != tokens or labels.min() < -(2**31)
            or labels.max() >= 2**31):
        return None
    labels = labels.astype(np.int32)
    u, v = labels[0::2], labels[1::2]
    # Canonical codes min·2³² + max, max offset by 2³¹ so negative
    # labels stay exact in int64; the stable unique keeps first indices.
    codes = np.minimum(u, v).astype(np.int64)
    codes *= 2**32
    codes += np.maximum(u, v)
    codes += 2**31
    _, first = np.unique(codes, return_index=True)
    del codes
    first.sort()
    first = first[u[first] != v[first]]  # drop self-loops
    return u[first], v[first]


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
