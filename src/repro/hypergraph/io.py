"""hMetis ``.hgr`` file format reader/writer.

The hMetis hypergraph format (Karypis et al.) is the lingua franca of
VLSI partitioning benchmarks::

    <num_hyperedges> <num_vertices> [fmt]
    <pin> <pin> ...          # one line per hyperedge, 1-based vertex ids
    ...
    [<vertex weight>]        # one line per vertex when fmt includes 10

``fmt`` is ``1`` (edge weights: each edge line starts with its weight),
``10`` (vertex weights appended), ``11`` (both), or absent (neither).
Comment lines start with ``%``.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from ..errors import HypergraphError
from .hypergraph import Hypergraph

__all__ = ["write_hgr", "read_hgr", "dumps_hgr", "loads_hgr"]


def dumps_hgr(hg: Hypergraph) -> str:
    """Serialize a hypergraph to hMetis text format.

    Edge weights are emitted only if any differ from 1; likewise vertex
    weights.  Vertex ids are 1-based per the format.
    """
    sizes = hg._edge_ptr[1:] - hg._edge_ptr[:-1]
    if (sizes == 0).any():
        bad = int(np.argmax(sizes == 0))
        raise HypergraphError(
            f"edge {bad} has no pins — the hgr format cannot represent "
            "empty hyperedges (an empty pin line parses as a blank line)"
        )
    has_ew = bool((hg.edge_weight != 1).any())
    has_vw = bool((hg.vertex_weight != 1).any())
    fmt = (1 if has_ew else 0) + (10 if has_vw else 0)
    buf = io.StringIO()
    header = f"{hg.num_edges} {hg.num_vertices}"
    if fmt:
        header += f" {fmt}"
    buf.write(header + "\n")
    for e in range(hg.num_edges):
        pins = " ".join(str(int(v) + 1) for v in hg.edge_vertices(e))
        if has_ew:
            buf.write(f"{int(hg.edge_weight[e])} {pins}\n")
        else:
            buf.write(pins + "\n")
    if has_vw:
        for v in range(hg.num_vertices):
            buf.write(f"{int(hg.vertex_weight[v])}\n")
    return buf.getvalue()


def write_hgr(hg: Hypergraph, path: str | Path) -> None:
    """Write a hypergraph to an hMetis ``.hgr`` file."""
    Path(path).write_text(dumps_hgr(hg))


def _ints(lineno: int, line: str) -> list[int]:
    try:
        return [int(x) for x in line.split()]
    except ValueError:
        raise HypergraphError(
            f"hgr line {lineno}: expected integers, got {line!r}"
        ) from None


def loads_hgr(text: str) -> Hypergraph:
    """Parse hMetis text format into a :class:`Hypergraph`.

    Anything the format does not allow is a :class:`HypergraphError`
    naming the offending line of ``text`` (1-based; comment and blank
    lines are skipped but counted).
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("%")]
    if not lines:
        raise HypergraphError("empty hgr file")
    header = _ints(*lines[0])
    if len(header) not in (2, 3) or min(header) < 0:
        raise HypergraphError(
            f"hgr line {lines[0][0]}: malformed hgr header {lines[0][1]!r}"
        )
    num_edges, num_vertices = header[:2]
    fmt = header[2] if len(header) == 3 else 0
    if fmt not in (0, 1, 10, 11):
        raise HypergraphError(f"hgr line {lines[0][0]}: unsupported hgr fmt {fmt}")
    has_ew = fmt in (1, 11)
    has_vw = fmt in (10, 11)
    expected = 1 + num_edges + (num_vertices if has_vw else 0)
    if len(lines) < expected:
        raise HypergraphError(
            f"hgr file truncated: expected {expected} lines, got {len(lines)}"
        )
    if len(lines) > expected:
        raise HypergraphError(
            f"hgr line {lines[expected][0]}: {len(lines) - expected} lines "
            f"past the {num_edges} edges"
            + (f" and {num_vertices} vertex weights" if has_vw else "")
            + " the header declares"
        )
    edges = []
    edge_weights = []
    for i, (no, line) in enumerate(lines[1:1 + num_edges]):
        fields = _ints(no, line)
        if has_ew:
            edge_weights.append(fields[0])
            fields = fields[1:]
            if not fields:
                raise HypergraphError(
                    f"hgr line {no}: edge {i} has a weight but no pins"
                )
        if any(p < 1 or p > num_vertices for p in fields):
            raise HypergraphError(f"hgr line {no}: edge {i} has pin out of range")
        edges.append([p - 1 for p in fields])
    vw = [1] * num_vertices
    if has_vw:
        for v, (no, line) in enumerate(lines[1 + num_edges:]):
            fields = _ints(no, line)
            if len(fields) != 1:
                raise HypergraphError(
                    f"hgr line {no}: expected one weight for vertex {v}, "
                    f"got {line!r}"
                )
            vw[v] = fields[0]
    return Hypergraph.from_edges(vw, edges, edge_weights if has_ew else None)


def read_hgr(path: str | Path) -> Hypergraph:
    """Read an hMetis ``.hgr`` file."""
    return loads_hgr(Path(path).read_text())
