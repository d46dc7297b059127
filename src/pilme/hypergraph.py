"""Hypergraph view of sign states.

The XOR polynomial of the generating function doubles as a hypergraph
(one edge per monomial), and a state is entangled exactly when some edge
couples two or more qubits.  A truth table reaches its hypergraph only
through the full subset-lattice transform (ANF text is one already), so
the easy edge test does not shortcut the hard decision problem.  Given
the hypergraph, the four-point certificate or the factors are read off
the coefficients too (`lme_state.membership_witness`).

Both text and JSON list the edges by size, then lexicographically
(`Hypergraph.edges`): a dense coefficient is read through a table of
every edge mask in that order, any other one sorts its set bits.
`parse_anf_text` maps each vertex token written the way
`render_anf_text` writes it to its mask bit through one dict; a sparse
edge list read that way is kept, sorted into print order, so listing it
decodes nothing.  Input with any other spelling, or with a fault, is
read line by line, so the first faulty line decides the error.
"""

from __future__ import annotations

from typing import Optional

from .boolfn import (
    MAX_N,
    BooleanFunction,
    Hypergraph,
    ParseError,
    _byte_text,
    _lists_dense,
    _sort_edge_masks,
    anf,
    check_arity,
    pack_bits,
)

__all__ = [
    "Hypergraph",
    "entangling_edge_exists",
    "hypergraph_of",
    "render_anf_text",
    "parse_anf_text",
    "hypergraph_to_json",
]


def entangling_edge_exists(h: Hypergraph) -> bool:
    """True iff some edge couples at least two vertices.

    Size-1 edges are single-qubit phase flips (they swap |+> and |-> on
    one qubit) and never entangle.  They sit at the power-of-two bits of
    the coefficient int, the constant at bit 0.
    """
    unentangling = 1 | sum(1 << (1 << k) for k in range(h.vertex_count))
    return (h.coeff & unentangling) != h.coeff


def hypergraph_of(f: BooleanFunction) -> Hypergraph:
    """The hypergraph of f, i.e. its XOR polynomial; exponential in the
    arity by construction."""
    check_arity(f.arity)
    return anf(f)


# ---------------------------------------------------------------------------
# Text and JSON formats (shared with the ANF command line surface)


def render_anf_text(h: Hypergraph) -> str:
    """One header line ``c <0|1>`` then one monomial per line as
    space-separated vertex indices."""
    lines = [f"c {h.constant_bit}", *h._decode_edges(_byte_text)]
    # Each edge's text ends in a space, dropped here in one pass.
    return ("\n".join(lines) + "\n").replace(" \n", "\n")


# Each vertex token as `render_anf_text` writes it, to its bit in an edge mask.
_VERTEX_BITS = {str(v): 1 << v for v in range(MAX_N)}


def _canonical_masks(lines: list[str]) -> Optional[list[int]]:
    # The edge masks of monomial lines whose every token is in _VERTEX_BITS,
    # none repeated within a line and no line repeating another; None for
    # any other input, which _checked_edges then reads line by line.
    rows = [line.split() for line in lines]
    try:
        masks = [sum(map(_VERTEX_BITS.__getitem__, row)) for row in rows]
    except KeyError:
        return None
    # A repeated vertex carries into a higher bit, so its line's mask has
    # fewer set bits than the line has tokens.
    if sum(map(int.bit_count, masks)) != sum(map(len, rows)) or len(set(masks)) != len(masks):
        return None
    return masks


def _checked_edges(lines: list[str]) -> set[frozenset[int]]:
    # Every monomial line's vertices, any spelling `int` reads; the first
    # faulty line raises, checked for a bad token, then a negative vertex,
    # then a repeated vertex, then a repeated monomial.
    edges: set[frozenset[int]] = set()
    for line in lines:
        try:
            vertices = [int(token) for token in line.split()]
        except ValueError:
            raise ParseError(f"bad monomial line {line!r}") from None
        if any(v < 0 for v in vertices):
            raise ParseError(f"negative vertex in {line!r}")
        edge = frozenset(vertices)
        if len(edge) != len(vertices):
            raise ParseError(f"repeated vertex in monomial {line!r}")
        if edge in edges:
            raise ParseError(f"duplicate monomial {line!r}")
        edges.add(edge)
    return edges


def parse_anf_text(
    text: str, vertex_count: Optional[int] = None, max_n: int = MAX_N
) -> Hypergraph:
    """Parse the text format back into a hypergraph.

    The format does not carry the vertex count; it is inferred as one past
    the largest mentioned vertex unless given explicitly (required for
    edge-free input).  A vertex count above `max_n` is refused before the
    coefficients are packed.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "c" or header[1] not in ("0", "1"):
        raise ParseError(f"expected 'c 0' or 'c 1' header, got {lines[0]!r}")
    masks = _canonical_masks(lines[1:])
    canonical = masks is not None
    if canonical:
        inferred = max(masks, default=0).bit_length()
    else:
        edges = _checked_edges(lines[1:])
        inferred = 1 + max(map(max, edges), default=-1)
        # Shifted only while packing, after the cap check below.
        masks = (sum(1 << v for v in edge) for edge in edges)
    if vertex_count is None:
        if inferred == 0:
            raise ParseError("vertex count cannot be inferred from an edge-free input")
        vertex_count = inferred
    elif vertex_count < inferred:
        raise ParseError(
            f"monomials reach vertex {inferred - 1}, beyond vertex count {vertex_count}"
        )
    check_arity(vertex_count, max_n)
    graph = Hypergraph(vertex_count, pack_bits(masks, 1 << vertex_count) | int(header[1]))
    if canonical and not _lists_dense(vertex_count, len(masks)):
        # Kept as read, in print order, so listing the edges decodes nothing.
        vars(graph)["_edge_masks"] = _sort_edge_masks(masks)
    return graph


def hypergraph_to_json(h: Hypergraph) -> dict:
    """JSON-ready dict: {"n": ..., "c": 0|1, "edges": [[...], ...]}."""
    return {
        "n": h.vertex_count,
        "c": h.constant_bit,
        "edges": [list(edge) for edge in h.edges],
    }
