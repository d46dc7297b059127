"""Hypergraph view of sign states.

The XOR polynomial of the generating function doubles as a hypergraph
(one edge per monomial), and a state is entangled exactly when some edge
couples two or more qubits.  Converting a function to its hypergraph
goes through the full subset-lattice transform, so the easy edge test
does not shortcut the hard decision problem.
"""

from __future__ import annotations

from typing import Optional

from .boolfn import (
    MAX_N,
    BooleanFunction,
    Hypergraph,
    ParseError,
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
    lines = [f"c {h.constant_bit}"]
    lines.extend(" ".join(map(str, edge)) for edge in h.edges)
    return "\n".join(lines) + "\n"


def parse_anf_text(
    text: str, vertex_count: Optional[int] = None, max_n: int = MAX_N
) -> Hypergraph:
    """Parse the text format back into a hypergraph.

    The format does not carry the vertex count; it is inferred as one past
    the largest mentioned vertex unless given explicitly (required for
    edge-free input).  A vertex count above `max_n` is refused before the
    coefficients are packed.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "c" or header[1] not in ("0", "1"):
        raise ParseError(f"expected 'c 0' or 'c 1' header, got {lines[0]!r}")
    edges: set[frozenset[int]] = set()
    for line in lines[1:]:
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
    inferred = 1 + max((max(edge) for edge in edges), default=-1)
    if vertex_count is None:
        if inferred == 0:
            raise ParseError("vertex count cannot be inferred from an edge-free input")
        vertex_count = inferred
    elif vertex_count < inferred:
        raise ParseError(
            f"monomials reach vertex {inferred - 1}, beyond vertex count {vertex_count}"
        )
    check_arity(vertex_count, max_n)
    masks = [sum(1 << v for v in edge) for edge in edges]
    return Hypergraph(vertex_count, pack_bits(masks, 1 << vertex_count) | int(header[1]))


def hypergraph_to_json(h: Hypergraph) -> dict:
    """JSON-ready dict: {"n": ..., "c": 0|1, "edges": [[...], ...]}."""
    return {
        "n": h.vertex_count,
        "c": h.constant_bit,
        "edges": [list(edge) for edge in h.edges],
    }
