"""Hypergraph view of sign states.

The XOR polynomial of the generating function doubles as a hypergraph
(one edge per monomial), and a state is entangled exactly when some edge
couples two or more qubits.  A truth table reaches its hypergraph only
through the full subset-lattice transform (ANF text is one already), so
the easy edge test does not shortcut the hard decision problem.  Given
the hypergraph, one read of the single-vertex coefficients answers the
edge test (`entangling_edge_exists`) and gives a product's factors, and
one scan of what it leaves, for the lowest coupling edge, gives an
entangled state's four-point certificate (`lme_state.membership_witness`).

Both text and JSON list the edges by size, then lexicographically
(`Hypergraph.edges`).  A dense coefficient (n <= 16) is listed in runs
of one low part (vertices 0-3) and one high-part size, each run one
gather of coefficient bits, high parts as `combinations` lists them,
and one join of cached high-part text; any other one sorts its set bits.
`parse_anf_text` reads the text one line at a time: a vertex written the
way `render_anf_text` writes it maps to its mask bit through one dict,
any other spelling goes through `int`, and the first faulty line decides
the error.  A sparse edge list is kept as parsed, sorted into print
order, so listing it decodes nothing.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

from .boolfn import (
    MAX_N,
    BooleanFunction,
    Hypergraph,
    ParseError,
    _byte_text,
    _sort_edge_masks,
    anf,
    check_arity,
    pack_bits,
)
from .lme_state import entangling_edge_exists

__all__ = [
    "Hypergraph",
    "entangling_edge_exists",
    "hypergraph_of",
    "render_anf_text",
    "parse_anf_text",
    "hypergraph_to_json",
]


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
    if not h._lists_in_runs:
        lines = [f"c {h.constant_bit}", *h._decode_edges(_byte_text)]
        # Each edge's text ends in a space, dropped here in one pass.
        return ("\n".join(lines) + "\n").replace(" \n", "\n")
    # Each run is its line start then its high parts joined by line starts.
    out = [f"c {h.constant_bit}"]
    for _, line_start, highs, flags in h._edge_runs(True):
        if 1 in flags:
            out += line_start, line_start.join(compress(highs, flags))
    out.append("\n")
    return "".join(out)


# Each vertex token as `render_anf_text` writes it, to its bit in an edge mask.
_VERTEX_BITS = {str(v): 1 << v for v in range(MAX_N)}


def _edge_key(line: str, tokens: list[str]) -> tuple[int | frozenset[int], int]:
    # A line read by `int`: its edge mask, or its vertex set if it names
    # vertex MAX_N or more (never shifted), and how many vertices that holds.
    try:
        vertices = [int(token) for token in tokens]
    except ValueError:
        raise ParseError(f"bad monomial line {line!r}") from None
    if min(vertices) < 0:
        raise ParseError(f"negative vertex in {line!r}")
    if max(vertices) >= MAX_N:
        key = frozenset(vertices)
        return key, len(key)
    mask = sum(1 << v for v in vertices)
    return mask, mask.bit_count()


def parse_anf_text(text: str, vertex_count: Optional[int] = None) -> Hypergraph:
    """Parse the text format back into a hypergraph.

    The format does not carry the vertex count; it is inferred as one past
    the largest mentioned vertex unless given explicitly (required for
    edge-free input).  A vertex count above MAX_N is refused before the
    coefficients are packed.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ParseError("empty input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "c" or header[1] not in ("0", "1"):
        raise ParseError(f"expected 'c 0' or 'c 1' header, got {lines[0]!r}")
    # Each line is checked for a bad token, a negative vertex, a repeated
    # vertex, then a repeated monomial.  A line naming vertex MAX_N or more
    # can only end in a cap or vertex count error, raised after every line.
    seen: set[int | frozenset[int]] = set()
    reach = 0  # one past the largest vertex such a line names
    for line in lines[1:]:
        tokens = line.split()
        try:
            key = sum(map(_VERTEX_BITS.__getitem__, tokens))
            size = key.bit_count()
        except KeyError:
            key, size = _edge_key(line, tokens)
            if isinstance(key, frozenset):
                reach = max(reach, 1 + max(key))
        # A repeated vertex carries into a higher mask bit, so the key holds
        # fewer vertices than the line has tokens.
        if size != len(tokens):
            raise ParseError(f"repeated vertex in monomial {line!r}")
        if key in seen:
            raise ParseError(f"duplicate monomial {line!r}")
        seen.add(key)
    inferred = reach or max(seen, default=0).bit_length()
    if vertex_count is None:
        if inferred == 0:
            raise ParseError("vertex count cannot be inferred from an edge-free input")
        vertex_count = inferred
    elif vertex_count < inferred:
        raise ParseError(
            f"monomials reach vertex {inferred - 1}, beyond vertex count {vertex_count}"
        )
    check_arity(vertex_count)
    masks = list(seen)
    graph = Hypergraph(vertex_count, pack_bits(masks, 1 << vertex_count) | int(header[1]))
    if not graph._lists_in_runs:
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
