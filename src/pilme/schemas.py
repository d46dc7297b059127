"""JSON schemas for the machine-readable output of every CLI subcommand.

Keyed by subcommand name; validated in the test suite so the published
shapes and the emitted documents cannot drift apart.  Every document, and
every object inside one, is a closed record: exactly its declared fields,
all required except `state.amplitudes`, `helstrom.copies` and
`helstrom.helstrom_error_copies`.
"""

from __future__ import annotations


def _record(properties: dict, optional: tuple = ()) -> dict:
    """A closed object: every field not listed in `optional` is required."""
    return {
        "type": "object",
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
        "properties": properties,
    }


def _nullable(schema: dict) -> dict:
    return {"oneOf": [{"type": "null"}, schema]}


_N = {"type": "integer", "minimum": 1}
_NONNEG = {"type": "integer", "minimum": 0}
_HEX = {"type": "string", "pattern": "^[0-9a-f]+$"}
_SIGNS = {"type": "string", "pattern": "^[+-]+$"}
_KIND = {"enum": ["constant0", "constant1", "balanced", "neither"]}
_SIGN = {"enum": ["+", "-"]}
_BIT = {"enum": [0, 1]}
_EDGES = {
    "type": "array",
    "items": {"type": "array", "items": _NONNEG, "minItems": 1},
}
_P_ERR = {"type": "number", "minimum": 0, "maximum": 0.5}

_TRACE_STEP = _record({
    "step": {"type": "string"},
    "oracle_calls": _NONNEG,
    "verdict": {"enum": ["satisfiable", "unsatisfiable", None]},
    "detail": {"type": "string"},
})

_SAT = _record({
    "n": _N,
    "satisfiable": {"type": "boolean"},
    "witness": _nullable(_NONNEG),
    "trace": {"type": "array", "minItems": 1, "items": _TRACE_STEP},
})

SCHEMAS: dict[str, dict] = {
    "classify": _record({"n": _N, "kind": _KIND, "satisfying_count": _NONNEG}),
    "state": _record(
        {"n": _N, "table_hex": _HEX, "signs": _SIGNS,
         "amplitudes": {"type": "array", "items": {"type": "number"}}},
        optional=("amplitudes",),
    ),
    "separable": _record({
        "n": _N,
        "osm": {"type": "boolean"},
        "decomposition": _nullable(_record({
            "global": _SIGN,
            "factors": {"type": "array", "minItems": 1, "items": _SIGN},
        })),
        "certificate": _nullable(_record({"k": _NONNEG, "l": _NONNEG, "m": _NONNEG})),
    }),
    "anf": _record({"n": _N, "c": _BIT, "edges": _EDGES}),
    "hypergraph": _record({"n": _N, "c": _BIT, "edges": _EDGES, "entangling": {"type": "boolean"}}),
    "reduce-karp": _record({"n": _N, "table_hex": _HEX, "satisfying_count": _NONNEG}),
    "sat": _SAT,
    "sat-quantum": _SAT,
    "dj": _record({
        "n": _N,
        "kind": {"enum": ["constant", "balanced"]},
        "p0": {"type": "number", "minimum": 0, "maximum": 1},
    }),
    "helstrom": _record(
        {"n": _N, "overlap": {"type": "number", "minimum": -1, "maximum": 1},
         "helstrom_error": _P_ERR, "copies": {"type": "integer", "minimum": 1},
         "helstrom_error_copies": _P_ERR},
        optional=("copies", "helstrom_error_copies"),
    ),
    "verify": _record({
        "n": _N,
        "functions": _NONNEG,
        "turing_failures": {"type": "array", "items": _NONNEG},
        "karp_failures": {"type": "array", "items": _NONNEG},
    }),
}
