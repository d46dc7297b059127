"""Boolean functions as bit-packed truth tables.

A function f on n inputs is stored as a single integer whose bit i is
f(i); bit k of the index i is the value of variable x_{k+1}, so variable
indices in formula syntax are 1-based while bit positions are 0-based.
Packing the whole table into one int keeps classification a popcount and
turns the subset-lattice transform into a handful of wide XORs.  Both
table-wide passes, `compile` and the transform behind `anf`/`from_anf`,
work on blocks of 2**18 entries (the low 18 variables) that share one
cached set of projection tables; the higher variables index the blocks.
`compile` runs a formula's flat postfix program once, one bit operation
per instruction: a subterm over the low variables is one block shared by
all blocks, and each higher variable, all ones or 0 in a block, folds.

Everything here is an immutable value and every operation is a pure
function, so tables can be shared freely across threads.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Literal, Optional

# Cap on arity for table-building operations and the command line's
# ceiling; a table at n = 24 occupies 2 MiB.
MAX_N = 24

Kind = Literal["constant0", "constant1", "balanced", "neither"]


class ParseError(ValueError):
    """Input text does not match the expected format."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def check_arity(arity: int, cap: int = MAX_N) -> None:
    """Refuse to build a table wider than the cap."""
    if arity > cap:
        raise ValueError(f"arity {arity} exceeds the configured cap {cap}")


def _check_packed(n: int, bits: int, n_name: str, bits_name: str) -> None:
    if n < 1:
        raise ValueError(f"{n_name} must be at least 1")
    if bits < 0 or bits.bit_length() > (1 << n):
        raise ValueError(f"{bits_name} does not fit in 2**{n_name} bits")


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of f: {0,1}^arity -> {0,1}, packed LSB-first into an int.

    The same value is the sign state of f: bit i set means the coefficient
    of |i> is -1.
    """

    arity: int
    table: int

    def __post_init__(self) -> None:
        _check_packed(self.arity, self.table, "arity", "table")

    @property
    def size(self) -> int:
        """Number of table entries, 2**arity."""
        return 1 << self.arity


@dataclass(frozen=True)
class Hypergraph:
    """XOR polynomial of a Boolean function, seen as a hypergraph.

    Vertices are the input variables 0..vertex_count-1.  Bit S of `coeff`
    is the coefficient of the monomial over the variables in S, so bit 0
    is the constant and every other set bit is an edge.  Every Boolean
    function has exactly one such polynomial, so hypergraphs and truth
    tables are in bijection.
    """

    vertex_count: int
    coeff: int

    def __post_init__(self) -> None:
        _check_packed(self.vertex_count, self.coeff, "vertex_count", "coeff")

    @property
    def constant_bit(self) -> int:
        return self.coeff & 1

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Each edge as its ascending vertices, ordered by size, then
        lexicographically; decoded from `coeff` once per value."""
        # Through a list: a tuple grown from an iterator of unknown length is
        # reallocated as it grows, which fragments the heap of a long run.
        return tuple(list(self._decode_edges(_byte_vertices)))

    @cached_property
    def _edge_masks(self) -> list[int]:
        # The edge masks in the order of `edges`: within one size, vertex
        # tuples compare as the masks' binary digits read from bit 0, reversed.
        masks = _set_bits(self.coeff & ~1)
        masks.sort(key=lambda m: bin(m)[:1:-1], reverse=True)
        masks.sort(key=int.bit_count)
        return masks

    def _decode_edges(self, byte_table: Callable[[int], tuple]) -> Iterator:
        # Each edge in order as byte_table(0)[b0] + byte_table(1)[b1] + ...
        # over the bytes of its mask, lowest first, a column of bytes at a time.
        width = (self.vertex_count + 7) // 8
        raw = b"".join(map(int.to_bytes, self._edge_masks, repeat(width), repeat("little")))
        columns = [map(byte_table(k).__getitem__, raw[k::width]) for k in range(width)]
        return functools.reduce(functools.partial(map, operator.add), columns)


# ---------------------------------------------------------------------------
# Packed bit vectors
#
# A table of 2**n entries is one int.  Code that needs its positions one
# by one goes through these helpers, which walk it a byte at a time
# instead of shifting the whole int once per position.

_BYTE_BITS = tuple(tuple(k for k in range(8) if (byte >> k) & 1) for byte in range(256))
_NONZERO_TO_ONE = bytes([0] + [1] * 255)


def _set_bits(packed: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    find = raw.translate(_NONZERO_TO_ONE).find
    out = []
    i = find(1)
    while i >= 0:
        out.extend(8 * i + k for k in _BYTE_BITS[raw[i]])
        i = find(1, i + 1)
    return out


@functools.cache
def _byte_vertices(k: int) -> tuple[tuple[int, ...], ...]:
    # The vertices 8k..8k+7 that each value of byte k of a vertex mask holds.
    return tuple(tuple(8 * k + j for j in bits) for bits in _BYTE_BITS)


@functools.cache
def _byte_text(k: int) -> tuple[str, ...]:
    # The same vertices as text, each followed by a space.
    return tuple("".join(f"{v} " for v in vertices) for vertices in _byte_vertices(k))


def pack_bits(positions: Iterable[int], size: int) -> int:
    """The int with exactly the given bits set, all below `size`."""
    raw = bytearray((size + 7) // 8)
    for p in positions:
        raw[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(raw, "little")


# ---------------------------------------------------------------------------
# Formulas as flat postfix programs

Program = tuple[tuple[str, int], ...]

# A token, or any other non-space character, which is an error.
_TOKEN_RE = re.compile(r"(x\d+|<->|->|[01()!&^|])|(\S)")

# Binding strength of the binary operators, loosest first.  An entry on
# the parser's pending stack is [strength, op, argc]; "!" binds tighter
# and "(" looser than every binary operator, and the bottom entry looser
# still, so one comparison decides what an incoming token closes.
_BINDING = {"<->": 1, "->": 2, "|": 3, "^": 4, "&": 5}
_NOT, _OPEN, _BOTTOM = 6, 0, -1
# The n-ary operators, with the bit operation that folds two operands.
_FOLD = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token, stray = match.groups()
        if stray:
            raise ParseError(f"unexpected character {stray!r}", match.start())
        tokens.append((token, match.start()))
    return tokens


def parse_formula(text: str, arity: int) -> Program:
    """Parse the infix formula DSL over variables x1..x<arity> into a flat
    postfix program: a tuple of (op, arg) instructions run on a value
    stack.  ("var", k) pushes x_{k+1} (k is the 0-based bit position),
    ("const", v) pushes 0 or 1, ("!", 1) negates the top value, a run of
    one of ``& ^ |`` becomes one ("&" | "^" | "|", m) over its m operands,
    and ("->", 2) / ("<->", 2) combine the top two values.

    Operators, tightest binding first: ``!  &  ^  |  ->  <->``; ``->``
    associates right, the others left.  Constants ``0`` and ``1``;
    parentheses group, to any depth.  Raises ParseError with a character
    position on syntax errors and on out-of-range variables.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    program: list[tuple[str, int]] = []
    pending: list[list] = [[_BOTTOM, None, 0]]
    want_operand = True
    for token, at in _tokenize(text):
        if want_operand:
            if token == "!":
                pending.append([_NOT, "!", 1])
            elif token == "(":
                pending.append([_OPEN, "(", 0])
            elif token in ("0", "1"):
                program.append(("const", int(token)))
                want_operand = False
            elif token[0] == "x":
                digits = token[1:].lstrip("0")
                # Count the digits before int(), which refuses over 4,300 of them.
                if len(digits) > len(str(arity)) or not 1 <= int(digits or "0") <= arity:
                    raise ParseError(f"variable {token} out of range for arity {arity}", at)
                program.append(("var", int(digits) - 1))
                want_operand = False
            else:
                raise ParseError(f"unexpected token {token!r}", at)
            continue
        # An operand is complete: close every pending operator that binds
        # tighter than this token (all of them down to the innermost "("
        # for anything but a binary operator), and "<->" to its own left.
        binding = _BINDING.get(token, _OPEN)
        while pending[-1][0] > binding or pending[-1][1] == token == "<->":
            program.append(tuple(pending.pop()[1:]))
        top = pending[-1]
        if token in _BINDING:
            if token in _FOLD and top[1] == token:
                top[2] += 1
            else:
                pending.append([binding, token, 2])
            want_operand = True
        elif token == ")" and top[1] == "(":
            pending.pop()
        else:
            raise ParseError("expected ')'" if top[1] == "(" else f"unexpected token {token!r}", at)
    if want_operand:
        raise ParseError("unexpected end of input", len(text))
    while pending[-1][0] > _OPEN:
        program.append(tuple(pending.pop()[1:]))
    if pending[-1][1] == "(":
        raise ParseError("expected ')'", len(text))
    return tuple(program)


def max_variable(program: Program) -> int:
    """Largest 1-based variable index in the program, 0 when there is none."""
    return max((arg + 1 for op, arg in program if op == "var"), default=0)


# ---------------------------------------------------------------------------
# DIMACS CNF


def parse_dimacs_clauses(text: str) -> tuple[int, list[list[int]]]:
    """Return (variable_count, clauses) from DIMACS CNF text.

    Comment lines start with ``c``; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated literal lists and may span lines.  A line
    that is exactly ``%`` (the SATLIB end marker) ends the clause list.
    Duplicate literals are kept and the declared clause count is not
    enforced, which matches what solvers accept.
    """
    var_count: Optional[int] = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line == "%":  # SATLIB end marker; what follows is not clauses
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise ParseError("duplicate DIMACS header")
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise ParseError(f"malformed DIMACS header {line!r}")
            try:
                var_count = int(fields[2])
                declared = int(fields[3])
            except ValueError:
                raise ParseError(f"malformed DIMACS header {line!r}") from None
            if var_count < 1 or declared < 0:
                raise ParseError(f"malformed DIMACS header {line!r}")
            continue
        if var_count is None:
            raise ParseError("clause appears before the DIMACS header")
        for token in line.split():
            try:
                literal = int(token)
            except ValueError:
                raise ParseError(f"bad DIMACS literal {token!r}") from None
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                if abs(literal) > var_count:
                    raise ParseError(
                        f"literal {literal} exceeds declared variable count {var_count}"
                    )
                current.append(literal)
    if var_count is None:
        raise ParseError("missing DIMACS header")
    if current:
        raise ParseError("clause is missing its terminating 0")
    return var_count, clauses


def clauses_to_ast(clauses: list[list[int]]) -> Program:
    """Postfix program of the conjunction of the clauses; an empty clause
    is constant false, an empty clause list is constant true."""
    if not clauses:
        return (("const", 1),)
    program: list[tuple[str, int]] = []
    for clause in clauses:
        for literal in clause:
            program.append(("var", abs(literal) - 1))
            if literal < 0:
                program.append(("!", 1))
        if not clause:
            program.append(("const", 0))
        elif len(clause) > 1:
            program.append(("|", len(clause)))
    if len(clauses) > 1:
        program.append(("&", len(clauses)))
    return tuple(program)


# ---------------------------------------------------------------------------
# Table construction and queries


def variable_table(k: int, n: int) -> int:
    """Packed truth table of the projection onto bit k: bit i = bit k of i."""
    if not 0 <= k < n:
        raise ValueError("variable position out of range")
    block = ((1 << (1 << k)) - 1) << (1 << k)
    for span in range(k + 1, n):
        block |= block << (1 << span)
    return block


# Variables per block of `compile` and the Moebius transform.  A 2**18-entry
# block is a 32 KiB int, so a pass's operands stay in the per-core cache (a
# whole n = 24 table is 2 MiB).  Smaller blocks would put more of `compile`
# past a higher variable, where it runs per block, and multiply the
# transform's per-operation interpreter cost by the block count.
_BLOCK_BITS = 18


@functools.cache
def _projections(low: int) -> tuple[int, ...]:
    # x_1..x_low over one block, built once per process for every pass.
    return tuple(variable_table(k, low) for k in range(low))


def _split(packed: int, n: int) -> list[int]:
    # Block j holds the 2**18 entries whose variables above x_18 spell j.
    if n <= _BLOCK_BITS:
        return [packed]
    size = 1 << (_BLOCK_BITS - 3)
    raw = packed.to_bytes(size << (n - _BLOCK_BITS), "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def _join(blocks: list[int]) -> int:
    if len(blocks) == 1:
        return blocks[0]
    size = 1 << (_BLOCK_BITS - 3)
    return int.from_bytes(b"".join(b.to_bytes(size, "little") for b in blocks), "little")


def _binary_steps(program: Program) -> list[tuple[str, int]]:
    # Rewrite each (op, m) fold as m - 1 binary steps, each right after the
    # operand it takes in, so the value stack holds one running value per
    # open fold, not all m operands.  A fold's operands that read no
    # variable above x_18 move first, in order: each is one value for every
    # block, so they combine once.  A stacked entry is a value's steps and
    # whether it is such a shared value.
    stack: list[tuple[list[tuple[str, int]], bool]] = []
    for step in program:
        op, arg = step
        if op in ("var", "const"):
            stack.append(([step], op == "const" or arg < _BLOCK_BITS))
        elif op == "!":
            # Two negations in a row cancel, so "!" * 5000 costs nothing.
            steps = stack[-1][0]
            if steps[-1][0] == "!":
                steps.pop()
            else:
                steps.append(step)
        else:
            operands = stack[-arg:]
            del stack[-arg:]
            if op in _FOLD:
                operands.sort(key=operator.itemgetter(1), reverse=True)
            steps, shared = operands[0]
            for more, more_shared in operands[1:]:
                if len(more) > len(steps):  # copy the shorter list: deep nesting stays cheap
                    more[:0], steps = steps, more
                else:
                    steps += more
                steps.append((op, 2))
                shared = shared and more_shared
            stack.append((steps, shared))
    return stack[-1][0]


def compile(program: Program, arity: int) -> BooleanFunction:
    """Materialize the truth table of a postfix program over the given arity.

    The program runs once, over packed tables, one bit operation per
    instruction, not per assignment.  Above 18 variables a value is one
    2**18-entry block shared by all blocks (built from x_1..x_18 and
    constants only) or a list of one block per setting of the higher
    variables, each of which is a list of the shared blocks all ones and 0.
    Over a list an operand that is all ones, 0 or the other operand folds:
    x&0 = 0, x&1 = x, x|1 = 1, x|0 = x, x^0 = x, !1 = 0, !0 = 1.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    check_arity(arity)
    for op, arg in program:
        if op == "var" and not 0 <= arg < arity:
            raise ValueError(f"variable x{arg + 1} out of range for arity {arity}")
    low = min(arity, _BLOCK_BITS)
    ones = (1 << (1 << low)) - 1
    count = 1 << (arity - low)
    high = ([ones if (j >> s) & 1 else 0 for j in range(count)] for s in range(arity - low))
    variables = _projections(low) + tuple(high)
    units = {"&": (ones, 0), "|": (0, ones), "^": (0, None)}  # (identity, absorbing)

    def combine(op: str, a, b):
        if type(a) is int is type(b):
            return _FOLD[op](a, b)
        unit, zero = units[op]
        return [
            zero if x is zero or y is zero else y if x is unit else x if y is unit
            else (0 if op == "^" else x) if x is y else _FOLD[op](x, y)
            for x, y in zip(*(v if type(v) is list else [v] * count for v in (a, b)))
        ]

    stack: list = []
    for op, arg in _binary_steps(program):
        if op == "var":
            stack.append(variables[arg])
        elif op == "const":
            stack.append(ones if arg else 0)
        else:
            right = ones if op == "!" else stack.pop()
            left = stack[-1]
            if op == "->":
                op, left = "|", combine("^", left, ones)
            elif op == "<->":
                op, right = "^", combine("^", right, ones)
            elif op == "!":
                op = "^"
            # Two shared blocks inline: that is every step at 18 variables or fewer.
            stack[-1] = _FOLD[op](left, right) if type(left) is int is type(right) else combine(op, left, right)
    top = stack[-1]
    return BooleanFunction(arity, _join(top if type(top) is list else [top] * count))


def evaluate(f: BooleanFunction, assignment: int) -> int:
    """f at one point: bit `assignment` of the table."""
    if not 0 <= assignment < f.size:
        raise IndexError(f"assignment {assignment} out of range for arity {f.arity}")
    # A mask of `assignment + 1` bits, not a shift of the whole table.
    return 1 if f.table & (1 << assignment) else 0


@dataclass(frozen=True)
class ClassificationResult:
    kind: Kind
    satisfying_count: int


def classify(f: BooleanFunction) -> ClassificationResult:
    """Constant/balanced/neither verdict from the table popcount."""
    count = f.table.bit_count()
    if count == 0:
        kind: Kind = "constant0"
    elif count == f.size:
        kind = "constant1"
    elif 2 * count == f.size:
        kind = "balanced"
    else:
        kind = "neither"
    return ClassificationResult(kind, count)


# ---------------------------------------------------------------------------
# Algebraic normal form


def _mobius(packed: int, n: int) -> int:
    # Level k XORs each entry with bit k clear into its partner 2**k above:
    # inside each block for the low levels, between blocks j ^ 2**s and j
    # for the high level s.  Self-inverse over GF(2).
    low = min(n, _BLOCK_BITS)
    projections = _projections(low)
    blocks = _split(packed, n)
    for j, b in enumerate(blocks):
        for k, upper in enumerate(projections):
            b ^= (b << (1 << k)) & upper
        blocks[j] = b
    for s in range(n - low):
        for j in range(len(blocks)):
            if (j >> s) & 1:
                blocks[j] ^= blocks[j ^ (1 << s)]
    return _join(blocks)


def anf(f: BooleanFunction) -> Hypergraph:
    """Unique XOR-polynomial of f via the subset-lattice transform.

    Bit S of the transformed table is the coefficient of the monomial
    over the variables in S; cost O(n * 2**n) regardless of how small a
    formula produced the table.  It runs 18 levels inside each 2**18-entry
    block, then one level of whole-block XORs per higher variable.
    """
    return Hypergraph(f.arity, _mobius(f.table, f.arity))


def from_anf(h: Hypergraph) -> BooleanFunction:
    """Truth table of the XOR polynomial; exact inverse of anf."""
    check_arity(h.vertex_count)
    return BooleanFunction(h.vertex_count, _mobius(h.coeff, h.vertex_count))


# ---------------------------------------------------------------------------
# SAT ground truth and gadgets


def sat_brute(f: BooleanFunction) -> Optional[int]:
    """Smallest satisfying assignment by direct table inspection, or None."""
    if f.table == 0:
        return None
    return (f.table & -f.table).bit_length() - 1


def conjoin_fresh(f: BooleanFunction, count: int) -> BooleanFunction:
    """f AND `count` fresh variables appended above the existing ones.

    The satisfying assignments of the result are exactly those of f with
    all fresh variables set, so the satisfying count is preserved while
    the domain grows by a factor of 2**count.
    """
    if count not in (1, 2):
        raise ValueError("count must be 1 or 2")
    arity = f.arity + count
    check_arity(arity)
    return BooleanFunction(arity, f.table << ((1 << arity) - (1 << f.arity)))


# ---------------------------------------------------------------------------
# Hex table format


def to_table_hex(f: BooleanFunction) -> str:
    """Table as lowercase hex of the little-endian packed bytes
    (bit i of byte i//8 is f(i))."""
    nbytes = max(1, f.size // 8)
    return f.table.to_bytes(nbytes, "little").hex()


_SIGN_CHARS = str.maketrans("01", "+-")


def to_sign_string(f: BooleanFunction) -> str:
    """Table as one character per entry, f(0) first: '-' where f is 1."""
    return format(f.table, f"0{f.size}b")[::-1].translate(_SIGN_CHARS)


def from_table_hex(text: str, arity: int) -> BooleanFunction:
    """Parse the hex table format; the arity is required because leading
    zero bits are not recoverable from the bytes."""
    if arity < 1:
        raise ParseError("arity must be at least 1")
    try:
        raw = bytes.fromhex(text.strip())
    except ValueError:
        raise ParseError(f"invalid hex table {text.strip()!r}") from None
    expected = max(1, (1 << arity) // 8)
    if len(raw) != expected:
        raise ParseError(
            f"expected {expected} table byte(s) for arity {arity}, got {len(raw)}"
        )
    table = int.from_bytes(raw, "little")
    if table.bit_length() > (1 << arity):
        raise ParseError("table has bits set beyond 2**arity")
    return BooleanFunction(arity, table)
