"""Golden corpus for the command line: exit code, stdout digest and stderr
of a fixed set of invocations, pinned byte for byte.

Every subcommand appears in text and --json form, together with the
README examples, dense n=10, n=12, n=14 and n=16 tables, ANF text input
(up to n=24, dense at n=12) and the common error paths, among them input
above the arity cap of 24.  ANF text rows pin which error wins
when several lines are faulty, vertices spelled in other ways that `int`
reads (`007`, `+3`, `1_0`), other separators (tab, CRLF, form feed) and
a 5,000-digit vertex.  Rows above the 2**18-entry block size pin ANF
output at n=20 and n=22, `dj` at n=20 and n=22, `sat-quantum` at n=19,
n=20 and n=22, and compiled formulas and DIMACS at n=22 and n=24; `sat`,
`dj`, `sat-quantum` and `helstrom` answer at the cap, n=24.  One library
digest pins the verdict, witness and trace of both SAT pipelines on every
function with n <= 3, another pins the published JSON schemas, and one
digest per script pins its stdout.  A refactor of the library must leave
every row unchanged.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pilme import cli
from pilme.boolfn import BooleanFunction
from pilme.quantum_sim import algorithm1_end_to_end
from pilme.reductions import turing_reduce_sat
from pilme.schemas import SCHEMAS

from oracles import serialize_dimacs

ROOT = Path(__file__).resolve().parent.parent

# A fixed, dense 1024-entry table: four chained SHA-256 blocks.
_blocks = [hashlib.sha256(b"pilme golden n=10").digest()]
while len(_blocks) < 4:
    _blocks.append(hashlib.sha256(_blocks[-1]).digest())
DENSE10 = b"".join(_blocks).hex()
# The same for 4096 entries: sixteen chained blocks.
_blocks = [hashlib.sha256(b"pilme golden n=12").digest()]
while len(_blocks) < 16:
    _blocks.append(hashlib.sha256(_blocks[-1]).digest())
DENSE12 = b"".join(_blocks).hex()
# The same for 16384 entries: sixty-four chained blocks.
_blocks = [hashlib.sha256(b"pilme golden n=14").digest()]
while len(_blocks) < 64:
    _blocks.append(hashlib.sha256(_blocks[-1]).digest())
DENSE14 = b"".join(_blocks).hex()
# The same for 65536 entries: 256 chained blocks.
_blocks = [hashlib.sha256(b"pilme golden n=16").digest()]
while len(_blocks) < 256:
    _blocks.append(hashlib.sha256(_blocks[-1]).digest())
DENSE16 = b"".join(_blocks).hex()

DIMACS_CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
HEX10 = ["--format", "table-hex", DENSE10, "--n", "10"]
HEX12 = ["--format", "table-hex", DENSE12, "--n", "12"]
HEX14 = ["--format", "table-hex", DENSE14, "--n", "14"]
HEX16 = ["--format", "table-hex", DENSE16, "--n", "16"]
D1 = ["--format", "table-hex", "d1", "--n", "3"]
# p0 is printed to 17 digits, so these pin that the simulator's p0 is exact:
# constant 1, and balanced but not affine (the lower half of DENSE10, then
# its complement; the ANF has degree 8).
_low10 = bytes.fromhex(DENSE10[:128])
ONES10 = ["--format", "table-hex", "ff" * 128, "--n", "10"]
BALANCED10 = ["--format", "table-hex", (_low10 + bytes(b ^ 0xFF for b in _low10)).hex(), "--n", "10"]
ZEROS12 = ["--format", "table-hex", "00" * 512, "--n", "12"]
# Above the block edge, compile runs on 16 and 64 blocks: a seeded 3-CNF
# at clause ratio 4.26, and formulas whose operators each see a variable
# above x18 on one side or both.
_rng = random.Random(22)
CNF22 = serialize_dimacs(
    22, [[v if _rng.random() < 0.5 else -v for v in _rng.sample(range(1, 23), 3)] for _ in range(94)]
)
FORMULA22 = "x1 ^ x9 ^ x19 ^ x22 ^ x2 & x20 & !x21 | (x3 -> x21) & (x18 <-> !x22)"
FORMULA24 = "x1 ^ x12 ^ x20 ^ x24 ^ x5 & x19 & !x23 | x2 & (x22 <-> x4) & (x24 -> x17) | x23 & !x23"
# ANF text at n = 24 whose edges reach every byte of a vertex mask, one of
# them spanning all three, and one edge of size 5 above vertex 15.
ANF24 = "c 1\n0 23\n16 17 18 19 20\n3 9 21\n22\n5 16 23\n2 7 8 15 16 23\n1 2\n"
# Dense ANF text at n = 12: a seeded half of all 4,095 monomials, in a
# shuffled line order, so the parser's output order is pinned too.
_rng = random.Random(12)
_masks = [m for m in range(1, 1 << 12) if _rng.getrandbits(1)]
_rng.shuffle(_masks)
ANF12 = "c 0\n" + "".join(" ".join(str(v) for v in range(12) if m >> v & 1) + "\n" for m in _masks)
# A vertex written with 5,000 digits, beyond Python's int conversion limit.
HUGE_VERTEX = "9" * 5000

# (argv, stdin)
CASES = [
    (["classify", "x1 & x2"], None),
    (["classify", "x1 & x2", "--json"], None),
    (["state", *D1], None),
    (["state", *D1, "--json"], None),
    (["state", "x1 ^ x2", "--amplitudes"], None),
    (["state", "x1 ^ x2", "--amplitudes", "--json"], None),
    (["state", "x1"], None),
    (["separable", *D1], None),
    (["separable", *D1, "--json"], None),
    (["separable", "x1 ^ x2"], None),
    (["separable", "x1 ^ x2", "--json"], None),
    (["separable", "!x1 ^ x3", "--json"], None),
    (["anf", *D1], None),
    (["anf", *D1, "--json"], None),
    (["hypergraph", "x1 & x2"], None),
    (["hypergraph", "x1 & x2", "--json"], None),
    (["reduce-karp", "x1 & x2"], None),
    (["reduce-karp", "x1 & x2", "--json"], None),
    (["sat", "--format", "dimacs", "-"], DIMACS_CONTRADICTION),
    (["sat", "--format", "dimacs", "-", "--json"], DIMACS_CONTRADICTION),
    (["sat", "x1 | x2"], None),
    (["sat", "x1 ^ x2", "--json"], None),
    (["sat-quantum", "x1 | x2"], None),
    (["sat-quantum", "x1 | x2", "--json"], None),
    (["sat-quantum", "x1 & !x1", "--json"], None),
    (["sat-quantum", "x1 ^ x2"], None),
    (["sat", "x1 | !x1", "--json"], None),
    (["dj", "x1 ^ x2 ^ x3"], None),
    (["dj", "x1 ^ x2 ^ x3", "--json"], None),
    (["helstrom", "--unique-sat-pair", "--n", "2"], None),
    (["helstrom", "--unique-sat-pair", "--n", "2", "--json"], None),
    (["helstrom", "--unique-sat-pair", "--n", "5", "--copies", "3", "--json"], None),
    (["verify", "--n", "2"], None),
    (["verify", "--n", "3", "--json"], None),
    # dense n=10 table through the table-walking commands
    (["classify", *HEX10, "--json"], None),
    (["state", *HEX10], None),
    (["state", *HEX10, "--amplitudes", "--json"], None),
    (["separable", *HEX10], None),
    (["anf", *HEX10], None),
    (["anf", *HEX10, "--json"], None),
    (["hypergraph", *HEX10, "--json"], None),
    (["reduce-karp", *HEX10, "--json"], None),
    (["sat", *HEX10], None),
    (["sat-quantum", *HEX10, "--json"], None),
    # ANF text input
    (["hypergraph", "--format", "anf", "c 1\n0 1\n2\n"], None),
    (["anf", "--format", "anf", "c 0\n0 1 2\n1\n", "--json"], None),
    (["state", "--format", "anf", "c 1\n0\n1\n", "--amplitudes"], None),
    (["separable", "--format", "anf", "c 1\n0\n1\n", "--json"], None),
    (["anf", "--format", "anf", "c 1", "--n", "3"], None),
    # error paths, and two inputs at their arity's limit that answer: the
    # cap bounds the input, not f AND y or the simulator register
    (["sat", "x24"], None),
    (["reduce-karp", "x23"], None),
    (["classify", "x1 &"], None),
    (["classify", "x25"], None),
    (["classify", "x1", "--n", "25"], None),
    (["dj", "x1 & x2"], None),
    (["state", "--format", "table-hex", "zz", "--n", "3"], None),
    (["anf", "--format", "anf", "c 0\n0 1\n1 0\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n1 1\n"], None),
    (["anf", "--format", "anf", "c 1"], None),
    (["anf", "--format", "anf", "c 0\n0 30\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n1 1000000000000\n", "--json"], None),
    (["sat-quantum", "x21"], None),
    # simulator arithmetic: p0 printed to 17 digits, exactly 1 and 0
    (["dj", *ONES10, "--json"], None),
    (["dj", *BALANCED10, "--json"], None),
    (["sat-quantum", *ZEROS12, "--json"], None),
    # ANF text given a vertex count above the cap: --n is refused first
    (["anf", "--format", "anf", "c 1", "--n", "25"], None),
    # above the 2**18-entry block edge: the Moebius transform on several blocks
    (["anf", "x1 & x3 | x2 ^ x20", "--n", "20"], None),
    (["hypergraph", "--format", "anf", "c 1\n0 21\n3 7 12\n5\n1 2 3 4\n10 20\n8 9 15 21\n", "--json"], None),
    # the cap bounds the reduce-karp image, and refuses a DIMACS header above it
    (["reduce-karp", "x24", "--n", "24"], None),
    (["sat", "--format", "dimacs", "-"], "p cnf 25 1\n1 -25 0\n"),
    (["classify", "--format", "dimacs", "-"], "p cnf 25 1\n1 0\n"),
    # a dense n=12 hypergraph: about 2,000 edges, so the edge order is pinned
    (["anf", *HEX12], None),
    (["hypergraph", *HEX12, "--json"], None),
    # the simulator at n = 19 and 20: both DJ outcomes read from the
    # all-zeros amplitude, and both sat-quantum endings
    (["dj", "x1 ^ x20", "--n", "20"], None),
    (["dj", "x1 | !x1", "--n", "20", "--json"], None),
    (["sat-quantum", "x19 ^ x20", "--n", "20", "--json"], None),
    (["sat-quantum", "x1 & !x1", "--n", "19"], None),
    # the pipeline endings not pinned above: the ancilla reading 1 on a
    # tautology, and the conjoined-oracle ending in text
    (["sat-quantum", "x1 | !x1"], None),
    (["sat-quantum", "x1 | !x1", "--json"], None),
    (["sat", "x1 ^ x2"], None),
    # formulas and DIMACS compiled above the block edge
    (["sat", "--format", "dimacs", "-"], CNF22),
    (["separable", "--format", "dimacs", "-", "--json"], CNF22),
    (["classify", FORMULA22, "--n", "22"], None),
    (["classify", FORMULA24, "--n", "24", "--json"], None),
    (["reduce-karp", FORMULA22, "--n", "22", "--json"], None),
    (["reduce-karp", FORMULA24, "--n", "24"], None),
    # ANF text in, ANF text out at n = 24, with and without edges
    (["anf", "--format", "anf", ANF24], None),
    (["hypergraph", "--format", "anf", ANF24, "--json"], None),
    (["hypergraph", "--format", "anf", ANF24], None),
    (["anf", "--format", "anf", "c 1", "--n", "24"], None),
    # a dense n=14 hypergraph: about 8,000 edges in text form
    (["anf", *HEX14], None),
    # ANF input refused by the option checks: a vertex beyond --n, empty
    # input, and --n out of range
    (["hypergraph", "--format", "anf", "c 0\n0 3\n", "--n", "2"], None),
    (["anf", "--format", "anf", ""], None),
    (["hypergraph", "--format", "anf", "c 0\n0 1\n", "--n", "0"], None),
    # dense ANF text in, both commands
    (["anf", "--format", "anf", ANF12], None),
    (["hypergraph", "--format", "anf", ANF12, "--json"], None),
    # ANF text with several faults: the first faulty line wins, and within a
    # line a bad token beats a negative vertex, which beats a repeat
    (["anf", "--format", "anf", "c 0\n0 1\n1 0\n2 x\n"], None),
    (["anf", "--format", "anf", "c 0\n0 2\n3 x\n2 0\n"], None),
    (["anf", "--format", "anf", "c 0\n1 2\n-4 3 3\n"], None),
    (["anf", "--format", "anf", "c 0\n3 3 -4\n"], None),
    (["anf", "--format", "anf", "c 0\n-1 x\n"], None),
    (["anf", "--format", "anf", "c 0\n2 2\n0 30\n"], None),
    (["anf", "--format", "anf", "c 0\n0 30\n1 y\n"], None),
    (["anf", "--format", "anf", "c 0\n1 1000000000000\n2 1\n1 2\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n0 40\n40 0\n", "--json"], None),
    (["anf", "--format", "anf", "c 0\n7 1\n007 1\n"], None),
    (["anf", "--format", "anf", "c 0\n1 +1\n"], None),
    # non-canonical spellings of valid vertices, and other line separators
    (["anf", "--format", "anf", "c 0\n007 1\n+3\n1_0 2\n-0 4\n"], None),
    (["hypergraph", "--format", "anf", "c\t1\n0\t2\n1 \t 3\n", "--json"], None),
    (["anf", "--format", "anf", "c 1\r\n0 1\r\n2\r\n"], None),
    (["anf", "--format", "anf", "c 0\n0\f1 2\n"], None),
    (["anf", "--format", "anf", "c 0\n٣ 1\n"], None),
    (["anf", "--format", "anf", "c 0\n05 1\n", "--n", "3"], None),
    # a vertex at the cap and beyond it
    (["hypergraph", "--format", "anf", "c 1\n23\n0 23\n", "--json"], None),
    (["anf", "--format", "anf", "c 0\n24\n"], None),
    (["anf", "--format", "anf", "c 0\n23\n"], None),
    (["anf", "--format", "anf", "c 0\n0 24\n"], None),
    # a 5,000-digit vertex, alone and after a valid line
    (["anf", "--format", "anf", f"c 0\n{HUGE_VERTEX}\n"], None),
    (["hypergraph", "--format", "anf", f"c 0\n1 2\n{HUGE_VERTEX} 1 1\n", "--json"], None),
    # at the cap: the second oracle call on the 25-ary f AND y, the
    # simulator on a 25-qubit register, and the pair's popcount overlap
    (["sat", "x1 ^ x24", "--n", "24", "--json"], None),
    (["dj", "x1 ^ x24", "--n", "24"], None),
    (["helstrom", "--unique-sat-pair", "--n", "24", "--json"], None),
    # separable on ANF text: dense and entangled at n = 12, sparse at n = 24,
    # a product and an edge-free hypergraph at n = 24, and a faulty line,
    # whose parse error wins over any answer
    (["separable", "--format", "anf", ANF12], None),
    (["separable", "--format", "anf", ANF12, "--json"], None),
    (["separable", "--format", "anf", ANF24], None),
    (["separable", "--format", "anf", ANF24, "--json"], None),
    (["separable", "--format", "anf", "c 1\n0\n23\n"], None),
    (["separable", "--format", "anf", "c 1\n0\n23\n", "--json"], None),
    (["separable", "--format", "anf", "c 0", "--n", "24"], None),
    (["separable", "--format", "anf", "c 0", "--n", "24", "--json"], None),
    (["separable", "--format", "anf", "c 1\n0\n23\n5 5\n", "--json"], None),
    # the edge test at n = 24 on a product, on an edge-free hypergraph, and
    # on ANF24 with one vertex spelled `02`
    (["hypergraph", "--format", "anf", "c 1\n0\n23\n"], None),
    (["hypergraph", "--format", "anf", "c 1\n0\n23\n", "--json"], None),
    (["hypergraph", "--format", "anf", "c 0", "--n", "24", "--json"], None),
    (["hypergraph", "--format", "anf", ANF24.replace("\n1 2\n", "\n1 02\n"), "--json"], None),
    # the simulator on its own register width: every sat-quantum stage at the
    # cap, the product test settling at n = 22, and a balanced DJ at n = 22
    (["sat-quantum", "x1 & !x1", "--n", "24", "--json"], None),
    (["sat-quantum", "x3 & x7", "--n", "22"], None),
    (["dj", "x2 ^ x22", "--n", "22", "--json"], None),
    # a dense n=16 hypergraph: about 32,000 edges in text form, both commands
    (["anf", *HEX16], None),
    (["hypergraph", *HEX16], None),
    # coupling edges at n = 24 read off the coefficients: below the top
    # single-vertex edge {23}, which is cleared before the read stops, and
    # at the top level, where the certificate's m is 2**22
    (["separable", "--format", "anf", "c 0\n0 1\n23\n"], None),
    (["separable", "--format", "anf", "c 0\n0 1\n23\n", "--json"], None),
    (["hypergraph", "--format", "anf", "c 0\n0 1\n23\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n0 1\n23\n", "--json"], None),
    (["separable", "--format", "anf", "c 1\n3\n22 23\n"], None),
    (["separable", "--format", "anf", "c 1\n3\n22 23\n", "--json"], None),
    (["hypergraph", "--format", "anf", "c 1\n3\n22 23\n"], None),
    (["hypergraph", "--format", "anf", "c 1\n3\n22 23\n", "--json"], None),
]

# (exit code, SHA-256 of stdout, stderr), one row per case, in order.
EXPECTED = [
    (0, 'ba22806fb5d386574633c76b69dcd4d46bdd35df2ecb171fb20fe3b4d6e0d251', ''),
    (0, '64cb2dd8a6735b72cec537880980161c96cea25071de5ce24046ed50c8e1bae9', ''),
    (0, 'bd0095d30c76fb62035b8832378333be2db1370b4869de8cba88b9cc8922a065', ''),
    (0, '08d28d0836fe115371f0c22490e63829c24df29680d1095a41b0487e6eb53d9d', ''),
    (0, 'e83d07617217b526a322977d5088efc99bf81a35d7a13abc8cd2108eaf3d8888', ''),
    (0, '218b125ac2e1b2f034ceb8e9dcd5c98dd82e0cab7083126633be13359f6ea151', ''),
    (0, 'ed80b2f0995dcdfdd0bf68ae5749eb1f5e44976bfbbf2900f26d2dac05bc4a54', ''),
    (0, 'a20f8099d3e2ffb128526a179f308c8bc99eb659900f5fc14b2e32ade1530433', ''),
    (0, '805a7ef5ab4497ba25c6654d37d0be1c09e62c6c4376edf83cb05a652871786f', ''),
    (0, '1a45f509e5f7b1ca1688737864c0df63131b2b0e2ede435f297a01699dcd66f1', ''),
    (0, 'e0f23ff3ae6fe2d1f64a65946c23f73c70dd20bb42abd252d9623c229cb352b8', ''),
    (0, 'd587db917fb37ac0a22e2550caae79e67c1340d262a2ceec2608d9ad81d179da', ''),
    (0, '289cfc648bc3d57c69d67376a0976baf350f2c06e6e797ce2571a10a2a2accfd', ''),
    (0, 'd632d898df3a998d381c136080f03c39d041c054de2aad32bf35b0e3cecb5e89', ''),
    (0, '7b45cfc88868fe52c660cf49647ba69099992e1758e7b464068e8ff1afe153bd', ''),
    (0, 'c1eb5834fd6467943bba8064d0aa72fc274dbdf937af703143544a9dc94787a3', ''),
    (0, 'f0bd88d4e2adba49419ea73ec5a9215da3fda6ac4ca86e473752a17c45ebee8c', ''),
    (0, 'e286ef58b5496aeb2bcc4d69ea9d9ceec5386b2aa4e8efd8763135d924fbb2e9', ''),
    (0, '7ef3e876d74a3c5952fbf308e77ef201aa1cafef91ac1fe84a8548f7abc66d8a', ''),
    (0, '24f2b0fe027839d1887fc00e4467942f14c8a314d7afa39768e0c9f3080b244b', ''),
    (0, '1bda034b93be7dff533c0b4ee1130af6269991d5bd9b84ecced1b0a8893a5ad7', ''),
    (0, 'dba6eb9128c5e0509882745377b668df4aaf4f90d5efe883df8c683704e38ad0', ''),
    (0, '9686c5448c1975487d31d8c1abbb036b3306ca0eaa94c77da1abc5c85a495628', ''),
    (0, 'bb88491cd2640d25b413a280aaf8b135841c9e916f4bf0d8c619dd009f3e4acd', ''),
    (0, '900aed2476e5f9f64ddc572ab6af234c3e5c093fb8f1921de2c228ae0b661ec9', ''),
    (0, '8436dbfb5893ae8df2c0e16886604422a18c987f9f345b530b378ec087ebf98a', ''),
    (0, '4a8c9622a6416d939caf06707f9a08e57be971a003686cb42c2bc772e9779fda', ''),
    (0, 'c8fad9c8a21730d9a021288fc5ae14cf86a7e90e212775200d838b0069da20e6', ''),
    (0, '2e834a7fe10f2c6d87e6c33a5adbec048a6d744fb9b27c36620de24938754a84', ''),
    (0, 'f2edea9699322982b2bcf8372778415dddb395721cf2ee23aa33e141e5580018', ''),
    (0, '6a216b43ca84cdf73831c2faa2da5a6f6d3f7ea624ccd4fb21b842a772265859', ''),
    (0, '640ea9b9ecd63e3c0899fcd89413d6c35702244276a5962b5b9cce5a96a23518', ''),
    (0, '3492575036a2405592bd518061ae661022b501a685a1864549e067c5d2f713ca', ''),
    (0, '9eb4b9c1adb06dc9a73a9b170a30315f3a971b455d82fa19ab7bbe33f5f035d4', ''),
    (0, 'd034a31bf47b175352313f97c83bc18f0b0413d8fd8e945e9a20dd03b961386c', ''),
    (0, 'd069e293d44330711bfc1e79cbabee463e08abc857cb51455efc8fad47072d1b', ''),
    (0, 'ce4a51707bf97cfb124d92d790473c161c91b94dc446d72c141c77da5604ff85', ''),
    (0, '1554915c2054b0c15b160352753ae150332fc2494667d1fc83de6aa91b12867c', ''),
    (0, 'be1a19ba29364320ef1ac8676c1b928878a096b6a565058bf8b983b440fede9e', ''),
    (0, 'ea819c77f45cbd6d57cd07fad59bfd9f19e4d094677c3090d2ef49895fcb5bb5', ''),
    (0, 'bfb42fcb576d59224fb88189fa67bd163ec06e03ab943d93986bede9048b4485', ''),
    (0, 'cc65d016ed685b2d53892d953e5c97e1ea6d4acf551d3d2ef7f174bf0038c7fd', ''),
    (0, 'a5731fa59ba4df7f38fc06311fe2fbb056a5f635a1423eed5ae58a0a72c6f202', ''),
    (0, '24596bad0f90d29ca696359f541f51f27b4d1b8d80fc43064c79dd94e81a872b', ''),
    (0, '93bf242ef9c7c2c64e1332931eba84eb2aa24b2ed8bfa1f8084c8dfede997791', ''),
    (0, '6261f302930fc5de64a6beee5302c02d58036b8e915e987a77a9c6bcfdbfef26', ''),
    (0, '8171f93e3e08ce2ec75435053b3ee53973479886f1a4c470e13055c49e8c5b6a', ''),
    (0, '10f0a416451dae84f310c67d33e1eddc4a54936a90ad41cbfccaa8c982bba1d2', ''),
    (0, '2801b7e4daf6be82f0891f845777a1f7d0cbaa17163fd1a3074a2b99544c97b1', ''),
    (0, 'cf7a904412fd72babc36d9b8965d07296a230538a697cfd7d8ebcb24148a049c', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 25 exceeds the configured cap 24\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: unexpected end of input (at position 4)\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: variable x25 out of range for arity 24 (at position 0)\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: --n must be between 1 and 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: function is neither constant nor balanced\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: invalid hex table 'zz'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '1 0'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: repeated vertex in monomial '1 1'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: vertex count cannot be inferred from an edge-free input\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 31 exceeds the configured cap 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 1000000000001 exceeds the configured cap 24\n'),
    (0, '396b97824adeb80fe5e4cc879ac0700393f11e1b6eda0bdce4e2edabd4ccea9b', ''),
    (0, '7c4bf621ad0e77d66432b72c6a310b0bcd6c9c96eaada64aa31e37403f6e1ddc', ''),
    (0, '7bb228dbc66d37b2295a88578ec849cff1924a0bd351c73cb312c7a2491b9261', ''),
    (0, '9773a9d5ac173e05ed6239eed4403c2997a70d32b04701946286f2f22aa75ab2', ''),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: --n must be between 1 and 24\n'),
    (0, '1a6e2efc575a66407ba09650e5c739f4834d878f4d49b392c7962659d5db060c', ''),
    (0, 'a6e4e122afa8d7a109b5dab36a82c3d23fc3f42f8200fd78148d381df7f32f5b', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 26 exceeds the configured cap 24\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: DIMACS arity 25 exceeds the configured cap 24\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: DIMACS arity 25 exceeds the configured cap 24\n'),
    (0, '2a49b28396974168ebcad200422dcb443c78981a35ec7498860eae667902c7a4', ''),
    (0, '940d62505ba867c31936886d47727b03a1719d7fd9e61459b19056f6b8e5a4b6', ''),
    (0, 'a00b690153fd7beaa57b30d25f24f923af1917af51d551ef66775e8270d8818f', ''),
    (0, '8cc12d0d73e96782a70e6f43ae3cac9cd58d2f901a47d2572293225bf2d44d30', ''),
    (0, '39ca92bf0d8c385a74c744b344b2f4bccf34d820c162b4214c72b1cbc364ceaf', ''),
    (0, '63cee269b3474816642c16417abf5952527b6a1fe46a931bb1b955f53f9e8f19', ''),
    (0, '6c1de0e93c4b5e1f148d9c2387df0c22981fe8a728424aa7fac856f812a5b170', ''),
    (0, '3e128e4f2eb663ed1a19c66e5b3eac3c97cb47156b948360f167a759aa7330f3', ''),
    (0, '15b13c90f45196e066f111ce29d0b31513dffc4de0360c67bea9cdcb9af51f1b', ''),
    (0, 'a7a94b7d9767cb70c802d90b8952f0cd425bece62f10e98e0cf4a57f84475e1e', ''),
    (0, '1b09eeecc380ea57725a09320a2e2a9090235cac3149f068a13dd837fa311ebd', ''),
    (0, 'ea7e225407b74c5977b6f57b62bb9805ae2f6a4771b1e049194773663f783d66', ''),
    (0, 'c4b6a2f9f49af36472e921aa78566272eb55b1d61a5c7c44b4839fb9451255db', ''),
    (0, 'c4593df22596111387e04aba322541d0ccd2b3efa716946bdc666e42d1c6772f', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 26 exceeds the configured cap 24\n'),
    (0, 'e02614d87727c6f4f397a83df69eaf5dac5190a78706e39a4aebdac31bf62f84', ''),
    (0, '37676303e116836e565bcc1d926854da24bd45acd0f0a6269982a8ee65c8fe51', ''),
    (0, 'c1d91674c70b20c2e04d8e2194b99af9d7c05491950fd71252489c0a24eba019', ''),
    (0, '2801b7e4daf6be82f0891f845777a1f7d0cbaa17163fd1a3074a2b99544c97b1', ''),
    (0, 'b4c8dc0861b72162177f12bed488165d063517e2ba7ac11b83d71d2e248bf158', ''),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: monomials reach vertex 3, beyond vertex count 2\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: empty input\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: --n must be between 1 and 24\n'),
    (0, '72d7c8df3d2355f669b639cb118bbc5199d61080425626f511e0514fab71eee9', ''),
    (0, '9eab2a8f5118075f67a7a564b843bfce3597240989af30973861980a65c2d20a', ''),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '1 0'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: bad monomial line '3 x'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: negative vertex in '-4 3 3'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: negative vertex in '3 3 -4'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: bad monomial line '-1 x'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: repeated vertex in monomial '2 2'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: bad monomial line '1 y'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '1 2'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '40 0'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '007 1'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: repeated vertex in monomial '1 +1'\n"),
    (0, 'c16696ba41d45aeb390f1b828d9a8cd7b77e0070739d3f52ddf5c105351bb26f', ''),
    (0, '9f8e23c45cd0e1200ac64a8b4173dc3876d95fa6c2bce4db3563090386764c24', ''),
    (0, '7bf8b295f775122d7eefa44d9383b890533c501e7ed36bd24f90afb8d7345676', ''),
    (0, '695d62e930641d9dba943d3c196cfbb709b3349382557a837428906dfb48fca4', ''),
    (0, '28bd796afcea1c90208295ca70a1a56e34b83321bb5721afd3bf7b0164760614', ''),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: monomials reach vertex 5, beyond vertex count 3\n'),
    (0, '9e8b25b7631c068841293857ae78122508e092dd3b61965ef13857f8475bdde5', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 25 exceeds the configured cap 24\n'),
    (0, '163ff2170261befb4a118f0f100e69c33cd9f316c761f27dcca89b63a82e7760', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 25 exceeds the configured cap 24\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', f"error: bad monomial line '{HUGE_VERTEX}'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', f"error: bad monomial line '{HUGE_VERTEX} 1 1'\n"),
    (0, '5641a02550fe1d272db3b6fee2ca161af4de54d431790dc392d0185f240c56b2', ''),
    (0, '41c5cf38b9374b9e9551a114e0f17aa2d15f345d1b70d03887ed78cd55678e10', ''),
    (0, 'eecbb0fae2bcd07322533aec66f7c224b645ecb01f58afbb898533b759442e6a', ''),
    (0, '78647995631c3067b1f29301e3cf45fb5f2bde8817e1163a908092e7f1e154a5', ''),
    (0, 'e72f7265555bb293c9fa7e1f63a44504ab51ec6fb7bccf90735f2b4e5154e3ba', ''),
    (0, '47d4e035437e647cd0079fe30bc7e60e2509a51fc5dbafdef30bca19be16cc56', ''),
    (0, '1e9b20ed266ce37f21ccbed502228f133804a25bf8b8164561e9ccd6d58ebbc5', ''),
    (0, '24aafe1a3454ddc7f464211d130a1f5fa982e40fa3cc2ca37e6b7f12557ce375', ''),
    (0, 'fe33c69b72c103b573452dadbbc445128cabcf523c7fc628f1f5194c4594a6c7', ''),
    (0, '659dfe0d59327bda1ace7bf987fc2eab7efff2da4ab4a8273569b6a5f94978f4', ''),
    (0, '6953de5dc475f274f13836dc2d0c54c13e17e56f83e03a00e22af0a42f2390a4', ''),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: repeated vertex in monomial '5 5'\n"),
    (0, 'caef3c7f59988188300fea4025255c66798938584259806f29a635f7c59b30c6', ''),
    (0, 'b236dbf44d42adf46dc2b46052bb6bb0edfe49e099dbcd56a0503f5a205bbc27', ''),
    (0, 'b8acc217d3834da9153ec125de5a485938af0521d320c72d249f832bef81df6b', ''),
    (0, '37676303e116836e565bcc1d926854da24bd45acd0f0a6269982a8ee65c8fe51', ''),
    (0, 'df1145a9543e69d0b4390a72954347db051f9d9f4748a48d7511fa78adff1fee', ''),
    (0, '5e5e7172c8770860a6ce8f6d907845946c3f54e0a801ee4cf7178d5745b22669', ''),
    (0, '8d72c5b93941a28a0b9ff98c7d7412e6d2af13a236629f915d7b825d65bfe6fc', ''),
    (0, 'e0ddc9e506033825d1fb9461081f331c1cc0524a8bbdb36872c3d6d59de7759d', ''),
    (0, 'e85a79879a56399ab559a779a9b555a2bffc3f905db4bae08bf4a53fc6da994c', ''),
    (0, 'cc3353c3542bf222c0258d8d73ca159c8dbcad5bc84d0b2568f60288cf4bf9a9', ''),
    (0, '134af9b12c92d51ad94325e70b16083deb50155fd2c5a54d24e253cddc1894af', ''),
    (0, '266c0b5ba0f7acf3ab82bae4dbdd9674d1b419d63247bb32110e09d63dbdea00', ''),
    (0, '6e090f6a7111ea5d3fd0c9766409e3495ab797451439184147ef0a0d92af45e3', ''),
    (0, '049394cb6883844a362f47f9ad776c2b18bc1c57856ad9ac048d40a6f45f7d00', ''),
    (0, '743bc522d6ddbeff3f92ffe090dc3031a99a5cd23b24bd6c5a8be870e25d62b3', ''),
    (0, '867c15f8e5f04241a50cc66349583f7e76e652a24cf9a24943f320cb8403fd4e', ''),
    (0, '3e3c571bd123485a14563b4180a382055d3b252007cc9eb4aa692f0aced52ea6', ''),
]

# SHA-256 over repr(turing_reduce_sat(f)) then repr(algorithm1_end_to_end(f))
# for the 276 functions with n <= 3, in order of arity and table.
PIPELINE_DIGEST = "730e024416315e8e0a9aa8a93a3b1f9282827937bf3f16ede66988f0b174f432"

# SHA-256 over json.dumps(SCHEMAS, sort_keys=True): the published shape of
# every --json document.
SCHEMAS_DIGEST = "8470bf9a75f67b416259667aa8495ae4f6cc94ea6952cd12ddad814ba9ee75ed"


def _invoke(argv, stdin, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def test_corpus_covers_every_subcommand():
    # The subcommands come from the parser itself, so a new one fails here
    # until the corpus pins it; one that reads input needs a text and a
    # --json row, and every one needs a published schema.
    assert len(EXPECTED) == len(CASES)
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv, _ in CASES} == set(subparsers.choices)
    assert set(SCHEMAS) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        if any(action.dest == "input" for action in sub._actions):
            forms = {"--json" in argv for argv, _ in CASES if argv[0] == name}
            assert forms == {False, True}, name


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(CASES)]
)
def test_cli_output_is_unchanged(index, monkeypatch):
    argv, stdin = CASES[index]
    assert _invoke(argv, stdin, monkeypatch) == EXPECTED[index]


def test_pipeline_verdicts_are_unchanged():
    digest = hashlib.sha256()
    for n in range(1, 4):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            digest.update(repr(turing_reduce_sat(f)).encode())
            digest.update(repr(algorithm1_end_to_end(f)).encode())
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_published_schemas_are_unchanged():
    digest = hashlib.sha256(json.dumps(SCHEMAS, sort_keys=True).encode())
    assert digest.hexdigest() == SCHEMAS_DIGEST


def test_readme_library_block_runs():
    # Run as written, so the documented API cannot drift from the library.
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})


# SHA-256 of each script's stdout.
SCRIPT_STDOUT = {
    "discrimination_gap.py": "c148fb110b23713985d126cb7cb3113ed04f167bc42b54273462e9de7f91e586",
    "ghz_walkthrough.py": "c637a9632035b4272a6c35cb0bef9f8554905312d42ae6f2fd311c0960909c59",
    "product_state_census.py": "06f43650f82a08942a680d87a65892ef201cca75214e34c3a27ee4a09e60ba55",
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SCRIPT_STDOUT[script]
