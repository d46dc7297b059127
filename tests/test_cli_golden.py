"""Golden corpus for the command line: exit code, stdout digest and stderr
of a fixed set of invocations, pinned byte for byte.

Every subcommand appears in text and --json form, together with the
README examples, dense n=10 and n=12 tables, ANF text input, ANF output at n=20
and n=22 (above the 2**18-entry block size) and the common error paths,
among them input above a lowered --max-n.  A refactor of the library must
leave every row unchanged.
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pilme import cli

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

DIMACS_CONTRADICTION = "p cnf 1 2\n1 0\n-1 0\n"
HEX10 = ["--format", "table-hex", DENSE10, "--n", "10"]
HEX12 = ["--format", "table-hex", DENSE12, "--n", "12"]
D1 = ["--format", "table-hex", "d1", "--n", "3"]
# p0 is printed to 17 digits, so these pin the simulator's float arithmetic:
# constant 1, and balanced but not affine (the lower half of DENSE10, then
# its complement; the ANF has degree 8).
_low10 = bytes.fromhex(DENSE10[:128])
ONES10 = ["--format", "table-hex", "ff" * 128, "--n", "10"]
BALANCED10 = ["--format", "table-hex", (_low10 + bytes(b ^ 0xFF for b in _low10)).hex(), "--n", "10"]
ZEROS12 = ["--format", "table-hex", "00" * 512, "--n", "12"]

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
    # error paths
    (["sat", "x24"], None),
    (["reduce-karp", "x23"], None),
    (["classify", "x1 &"], None),
    (["classify", "x25"], None),
    (["classify", "x1", "--max-n", "30"], None),
    (["dj", "x1 & x2"], None),
    (["state", "--format", "table-hex", "zz", "--n", "3"], None),
    (["anf", "--format", "anf", "c 0\n0 1\n1 0\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n1 1\n"], None),
    (["anf", "--format", "anf", "c 1"], None),
    (["anf", "--format", "anf", "c 0\n0 30\n"], None),
    (["hypergraph", "--format", "anf", "c 0\n1 1000000000000\n", "--json"], None),
    (["sat-quantum", "x21"], None),
    # simulator arithmetic: p0 printed to 17 digits
    (["dj", *ONES10, "--json"], None),
    (["dj", *BALANCED10, "--json"], None),
    (["sat-quantum", *ZEROS12, "--json"], None),
    # ANF text naming a vertex above a lowered --max-n: the error names that cap
    (["anf", "--format", "anf", "c 0\n0 25\n", "--max-n", "10"], None),
    # above the 2**18-entry block edge: the Moebius transform on several blocks
    (["anf", "x1 & x3 | x2 ^ x20", "--n", "20"], None),
    (["hypergraph", "--format", "anf", "c 1\n0 21\n3 7 12\n5\n1 2 3 4\n10 20\n8 9 15 21\n", "--json"], None),
    # a lowered --max-n refuses at the input, and bounds the reduce-karp image
    (["reduce-karp", "x1 & x2", "--max-n", "3"], None),
    (["sat", "--format", "dimacs", "-", "--max-n", "4"], "p cnf 5 1\n1 -5 0\n"),
    (["classify", "x5", "--max-n", "4"], None),
    # a dense n=12 hypergraph: about 2,000 edges, so the edge order is pinned
    (["anf", *HEX12], None),
    (["hypergraph", *HEX12, "--json"], None),
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
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 25 exceeds the configured cap 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 25 exceeds the configured cap 24\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: unexpected end of input (at position 4)\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: variable x25 out of range for arity 24 (at position 0)\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: max_n must be between 1 and 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: function is neither constant nor balanced\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: invalid hex table 'zz'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: duplicate monomial '1 0'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: repeated vertex in monomial '1 1'\n"),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: vertex count cannot be inferred from an edge-free input\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 31 exceeds the configured cap 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 1000000000001 exceeds the configured cap 24\n'),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 21 exceeds the simulator cap 20\n'),
    (0, '874ee867e5302f667c365eb8746f647eb1e02c4141b73346a44fc56593d99e0a', ''),
    (0, '7bb228dbc66d37b2295a88578ec849cff1924a0bd351c73cb312c7a2491b9261', ''),
    (0, '9773a9d5ac173e05ed6239eed4403c2997a70d32b04701946286f2f22aa75ab2', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 26 exceeds the configured cap 10\n'),
    (0, '1a6e2efc575a66407ba09650e5c739f4834d878f4d49b392c7962659d5db060c', ''),
    (0, 'a6e4e122afa8d7a109b5dab36a82c3d23fc3f42f8200fd78148d381df7f32f5b', ''),
    (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: arity 4 exceeds the configured cap 3\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: DIMACS arity 5 exceeds the configured cap 4\n'),
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: variable x5 out of range for arity 4 (at position 0)\n'),
    (0, '2a49b28396974168ebcad200422dcb443c78981a35ec7498860eae667902c7a4', ''),
    (0, '940d62505ba867c31936886d47727b03a1719d7fd9e61459b19056f6b8e5a4b6', ''),
]


def _invoke(argv, stdin, monkeypatch):
    monkeypatch.delenv("PILME_MAX_N", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


def test_corpus_covers_every_subcommand():
    # The subcommands come from the parser itself, so a new one fails here
    # until the corpus pins it; one that reads input needs a text and a
    # --json row.
    assert len(EXPECTED) == len(CASES)
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv, _ in CASES} == set(subparsers.choices)
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
