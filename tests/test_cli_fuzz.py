"""Fuzz of the command line's exit contract.

For any input text, format and numeric options, every subcommand either
answers with exit 0 and nothing on stderr, or exits 1 (domain error) or 2
(usage or parse error) with exactly one ``error:`` line, and never raises.
The subcommands and their options are read from the parser, so a new
option is fuzzed as soon as it exists.
"""

import argparse
import contextlib
import io
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from pilme import boolfn, cli

# Far outside every valid range, past 2**1024 where an int stops fitting
# in a float, but with small values drawn often enough to reach real work.
NUMBERS = st.integers(-2, 24) | st.integers(-(2**1100), 2**1100)
TEXTS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="x123456789 01()!&^|-<>%cp\n", max_size=40),
    st.binary(min_size=1, max_size=32).map(bytes.hex),
    st.sampled_from(["x1 & x2", "x1 ^ x2 ^ x3", "p cnf 2 1\n1 -2 0\n", "c 1\n0 1\n2\n", "d1", "-", "."]),
    # a variable index of up to 5,000 digits, past int()'s 4,300-digit limit
    st.builds(lambda digit, count: "x" + digit * count, st.sampled_from("0123456789"), st.integers(1, 5000)),
)


def _subcommands() -> dict:
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(_subcommands())))
    argv, positional = [name], []
    for action in _subcommands()[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            positional = ["--", draw(TEXTS)]  # "--": the text may start with "-"
            continue
        if not (action.required or draw(st.booleans())):
            continue
        flag = max(action.option_strings, key=len)
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv.append(f"{flag}={draw(st.sampled_from(action.choices))}")
        else:
            argv.append(f"{flag}={draw(NUMBERS)}")
    return argv + positional


@settings(max_examples=400)
@given(argv=invocations(), stdin=TEXTS)
def test_every_subcommand_answers_or_fails_with_one_error_line(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    # Under a cap of 8, no example builds a table wider than 2**10 entries
    # (reduce-karp adds two variables).
    with mock.patch.object(boolfn, "MAX_N", 8), mock.patch(
        "sys.stdin", io.StringIO(stdin)
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert "Traceback" not in err.getvalue()
