"""``cli._parse`` answers every argv exactly as argparse does.

``COMMAND FILE`` for a file command is dispatched without building the
parser; every other argv goes through ``build_parser().parse_args``.  This
checks both halves against a freshly built parser: the same Namespace when
the argv parses, and otherwise the same exit code, stdout and stderr.
"""

import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from liemult import cli

PROFILE = settings(derandomize=True, database=None, max_examples=400, deadline=None)

TOKENS = st.one_of(
    st.sampled_from(["info", "multiplier", "classify", "catalog", "verify",
                     "-h", "--help", "--", "-", "-1", "", " ", "é"]),
    st.text(max_size=6),
    st.text(max_size=6).map(lambda t: "-" + t),
)


def _outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of one parse, at a fixed help width."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@PROFILE
@given(st.lists(TOKENS, max_size=4))
@example([])
@example(["info", "x.lie"])
@example(["multiplier", ""])
@example(["classify", "é .lie"])
@example(["info", "-"])
@example(["info", "-1"])
@example(["info", "--", "f"])
@example(["info", "a", "b"])
@example(["info"])
@example(["bogus", "x"])
@example(["--help"])
@example(["verify", "--help"])
def test_parse_matches_argparse(argv):
    expected = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert _outcome(cli._parse, argv) == expected


@pytest.mark.parametrize("command", sorted(cli._FILE_COMMANDS))
def test_file_command_skips_the_parser(monkeypatch, command):
    def unused():
        raise AssertionError("the parser was built")

    monkeypatch.setattr(cli, "build_parser", unused)
    args = cli._parse([command, "x.lie"])
    assert (args.command, args.file, args.func) == (command, "x.lie", cli._FILE_COMMANDS[command][1])


def test_parse_reads_sys_argv_when_argv_is_none(monkeypatch):
    monkeypatch.setattr("sys.argv", ["liemult", "classify", "x.lie"])
    assert cli._parse(None) == cli.build_parser().parse_args(["classify", "x.lie"])
