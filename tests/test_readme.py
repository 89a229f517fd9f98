"""README's examples keep working: its Quick start block runs, and every
``fkimage`` line of its Command line block parses, with the angles, shapes
and inline elements that the commands read after argparse.  The summary
line README quotes for ``fkimage verify`` counts the suite's checks."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from fkimage import cli, element_from_json, verify

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, language):
    """The first ``language`` code block of README's ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    names = {}
    exec(_block("Quick start", "python"), names)
    half_turn = names["fk"].synthesize(names["basis"], names["half_turn"])
    assert np.allclose(names["image"], half_turn, atol=1e-9)
    assert np.allclose(names["back"], names["glyph"], atol=1e-9)


def _command_lines():
    text = _block("Command line", "bash").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("fkimage ")]


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_examples_parse(argv):
    args = cli.build_parser().parse_args(argv)
    for name in ("theta", "gamma", "chi", "beta"):
        if hasattr(args, name):
            assert np.isfinite(cli.parse_angle(getattr(args, name)))
    shapes = getattr(args, "shape", None) or ()
    for shape in [shapes] if isinstance(shapes, str) else shapes:
        cli.parse_shape(shape)
    for name in ("element", "a", "b"):
        if not getattr(args, name, "@").startswith("@"):
            element_from_json(getattr(args, name))


def test_quoted_verify_summary_counts_the_checks():
    total, known = len(verify._CHECKS), len(verify.KNOWN_LIMITATIONS)
    line = f"{total - known}/{total} checks passed; {known} known limitation(s)"
    assert line in " ".join(README.split())
