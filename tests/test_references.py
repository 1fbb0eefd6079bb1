"""The CLI against the outputs recorded in perfbench/references.json.

The benchmark checks every command it times against those references
(exit status and stdout SHA-256).  These tests run the `verify` command
of the `bijection` workload and a seeded sample of the `expand` windows
in-process, each with cold memos, so that a changed output fails here
before any benchmark run.  The references file is only read.
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import affsym.cli

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
BIJECTION = ("verify", "-n", "4", "--max-length", "4", "bijection")
EXPAND_SEED, EXPAND_SAMPLES = 1, 20


@functools.cache
def references() -> dict:
    return json.loads(REFERENCES.read_text())


def commands() -> list[tuple[str, ...]]:
    """The bijection command, then expand windows drawn by the seed."""
    pool = sorted(key for key in references()["outputs"] if key.startswith("expand "))
    drawn = random.Random(EXPAND_SEED).sample(pool, EXPAND_SAMPLES)
    return [BIJECTION] + [tuple(key.split()) for key in drawn]


def clear_memos() -> None:
    """Empty every memo of a loaded affsym module, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "affsym" or name.startswith("affsym."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_output_matches_recorded_reference(argv):
    clear_memos()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = affsym.cli.main(list(argv))
    recorded = references()["outputs"][" ".join(argv)]
    assert status == recorded["status"] == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded["stdout_sha256"]
