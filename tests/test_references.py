"""The CLI against the outputs recorded in perfbench/references.json.

The benchmark checks every command it times against those references
(exit status and stdout SHA-256).  These tests run the `verify` command
of the `bijection` workload and a seeded sample of the `expand` windows
in-process, each with cold memos, so that a changed output fails here
before any benchmark run.  The same commands, fewer windows, also run
under each other supported Python that starts here.  The references
file is only read.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import affsym.cli

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
BIJECTION = ("verify", "-n", "4", "--max-length", "4", "bijection")
EXPAND_SEED, EXPAND_SAMPLES = 1, 20
# requires-python is ">=3.10"; the suite itself runs on one interpreter
OTHER_PYTHONS = ("3.10", "3.12", "3.13")


@functools.cache
def references() -> dict:
    return json.loads(REFERENCES.read_text())


def commands(samples=EXPAND_SAMPLES) -> list[tuple[str, ...]]:
    """The bijection command, then expand windows drawn by the seed."""
    pool = sorted(key for key in references()["outputs"] if key.startswith("expand "))
    drawn = random.Random(EXPAND_SEED).sample(pool, samples)
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


def interpreter(version: str) -> str | None:
    """A python<version> that starts: the one on PATH, else one that pyenv
    installed; None if there is none."""
    name = f"python{version}"
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which(name), *sorted(root.glob(f"versions/{version}.*/bin/{name}"))]
    for candidate in filter(None, candidates):
        if subprocess.run([candidate, "-c", "pass"], capture_output=True).returncode == 0:
            return str(candidate)
    return None


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_cli_output_matches_recorded_reference_under_other_pythons(version, child_env):
    python = interpreter(version)
    if python is None:
        pytest.skip(f"no python{version} starts here")
    for argv in commands(samples=3):
        proc = subprocess.run([python, "-m", "affsym", *argv], capture_output=True, env=child_env)
        recorded = references()["outputs"][" ".join(argv)]
        got = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
        assert got == (recorded["status"], recorded["stdout_sha256"]), (python, argv)
