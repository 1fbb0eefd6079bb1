import importlib
import os
from pathlib import Path

import pytest

import affsym.little
import affsym.verify
import affsym.words

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def child_env():
    """Environment for a child Python that imports affsym from src/, with
    stdout block-buffered on a pipe, Python's default, so output the
    command did not flush is lost."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(path for path in paths if path))


@pytest.fixture
def module_memos():
    """Every module-level lru_cache of affsym, by module.name."""
    found = {}
    for path in sorted((ROOT / "src" / "affsym").glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"affsym.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                found[f"{path.stem}.{value.__name__}"] = value
    return found


@pytest.fixture
def doubled_records(monkeypatch):
    """word_record, in each module that holds it, with every record's
    sequence and keys doubled and its reducedness kept: each reflection
    occurs twice as often, so every uniqueness count fails."""
    real = affsym.words.word_record

    def doubled(n, letters):
        record = real(n, letters)
        return record._replace(sequence=record.sequence * 2, keys=record.keys * 2)

    for module in (affsym.words, affsym.little, affsym.verify):
        monkeypatch.setattr(module, "word_record", doubled)
