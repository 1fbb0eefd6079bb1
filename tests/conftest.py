import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def child_env():
    """Environment for a child Python that imports affsym from src/, with
    stdout block-buffered on a pipe, Python's default, so output the
    command did not flush is lost."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(path for path in paths if path))
