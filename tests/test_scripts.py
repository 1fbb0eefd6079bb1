import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_word_vs_factor_little_counts(child_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "word_vs_factor_little.py"), "-n", "3", "--max-length", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    assert "factor-tuple instances: 243" in lines
    assert "with a matching word-level run: 216" in lines

