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


def test_positivity_sweep_counts(child_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "positivity_sweep.py"), "-n", "3", "--max-length", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    assert "elements expanded: 19" in lines
    assert "nonzero expansion terms: 22" in lines
    assert "every expansion in range is a nonnegative integer combination" in lines

INEXACT_EXPANSION = """
import runpy, sys
import affsym.stanley
real = affsym.stanley.expand_in_affine_schur
def inexact(w):
    result = real(w)
    result.exact = w.length() < 2
    return result
affsym.stanley.expand_in_affine_schur = inexact
if __debug__:
    sys.exit("asserts are on: run with -O")
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_positivity_sweep_exits_1_on_residual_under_optimize(child_env):
    script = str(SCRIPTS / "positivity_sweep.py")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INEXACT_EXPANSION, script, "-n", "3", "--max-length", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "nonzero expansion residual at [-1,3,4]\n"
