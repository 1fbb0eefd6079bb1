import hashlib
import json
import subprocess
import sys

import pytest

import affsym
import affsym.little
import affsym.words
from affsym.cli import main

FIGURE_LITTLE = ("little", "-n", "5", "-v", "3410321042", "-a", "34102321042", "-i", "5")
SMALL_BIJECTION = ("verify", "-n", "3", "--max-length", "2", "bijection")

# Doubles every reflection sequence the kernel sweeps, so the mark's
# reflection occurs twice as often and the first uniqueness count the
# command reaches fails: the unique insertion of the first re-mark for
# `little`, the strong exchange at the factor walk's entry for `verify`.
DOUBLED_SEQUENCE = """
import sys
import affsym.little, affsym.words
from affsym.cli import main
real = affsym.words.sweep
def doubled(n, letters):
    return real(n, letters) * 2
for module in (affsym.words, affsym.little):
    module.sweep = doubled
if __debug__:
    sys.exit("asserts are on: run with -O")
sys.exit(main(sys.argv[1:]))
"""

# A walk over v = [5,0,2,3] that re-marks four times, across factors.
CROSSING_WALK = (
    "generalized-little", "-n", "4", "-v", "[5,0,2,3]", "-r", "1", "-d", "1/0/3/2/1",
)

# Makes every re-mark, which the kernel reads off the word's record,
# return the position it was asked about, so the factor walk's first
# re-mark lands in the factor that just moved.
SELF_PARTNER = """
import sys
import affsym.little
from affsym.cli import main
affsym.little.partner_index = lambda n, letters, record, i: i
if __debug__:
    sys.exit("asserts are on: run with -O")
sys.exit(main(sys.argv[1:]))
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# covers


def test_covers_with_residue_split(capsys):
    code, out, _ = run_cli(capsys, "covers", "-n", "4", "[-1,1,4,6]", "-r", "2")
    assert code == 0
    assert out.splitlines() == [
        "psi+ [-1,4,1,6] t(2,3)",
        "psi+ [-3,3,4,6] t(2,5)",
        "psi- [1,-1,4,6] t(1,2)",
        "psi- [-1,0,5,6] t(3,6)",
    ]


def test_covers_of_identity(capsys):
    code, out, _ = run_cli(capsys, "covers", "-n", "4", "[1,2,3,4]")
    assert code == 0
    assert len(out.splitlines()) == 4  # the length-one elements


def test_covers_json(capsys):
    code, out, _ = run_cli(capsys, "covers", "-n", "4", "--json", "[-1,1,4,6]", "-r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["plus"] == [{"window": [1, -1, 4, 6], "reflection": [1, 2]}]
    assert {tuple(item["window"]) for item in payload["minus"]} == {
        (-3, 3, 4, 6),
        (-2, 1, 4, 7),
    }


def test_covers_malformed_window_exits_2(capsys):
    code, _, err = run_cli(capsys, "covers", "-n", "4", "[1,2,bogus,4]")
    assert code == 2 and err
    code, _, err = run_cli(capsys, "covers", "-n", "4", "[1,2,3,5]")
    assert code == 2 and err


# ---------------------------------------------------------------------------
# reduced words


def test_reduced_words_output(capsys):
    code, out, _ = run_cli(capsys, "reduced-words", "-n", "3", "[3,2,1]")
    assert code == 0
    assert out.splitlines() == ["121", "212"]


def test_closed_stdout_exits_1_without_a_traceback(child_env):
    # 176,715 bytes of words: more than a pipe holds, so the writer is
    # still writing when the reader closes its end after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "affsym", "reduced-words", "-n", "5", "[-6,2,13,5,1]"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    assert proc.stdout.readline() == b"1210401232104034\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


# ---------------------------------------------------------------------------
# little trace


def test_little_trace_figure(capsys):
    code, out, _ = run_cli(
        capsys, "little", "-n", "5", "-v", "3410321042", "-a", "34102321042", "-i", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "34102321042@5  p=2  q=5"
    assert lines[-1].startswith("34041321041@4")


def test_little_single_step(capsys):
    code, out, _ = run_cli(capsys, "little", "-n", "5", "-v", "", "-a", "0", "-i", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[-1].startswith("4@1")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("little", "-n", "11", "-v", "1", "-a", "1,0", "-i", "2"),
         "1,0@2  p=11  q=12\n1,10@2  p=10  q=11\n"),
        (("generalized-little", "-n", "11", "-v", "[1,2,3,4,5,6,7,8,9,10,11]", "-r", "1",
          "-d", "1"), "0 [0,2,3,4,5,6,7,8,9,10,12]\n"),
    ],
    ids=["little", "generalized-little"],
)
def test_one_letter_words_parse_past_period_ten(capsys, argv, expected):
    # the v of `little` and the factor of `generalized-little` are one letter
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_little_bad_word_reports_the_word_as_typed(capsys):
    code, out, err = run_cli(capsys, "little", "-n", "3", "-v", "12", "-a", "12@1", "-i", "1")
    assert (code, out, err) == (2, "", "error: bad word text '12@1'\n")


def test_little_not_marked_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "little", "-n", "5", "-v", "3410321042", "-a", "34102321042", "-i", "3"
    )
    assert code == 3 and err


def test_little_uniqueness_failure_exits_1(capsys, monkeypatch):
    real = affsym.words.sweep
    for module in (affsym.words, affsym.little):
        monkeypatch.setattr(module, "sweep", lambda n, letters: real(n, letters) * 2)
    code, out, err = run_cli(capsys, *FIGURE_LITTLE)
    assert (code, out) == (1, "")
    assert err.startswith("internal error: insertion uniqueness failed")


def test_little_uniqueness_failure_exits_1_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DOUBLED_SEQUENCE, *FIGURE_LITTLE],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal error: insertion uniqueness failed")


def test_bijection_uniqueness_failure_exits_1(capsys, monkeypatch):
    # the factor walk's first strong-exchange lookup sees t twice
    real = affsym.words.sweep
    for module in (affsym.words, affsym.little):
        monkeypatch.setattr(module, "sweep", lambda n, letters: real(n, letters) * 2)
    code, out, err = run_cli(capsys, *SMALL_BIJECTION)
    assert (code, out) == (1, "")
    assert err.startswith("internal error: strong exchange uniqueness failed")


def test_bijection_uniqueness_failure_exits_1_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DOUBLED_SEQUENCE, *SMALL_BIJECTION],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal error: strong exchange uniqueness failed")


def test_little_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "little", "-n", "5", "--json",
        "-v", "3410321042", "-a", "34102321042", "-i", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["word"] for row in payload["rows"]] == [
        "34102321042",
        "34101321042",
        "34101321041",
        "34001321041",
        "34041321041",
    ]
    assert [row["mark"] for row in payload["rows"]] == [5, 11, 3, 4, 4]
    assert payload["rows"][0]["p"] == 2 and payload["rows"][0]["q"] == 5


# ---------------------------------------------------------------------------
# generalized little


def test_generalized_little_command(capsys):
    # single factor {2,3} over v = w({3}) = s_3; the cover reflection is t(2,3)
    code, out, _ = run_cli(
        capsys, "generalized-little", "-n", "5", "-v", "[1,2,4,3,5]", "-r", "2",
        "-d", "23",
    )
    assert code == 0
    assert out == "13 [2,1,4,3,5]\n"


@pytest.mark.parametrize(
    "decomposition,expected",
    [("1/0/3/2/1", "0/3/2/1/0 [-1,0,2,9]\n"), ("013/12", "023/01 [-1,0,2,9]\n")],
)
def test_generalized_little_walk_across_factors(capsys, decomposition, expected):
    code, out, _ = run_cli(capsys, *CROSSING_WALK[:-1], decomposition)
    assert (code, out) == (0, expected)


def test_generalized_little_remark_in_moved_factor_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(affsym.little, "partner_index", lambda n, letters, record, i: i)
    code, out, err = run_cli(capsys, *CROSSING_WALK)
    assert (code, out) == (1, "")
    assert err.startswith("internal error: re-mark landed")


def test_generalized_little_remark_in_moved_factor_exits_1_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_PARTNER, *CROSSING_WALK],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal error: re-mark landed")


def test_generalized_little_bad_cover_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "generalized-little", "-n", "5", "-v", "[1,2,3,4,5]", "-r", "0",
        "-d", "23",
    )
    assert code == 3 and err


@pytest.mark.parametrize("decomposition", ["11", "1,1", "0/11"])
def test_generalized_little_repeated_letter_in_a_factor_exits_2(capsys, decomposition):
    # a factor is a set of residues: a repeated letter is a typo, not {1}
    code, out, err = run_cli(
        capsys, "generalized-little", "-n", "3", "-v", "[1,2,3]", "-r", "1",
        "-d", decomposition,
    )
    factor = decomposition.split("/")[-1]
    assert (code, out, err) == (2, "", f"error: factor {factor!r} repeats a letter\n")


# ---------------------------------------------------------------------------
# tables and expansion


def test_stanley_table_command(capsys):
    code, out, _ = run_cli(capsys, "stanley-table", "-n", "3", "[3,2,1]")
    assert code == 0
    assert out.splitlines() == ["1,1,1: 2", "2,1: 1"]


def test_stanley_table_json(capsys):
    code, out, _ = run_cli(capsys, "stanley-table", "-n", "3", "--json", "[3,2,1]")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 3,
        "degree": 3,
        "window": [3, 2, 1],
        "coefficients": {"1,1,1": 2, "2,1": 1},
    }


def test_expand_command(capsys):
    code, out, _ = run_cli(capsys, "expand", "-n", "4", "[-1,4,1,6]")
    assert code == 0
    assert out.splitlines() == ["2,1,1: 1", "2,2: 1"]


def test_expand_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "affsym", "expand", "-n", "4", "[-1,4,1,6]"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2,1,1: 1\n2,2: 1\n", "")


def test_verify_under_optimize_matches_plain_run(child_env):
    argv = ["-m", "affsym", "verify", "-n", "3", "--max-length", "2", "all"]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *argv], capture_output=True, text=True, env=child_env
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert plain.stdout.endswith("all checks passed\n")


def test_expand_grassmannian_unit(capsys):
    code, out, _ = run_cli(capsys, "expand", "-n", "4", "[-2,1,4,7]")
    assert code == 0
    assert out.splitlines() == ["2,1,1: 1"]


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "-n", "4", "--json", "[-1,4,1,6]")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {"2,1,1": "1", "2,2": "1"}
    assert payload["degree"] == 4


# ---------------------------------------------------------------------------
# verify


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2", "--max-length", "3", "all")
    assert code == 0
    assert "all checks passed" in out


def test_verify_garsia_little(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "3", "--max-length", "2", "garsia-little")
    assert code == 0
    assert out.splitlines()[0].startswith("garsia-little:")


def test_verify_zero_length_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "4", "--max-length", "0", "all")
    assert code == 0
    assert "all checks passed" in out


def test_verify_negative_length_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "-n", "4", "--max-length", "-1", "all")
    assert code == 2 and err


def test_verify_json_deterministic(capsys):
    first = run_cli(capsys, "verify", "-n", "2", "--max-length", "2", "--json", "all")
    second = run_cli(capsys, "verify", "-n", "2", "--max-length", "2", "--json", "all")
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["passed"] is True
    assert set(payload["suites"]) == {
        "garsia-little",
        "chevalley",
        "bijection",
        "exchange-random",
    }


def test_outputs_are_byte_identical(capsys):
    runs = [
        run_cli(capsys, "covers", "-n", "4", "[-1,1,4,6]", "-r", "2") for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", "stanley-table", "-n", "3", "[3,2,1]"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1,1,1: 2", "2,1: 1"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["covers"])
    assert excinfo.value.code == 2


def test_import_loads_no_dataclasses_inspect_or_json(child_env):
    # each costs a cold command milliseconds; json loads only for --json
    heavy = "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import affsym.cli, sys; {heavy}"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_verify_loads_no_fractions_or_decimal(child_env):
    # only expand builds a Fraction, and imports fractions (and with it
    # decimal) when it does
    script = (
        "import contextlib, io, sys, affsym.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = affsym.cli.main(['verify', '-n', '3', '--max-length', '1', 'bijection'])\n"
        "print(status, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


# stdout SHA-256 and exit status of `verify ... all` runs, recorded at
# 9683b22 (before the bijection sweep's round-trip kernel and key-list
# word records); every suite's output must stay byte-identical
VERIFY_GOLDENS = [
    (
        ("-n", "3", "--max-length", "4", "--json", "--seed", "3", "all"),
        "af965d0b92efbe288eb5e90251cd17b45f8874b9d526133ffdf25d47317f6052",
    ),
    (
        ("-n", "5", "--max-length", "1", "--seed", "4", "all"),
        "fb9636a9ac509674fa9e3e2dab13944ed6de98645d81eabf7cc1c0c78f062515",
    ),
]


@pytest.mark.parametrize("args,digest", VERIFY_GOLDENS, ids=[" ".join(a) for a, _ in VERIFY_GOLDENS])
def test_verify_all_matches_recorded_golden(child_env, args, digest):
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", "verify", *args], capture_output=True, env=child_env
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (0, digest)
