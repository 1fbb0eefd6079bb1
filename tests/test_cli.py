import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import affsym
import affsym.cli
import affsym.little
import affsym.verify
from affsym.cli import main
from affsym.group import from_window
from affsym.stanley import ExpansionResult

FIGURE_LITTLE = ("little", "-n", "5", "-v", "3410321042", "-a", "34102321042", "-i", "5")
SMALL_BIJECTION = ("verify", "-n", "3", "--max-length", "2", "bijection")

# Doubles the sequence and keys of every word record, reducedness kept,
# in each module that holds word_record, so the mark's reflection occurs
# twice as often and the first uniqueness count the command reaches
# fails: the unique insertion of the first re-mark for `little`, the
# strong exchange at the factor walk's entry for `verify`.
DOUBLED_SEQUENCE = """
import sys
import affsym.little, affsym.verify, affsym.words
from affsym.cli import main
real = affsym.words.word_record
def doubled(n, letters):
    record = real(n, letters)
    return record._replace(sequence=record.sequence * 2, keys=record.keys * 2)
for module in (affsym.words, affsym.little, affsym.verify):
    module.word_record = doubled
if __debug__:
    sys.exit("asserts are on: run with -O")
sys.exit(main(sys.argv[1:]))
"""

SMALL_POSITIVITY = ("verify", "-n", "3", "--max-length", "3", "positivity")

README = Path(__file__).resolve().parents[1] / "README.md"

# Marks the expansion of every element of length 2 or more inexact, as a
# nonzero residual would.
INEXACT_EXPANSION = """
import sys
import affsym.verify
from affsym.cli import main
real = affsym.verify.expand_in_affine_schur
def inexact(w, **kw):
    result = real(w, **kw)
    result.exact = w.length() < 2
    return result
affsym.verify.expand_in_affine_schur = inexact
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


# The command leaves through os._exit once it has flushed stdout and
# stderr: no interpreter teardown, no exit handler.


def test_command_output_read_through_a_pipe_is_complete(capsys, child_env):
    # more bytes than the stdio buffer and the pipe hold, so the output
    # must all be flushed before the process ends
    argv = ["reduced-words", "-n", "5", "[-6,2,13,5,1]"]
    code, out, _ = run_cli(capsys, *argv)
    proc = subprocess.Popen(
        [sys.executable, "-m", "affsym", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    stdout, stderr = proc.communicate(timeout=60)
    assert code == 0 and len(out.encode()) == 176_715
    assert (proc.returncode, stdout, stderr) == (0, out.encode(), b"")


@pytest.mark.parametrize(
    "argv, status, stdout, stderr",
    [
        (["reduced-words", "-n", "3", "[3,2,1]"], 0, "121\n212\n", ""),
        (
            ["little", "-n", "3", "-v", "11", "-a", "1", "-i", "1"],
            3,
            "",
            "error: v word 11 is not reduced\n",
        ),
    ],
)
def test_exit_handlers_around_run_do_not_run(argv, status, stdout, stderr, child_env):
    script = (
        "import atexit\n"
        "atexit.register(print, 'exit handler ran')\n"
        "from affsym.cli import run\n"
        "run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=child_env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, stdout, stderr)


def test_usage_error_exits_2_with_the_argparse_message(capsys, child_env):
    # argparse's SystemExit takes the same flush and os._exit as a return
    with pytest.raises(SystemExit) as exc:
        main(["expand", "-n", "4"])
    message = capsys.readouterr().err
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", "expand", "-n", "4"], capture_output=True, env=child_env
    )
    assert exc.value.code == 2 and "required: window" in message
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message.encode())


@pytest.mark.parametrize("command", ["stanley-table", "expand"])
def test_input_past_the_recursion_limit_exits_3_without_a_traceback(command, child_env):
    # [-1199,1202] has length 1200 and a table of one entry, but the
    # counter recurses once per part, deeper than Python 3.10 to 3.13
    # allow by default
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", command, "-n", "2", "[-1199,1202]"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: input too large: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["stanley-table", "expand"])
def test_input_at_the_recursion_limit_still_answers(command, child_env):
    # README's row for this command and Python minor version under "Exit
    # status", from below: both elements of the longest length it
    # answers, each with a table of one entry, as cold processes
    text = README.read_text()
    versions = re.search(r"^\| answers up to length \| (.*) \|$", text, re.M).group(1).split(" | ")
    row = re.search(rf"^\| `{command}` \| (.*) \|$", text, re.M).group(1).split(" | ")
    minor = "{}.{}.".format(*sys.version_info)
    [length] = [int(l) for version, l in zip(versions, row) if version.startswith(minor)]
    for window in ([1 - length, length + 2], [length + 1, 2 - length]):
        assert from_window(2, window).length() == length
        proc = subprocess.run(
            [sys.executable, "-m", "affsym", command, "-n", "2", str(window).replace(" ", "")],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), window
        assert proc.stdout == ",".join("1" * length) + ": 1\n"


@pytest.mark.parametrize("n, window", [(2, "[-1999,2002]"), (3, "[1001,1003,-1998]")])
def test_reduced_words_of_a_long_element_answer_within_a_second(n, window, child_env):
    # (s_1 s_0)^1000 and (s_0 s_1 s_2)^667 have one reduced word each;
    # reduced words are one pass down the weak order, with no recursion
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", "reduced-words", "-n", str(n), window],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    [line] = proc.stdout.splitlines()
    assert len(line) == from_window(n, json.loads(window)).length() and elapsed < 1.0


def _one_gib_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_input_past_the_memory_limit_exits_3_without_a_traceback(child_env):
    # [10,19,-15,-4] has length 30 and more reduced words than 1 GiB
    # holds; without the cap such a command grows until the host's
    # memory runs out, so it is run only under one
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", "reduced-words", "-n", "4", "[10,19,-15,-4]"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
        preexec_fn=_one_gib_of_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: input too large: out of memory\n"


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


def test_little_uniqueness_failure_exits_1(capsys, doubled_records):
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


def test_bijection_uniqueness_failure_exits_1(capsys, doubled_records):
    # the factor walk's first strong-exchange lookup sees t twice
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


@pytest.mark.parametrize(
    "argv,walk",
    [(FIGURE_LITTLE, "phi cycle through 34102321042@5"), (CROSSING_WALK, "generalized walk")],
)
def test_walk_past_its_cap_exits_1(argv, walk, capsys, monkeypatch):
    # a cap of one step, at each of the kernel's callers
    real = affsym.little._layout
    monkeypatch.setattr(affsym.little, "_layout", lambda n, sizes: real(n, sizes)[:2] + (1,))
    assert run_cli(capsys, *argv) == (1, "", f"internal error: {walk} exceeded its cap\n")


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


@pytest.mark.parametrize("decomposition", ["1/", ""])
def test_generalized_little_empty_factor_exits_2(capsys, decomposition):
    # every factor of a decomposition has a letter: `1/` is not (1, 0)
    code, out, err = run_cli(
        capsys, "generalized-little", "-n", "3", "-v", "[1,2,3]", "-r", "1",
        "-d", decomposition,
    )
    assert (code, out, err) == (2, "", f"error: empty factor in {decomposition!r}\n")


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_expand_nonzero_residual_exits_1(capsys, monkeypatch, json_flag):
    # an expansion that does not reproduce its table prints nothing
    monkeypatch.setattr(
        affsym.cli, "expand_in_affine_schur", lambda w: ExpansionResult({(2, 1, 1): 1}, False)
    )
    code, out, err = run_cli(capsys, "expand", "-n", "4", *json_flag, "[-1,4,1,6]")
    assert (code, out, err) == (1, "", "expansion residual is nonzero\n")


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


@pytest.mark.parametrize("command, value", [("stanley-table", 1), ("expand", "1")])
def test_degree_zero_table_keys_the_empty_partition_by_the_empty_string(capsys, command, value):
    assert run_cli(capsys, command, "-n", "3", "[1,2,3]") == (0, ": 1\n", "")
    code, out, _ = run_cli(capsys, command, "-n", "3", "--json", "[1,2,3]")
    payload = {"n": 3, "degree": 0, "window": [1, 2, 3], "coefficients": {"": value}}
    assert (code, json.loads(out)) == (0, payload)


def test_identity_has_one_empty_reduced_word(capsys):
    assert run_cli(capsys, "reduced-words", "-n", "3", "[1,2,3]") == (0, "\n", "")
    code, out, _ = run_cli(capsys, "reduced-words", "-n", "3", "--json", "[1,2,3]")
    assert (code, json.loads(out)) == (0, {"n": 3, "window": [1, 2, 3], "reduced_words": [""]})


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


def test_verify_positivity_counts(capsys, monkeypatch):
    # one instance per element of the ball (1 + 3 + 6 + 9), whose
    # expansions have 22 nonzero terms, all positive; `terms` fills only
    # in the process that calls, so the pass runs in one process
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    real, terms = affsym.verify.expand_in_affine_schur, []

    def counted(w, **kw):
        result = real(w, **kw)
        terms.extend(value for value in result.coefficients.values() if value)
        return result

    monkeypatch.setattr(affsym.verify, "expand_in_affine_schur", counted)
    code, out, err = run_cli(capsys, *SMALL_POSITIVITY)
    assert (code, out, err) == (0, "positivity: 19 instances, ok\nall checks passed\n", "")
    assert len(terms) == 22 and min(terms) > 0


def test_verify_positivity_json(capsys):
    code, out, _ = run_cli(capsys, *SMALL_POSITIVITY, "--json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "max_length": 3,
        "suites": {"positivity": {"instances": 19, "failures": []}},
        "passed": True,
    }


def test_verify_positivity_negative_coefficient_exits_1(capsys, monkeypatch):
    real = affsym.verify.expand_in_affine_schur

    def negated(w, **kw):
        result = real(w, **kw)
        if w.window == (3, 2, 1):
            result.coefficients = {key: -value for key, value in result.coefficients.items()}
        return result

    monkeypatch.setattr(affsym.verify, "expand_in_affine_schur", negated)
    code, out, err = run_cli(capsys, *SMALL_POSITIVITY)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "positivity: 19 instances, 2 FAILED",
        "FAIL negative coefficient -1 at 1,1,1 in the expansion of [3,2,1]",
        "FAIL negative coefficient -1 at 2,1 in the expansion of [3,2,1]",
        "verification FAILED",
    ]


def test_verify_positivity_residual_exits_1_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INEXACT_EXPANSION, *SMALL_POSITIVITY],
        capture_output=True,
        text=True,
        env=child_env,
    )
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, len(lines)) == (1, "", 17)
    assert lines[:2] == [
        "positivity: 19 instances, 15 FAILED",
        "FAIL nonzero expansion residual at [-1,3,4]",
    ]
    assert lines[-1] == "verification FAILED"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["covers", "[1]"],
        ["reduced-words", "[1]"],
        ["little", "-v", "0", "-a", "0", "-i", "1"],
        ["generalized-little", "-v", "[1]", "-r", "0", "-d", "0"],
        ["stanley-table", "[1]"],
        ["expand", "[1]"],
        ["verify", "all"],
    ],
    ids=lambda argv: argv[0],
)
def test_period_below_two_exits_2_before_parsing_the_rest(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "-n", "1", "--json", *argv[1:])
    assert (code, out, err) == (2, "", "error: period must be at least 2, got 1\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-n", "3", "--max-length", "1", "bijection"],
        ["expand", "-n", "5", "[-1,-2,1,10,7]"],
    ],
    ids=["verify", "expand"],
)
def test_command_loads_no_fractions_or_decimal(argv, child_env):
    # every answer is an integer; fractions (and with it decimal) would
    # cost a cold command milliseconds
    script = (
        "import contextlib, io, sys, affsym.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = affsym.cli.main({argv!r})\n"
        "print(status, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")


# stdout SHA-256 of commands that exit 0, text and --json for every
# subcommand (the README examples): the `verify ... all` digests were
# recorded at 9683b22 (before the bijection sweep's round-trip kernel and
# key-list word records), the others at 24fb7d1 (before the handlers
# returned one record for the CLI to print); all output must stay
# byte-identical
STDOUT_GOLDENS = [
    (
        ("covers", "-n", "4", "[-1,1,4,6]"),
        "7687f40923b3b10db4a0d9d041680640ec27fc299ed30883e6de2a3cccb60205",
    ),
    (
        ("covers", "-n", "4", "--json", "[-1,1,4,6]"),
        "b041d56f6c4e45e0240d0960cdea593dba714200eaac53667a64088d0cd0121d",
    ),
    (
        ("covers", "-n", "4", "[-1,1,4,6]", "-r", "2"),
        "8a47a29f8ae45e0101c0e39335cd145c45c0f40b7f535e715a97498ebd49b538",
    ),
    (
        ("covers", "-n", "4", "--json", "[-1,1,4,6]", "-r", "2"),
        "c1d9656747a7b63628b7da75f72a806c595d6765ca7c0274e2b187da8d2a6256",
    ),
    (
        ("reduced-words", "-n", "3", "[3,2,1]"),
        "c204125bc371421a66dc40d2ffd899ddc479e7a087d4a29e70aa9b88cdfbb65c",
    ),
    (
        ("reduced-words", "-n", "3", "--json", "[3,2,1]"),
        "b7c74cf1ed7d980b1973c0fc475960a433045766f21ba79f0097898b7491ae80",
    ),
    (
        FIGURE_LITTLE,
        "13c364ee310186e8f2d06b7dfc5254f452585631e0ab763d5e5ef4d11e5af139",
    ),
    (
        (*FIGURE_LITTLE, "--json"),
        "969ac5ef2f9602913d5b342281e1a34c2221fe48e34d48a9a4d93d82fc885073",
    ),
    (
        ("generalized-little", "-n", "5", "-v", "[1,2,4,3,5]", "-r", "2", "-d", "23"),
        "9c100c6cf73770c1f0c46480c8ae3ef1c4b56d1368721d3e1edc9e659ac6941b",
    ),
    (
        ("generalized-little", "-n", "5", "--json", "-v", "[1,2,4,3,5]", "-r", "2", "-d", "23"),
        "2862b09fba18e4c270ce6d07792eb0732e3a5f2c5110bc43569deae3a74e9d67",
    ),
    (
        ("stanley-table", "-n", "3", "[3,2,1]"),
        "fcd962e9827a81ecd700c7efaa24cfb5604c5d88d4b829d292ee828d9a74c793",
    ),
    (
        ("stanley-table", "-n", "3", "--json", "[3,2,1]"),
        "81cd248358284fd82aa0ce194f8ee735e81256ee3ddeacecff054a7663bcd60d",
    ),
    (
        ("expand", "-n", "4", "[-1,4,1,6]"),
        "3a511ee029e47aa271656d3893c2a1f9f35cd5c5fe0edaa438bc7a648fd04450",
    ),
    (
        ("expand", "-n", "4", "--json", "[-1,4,1,6]"),
        "0c4f6a029313d54a7b89b7c3971a9ccca7a81e53ef49740ade9eed30ab103276",
    ),
    (
        ("verify", "-n", "3", "--max-length", "4", "--json", "--seed", "3", "all"),
        "af965d0b92efbe288eb5e90251cd17b45f8874b9d526133ffdf25d47317f6052",
    ),
    (
        ("verify", "-n", "5", "--max-length", "1", "--seed", "4", "all"),
        "fb9636a9ac509674fa9e3e2dab13944ed6de98645d81eabf7cc1c0c78f062515",
    ),
]


@pytest.mark.parametrize("args,digest", STDOUT_GOLDENS, ids=[" ".join(a) for a, _ in STDOUT_GOLDENS])
def test_stdout_matches_recorded_golden(child_env, args, digest):
    proc = subprocess.run(
        [sys.executable, "-m", "affsym", *args], capture_output=True, env=child_env
    )
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (0, digest)
