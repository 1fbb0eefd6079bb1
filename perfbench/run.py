"""Cold-process benchmark of the affsym command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bijection --seed 1 --seconds 60 --trace 0

With --trace 0 every workload command runs as `python -m affsym ...` in a
fresh interpreter, one child at a time, so each command pays interpreter
start-up and starts with cold memo caches, as a user's does.  Passes of
the workload repeat until --seconds is used up and the medians over the
passes are reported, also divided by the time of a reference run (see
REFERENCE).  With --trace 1 one pass runs inside this process
instead, once plain and once with every layer wrapped (see tracer.py), and
the per-layer metrics are reported.

Every command's exit status and stdout are compared with references
recorded from the CLI (see record.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

# setup_s is the median of timed interpreter launches, one before each
# pass and at least this many: spread over the run, no one slow moment of
# the machine sets the median.
MIN_SETUP_LAUNCHES = 9
# A command running this long is killed and counted as failed.
COMMAND_TIMEOUT_S = 120
# A fixed pure-Python computation that does not import affsym, run as a
# child before the first pass and before any pass that starts
# REFERENCE_EVERY_S seconds or more after the last reference run.  On a
# shared host the speed of the machine drifts by tens of percent over
# minutes; pass times divided by the reference time (wall_ref,
# items_per_ref) keep that drift out, while a change to affsym moves
# them as it moves the raw times.
REFERENCE = """
class Pair:
    __slots__ = ("key", "tag")
    def __init__(self, key, tag):
        self.key, self.tag = key, tag
    def combine(self, other):
        return Pair(tuple(x + y for x, y in zip(self.key, other.key)), self.tag ^ other.tag)
counts = {}
base = Pair((1, 2, 3, 4, 5), 7)
for i in range(120000):
    pair = base.combine(Pair((i % 5, i % 7, 1, 2, 3), i))
    counts[pair.key] = counts.get(pair.key, 0) + 1
"""
REFERENCE_EVERY_S = 4

VERIFY_COMMANDS = {
    "bijection": [["verify", "-n", "4", "--max-length", "4", "bijection"]],
}
WORKLOADS = [*VERIFY_COMMANDS, "expand"]

_INSTANCES = re.compile(rb"^[\w-]+: (\d+) instances, ok$", re.MULTILINE)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Launch:
    seconds: float
    status: int
    stdout: bytes
    peak_rss_mib: float


def launch(argv: list[str], env: dict[str, str]) -> Launch:
    """Run `python argv` to completion and report its time, stdout and peak
    RSS; its stderr passes through to ours."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        # Reap with wait4, not Popen.wait, which discards the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(time.perf_counter() - start, proc.returncode, stdout, usage.ru_maxrss / 1024)


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def expand_pool(references: dict) -> list[str]:
    """The windows whose expand output was recorded: every element of the
    recorded length at the recorded period."""
    return sorted(
        key.rsplit(" ", 1)[1] for key in references["outputs"] if key.startswith("expand ")
    )


def output_ok(argv: list[str], status: int, stdout: bytes, references: dict) -> bool:
    """Exit status and stdout digest match the reference; verify passed."""
    ref = references["outputs"].get(command_key(argv))
    if ref is None or status != ref["status"]:
        return False
    if hashlib.sha256(stdout).hexdigest() != ref["stdout_sha256"]:
        return False
    return argv[0] != "verify" or stdout.splitlines()[-1:] == [b"all checks passed"]


def items_done(argv: list[str], stdout: bytes) -> int:
    """Work one correct command finished: (v, r) instances for verify, as
    its summary lines report them, and one element for expand."""
    if argv[0] == "verify":
        return sum(int(count) for count in _INSTANCES.findall(stdout))
    return 1


def passes(workload: str, seed: int, references: dict):
    """Endless passes of the workload, each a list of CLI argument lists.

    The verify workloads are fixed; the seed only picks expand windows.
    An expand pass is one element drawn afresh: the elements differ in
    cost, and one per pass gives the median the most samples of them."""
    if workload in VERIFY_COMMANDS:
        while True:
            yield VERIFY_COMMANDS[workload]
    rng = random.Random(seed)
    pool = expand_pool(references)
    n = str(references["expand"]["n"])
    while True:
        yield [["expand", "-n", n, rng.choice(pool)]]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Children load cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def require_checkout() -> None:
    if not (SRC / "affsym" / "cli.py").is_file():
        raise BenchmarkError(f"no affsym sources under {SRC}")


def require_imported_from_checkout(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"affsym imported from {module_file}, outside {SRC}")


def probe_import(env: dict[str, str]) -> None:
    """Check that children import affsym from this checkout.

    The probe also writes the .pyc files, which a user has after the
    first run, so it is not timed."""
    probe = launch(["-c", "import affsym.cli; print(affsym.cli.__file__)"], env)
    if probe.status != 0:
        raise BenchmarkError(f"import affsym.cli failed with exit {probe.status}")
    require_imported_from_checkout(probe.stdout.decode().strip())


def setup_seconds(env: dict[str, str]) -> float:
    """Time to start an interpreter and import affsym.cli."""
    return launch(["-c", "import affsym.cli"], env).seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, argv: list[str], status: int, stdout: bytes, references: dict) -> bool:
        self.attempted += 1
        if output_ok(argv, status, stdout, references):
            return True
        self.failed += 1
        print(f"FAILED {command_key(argv)}: exit {status}", file=sys.stderr)
        return False


def measure(workload_passes, seconds: float, references: dict, env: dict[str, str]):
    """Run passes, each after a set-up launch, until the next pass would
    overrun `seconds` (at least one runs).

    Returns the tally, the end-to-end metrics, the raw times behind the
    reference-relative ones, and the commands run."""
    tally = Tally()
    setup, reference, pass_seconds, rates, peak_rss, commands = [], [], [], [], 0.0, []
    start = last_reference = time.perf_counter()
    for pass_commands in workload_passes:
        setup.append(setup_seconds(env))
        if not reference or time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(launch(["-c", REFERENCE], env).seconds)
            last_reference = time.perf_counter()
        begin = time.perf_counter()
        items = 0
        for argv in pass_commands:
            run = launch(["-m", "affsym", *argv], env)
            peak_rss = max(peak_rss, run.peak_rss_mib)
            if tally.record(argv, run.status, run.stdout, references):
                items += items_done(argv, run.stdout)
        elapsed = time.perf_counter() - begin
        pass_seconds.append(elapsed)
        rates.append(items / elapsed)
        commands.extend(pass_commands)
        wall = statistics.median(pass_seconds)
        if time.perf_counter() - start + wall > seconds:
            break
    setup += [setup_seconds(env) for _ in range(MIN_SETUP_LAUNCHES - len(setup))]
    reference_s = statistics.median(reference)
    items_per_s = statistics.median(rates)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (wall / reference_s, "ref"),
        "items_per_ref": (items_per_s * reference_s, "1/ref"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    raw = {
        "wall_s": (wall, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "reference_s": (reference_s, "s"),
    }
    return tally, metrics, raw, commands


def context(args, commands: list[list[str]], raw: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "expand_windows": [argv[-1] for argv in commands if argv[0] == "expand"],
        "raw": {name: value for name, (value, _) in raw.items()},
    }


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def end_to_end(args, references: dict) -> tuple[Tally, dict, dict, list]:
    env = child_env()
    probe_import(env)
    return measure(passes(args.workload, args.seed, references), args.seconds, references, env)


def traced(args, references: dict) -> tuple[Tally, dict, dict, list]:
    sys.path.insert(0, str(SRC))
    import affsym.cli
    import tracer

    require_imported_from_checkout(affsym.cli.__file__)

    commands = next(passes(args.workload, args.seed, references))
    tally = Tally()
    metrics = tracer.traced_pass(
        commands, lambda argv, status, out: tally.record(argv, status, out, references)
    )
    return tally, metrics, {}, commands


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_checkout()
        references = load_references()
        tally, metrics, raw, commands = (traced if args.trace else end_to_end)(args, references)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context(args, commands, raw)}))
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name:<44} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'failed_frac':<44} {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} commands)")
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
