"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

runs every verify command of the benchmark and `expand -n 5 W` for every
element W of length 10 (the pool the expand workload samples from)
through the CLI of this checkout, and writes the exit status and stdout
digest of each to references.json.  The committed file was recorded at
the commit that introduced the benchmark; re-recording on a later commit
would make the output check compare that commit with itself.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

EXPAND_N = 5
EXPAND_LENGTH = 10


def main() -> int:
    run.require_checkout()
    sys.path.insert(0, str(run.SRC))
    from affsym.group import bruhat_ball, format_window

    commands = [argv for argvs in run.VERIFY_COMMANDS.values() for argv in argvs]
    commands += [
        ["expand", "-n", str(EXPAND_N), format_window(w)]
        for w in bruhat_ball(EXPAND_N, EXPAND_LENGTH)[EXPAND_LENGTH]
    ]
    env = run.child_env()
    outputs = {}
    for i, argv in enumerate(commands, start=1):
        result = run.launch(["-m", "affsym", *argv], env)
        outputs[run.command_key(argv)] = {
            "status": result.status,
            "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
        }
        print(f"[{i}/{len(commands)}] {run.command_key(argv)}: exit {result.status}", flush=True)
    # one command per line, so a diff shows which output changed
    entries = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(outputs.items()))
    expand = json.dumps({"n": EXPAND_N, "length": EXPAND_LENGTH})
    with open(run.REFERENCES, "w") as handle:
        handle.write(f'{{"expand": {expand},\n"outputs": {{\n{entries}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
