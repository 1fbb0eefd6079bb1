"""Command-line interface.

Subcommands: covers, reduced-words, little, generalized-little,
stanley-table, expand, verify.  All output is exact and deterministic;
--json switches every subcommand to a single JSON document on stdout.

Exit status: 0 success / all checks pass, 1 verification failure or
stdout closed before the output was written, 2 usage or parse error,
3 domain precondition violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ComputationError, DomainError, InputError
from .group import covers_above, format_window, is_r_cover, parse_window
from .little import MarkedWord, generalized_little, little_trace, parse_decomposition
from .stanley import expand_in_affine_schur, stanley_table
from .verify import (
    bijection_sweep,
    chevalley_sweep,
    exchange_spot_checks,
    garsia_little_sweep,
    sweep_ball,
)
from .words import evaluate, is_reduced, parse_word, reduced_words


def _emit_json(payload) -> None:
    import json  # only --json output needs it, so plain commands start sooner

    print(json.dumps(payload, sort_keys=True))


def _partition_key(partition) -> str:
    return ",".join(str(p) for p in partition)


def _require_period(n: int) -> int:
    if n < 2:
        raise InputError(f"period must be at least 2, got {n}")
    return n


def cmd_covers(args) -> int:
    n = _require_period(args.n)
    v = parse_window(n, args.window)
    pairs = covers_above(v)
    payload = {"n": n, "window": list(v.window)}
    if args.r is None:
        groups = {"covers": ("", pairs)}
    else:
        payload["r"] = args.r
        groups = {
            key: (prefix, [(w, t) for w, t in pairs if is_r_cover(t, args.r, side)])
            for key, prefix, side in (("plus", "psi+ ", "right"), ("minus", "psi- ", "left"))
        }
    if args.json:
        for key, (_, group) in groups.items():
            payload[key] = [{"window": list(w.window), "reflection": [t.a, t.b]} for w, t in group]
        _emit_json(payload)
    else:
        for prefix, group in groups.values():
            for w, t in group:
                print(f"{prefix}{format_window(w)} {t}")
    return 0


def cmd_reduced_words(args) -> int:
    n = _require_period(args.n)
    w = parse_window(n, args.window)
    words = reduced_words(w)
    if args.json:
        _emit_json(
            {"n": n, "window": list(w.window), "reduced_words": [str(a) for a in words]}
        )
    else:
        for a in words:
            print(a)
    return 0


def cmd_little(args) -> int:
    n = _require_period(args.n)
    v_word = parse_word(n, args.v)
    if not is_reduced(v_word):
        raise DomainError(f"v word {v_word} is not reduced")
    v = evaluate(v_word)
    rows = little_trace(v, MarkedWord(parse_word(n, args.word), args.mark))
    if args.json:
        _emit_json(
            {
                "n": n,
                "v": str(v_word),
                "rows": [
                    {"word": str(m.word), "mark": m.mark, "p": pair.p, "q": pair.q}
                    for m, pair in rows
                ],
            }
        )
    else:
        for m, pair in rows:
            print(f"{m}  p={pair.p}  q={pair.q}")
    return 0


def cmd_generalized_little(args) -> int:
    n = _require_period(args.n)
    v = parse_window(n, args.v)
    d = parse_decomposition(n, args.decomposition)
    out = generalized_little(v, args.r, d)
    if args.json:
        _emit_json(
            {
                "n": n,
                "v": list(v.window),
                "r": args.r,
                "input": str(d),
                "output": str(out),
                "product": list(out.product().window),
            }
        )
    else:
        print(f"{out} {format_window(out.product())}")
    return 0


def cmd_stanley_table(args) -> int:
    n = _require_period(args.n)
    w = parse_window(n, args.window)
    table = stanley_table(w)
    if args.json:
        _emit_json(table.to_json_dict(window=w.window))
    else:
        for partition, value in table.items_sorted():
            print(f"{_partition_key(partition)}: {value}")
    return 0


def cmd_expand(args) -> int:
    n = _require_period(args.n)
    w = parse_window(n, args.window)
    result = expand_in_affine_schur(w)
    if not result.exact:
        print("expansion residual is nonzero", file=sys.stderr)
        return 1
    nonzero = sorted(
        (label, value) for label, value in result.coefficients.items() if value != 0
    )
    if args.json:
        _emit_json(
            {
                "n": n,
                "window": list(w.window),
                "degree": w.length(),
                "coefficients": {
                    _partition_key(label): str(value) for label, value in nonzero
                },
            }
        )
    else:
        for label, value in nonzero:
            print(f"{_partition_key(label)}: {value}")
    return 0


# One sweep per suite, in output order; `all` runs them as one sweep_ball pass.
_SUITES = {
    "garsia-little": garsia_little_sweep,
    "chevalley": chevalley_sweep,
    "bijection": bijection_sweep,
}


def cmd_verify(args) -> int:
    n = _require_period(args.n)
    if args.max_length < 0:
        raise InputError(f"max length must be nonnegative, got {args.max_length}")
    if args.which == "all":
        results = sweep_ball(n, args.max_length, list(_SUITES))
        results["exchange-random"] = exchange_spot_checks(n, samples=200, seed=args.seed)
    else:
        results = {args.which: _SUITES[args.which](n, args.max_length)}
    all_failures = [failure for _, failures in results.values() for failure in failures]
    passed = not all_failures
    if args.json:
        summary = {name: {"instances": c, "failures": f} for name, (c, f) in results.items()}
        _emit_json(
            {"n": n, "max_length": args.max_length, "suites": summary, "passed": passed}
        )
    else:
        for name, (count, failures) in results.items():
            status = f"{len(failures)} FAILED" if failures else "ok"
            print(f"{name}: {count} instances, {status}")
        for failure in all_failures:
            print(f"FAIL {failure}")
        print("all checks passed" if passed else "verification FAILED")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affsym",
        description="Exact combinatorics of the affine symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-n", type=int, required=True, help="period of the group")
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("covers", help="Bruhat covers of a window, optionally split by residue")
    common(p)
    p.add_argument("window", help="window like [2,3,0,5]")
    p.add_argument("-r", type=int, default=None, help="residue for the psi+/psi- split")
    p.set_defaults(handler=cmd_covers)

    p = sub.add_parser("reduced-words", help="all reduced words of a window")
    common(p)
    p.add_argument("window")
    p.set_defaults(handler=cmd_reduced_words)

    p = sub.add_parser("little", help="trace the marked-word walk to the next reduced word")
    common(p)
    p.add_argument("-v", required=True, help="reduced word for the base element v")
    p.add_argument("-a", dest="word", required=True, help="the marked word")
    p.add_argument("-i", dest="mark", type=int, required=True, help="1-based mark")
    p.set_defaults(handler=cmd_little)

    p = sub.add_parser("generalized-little", help="factor-level step on a decomposition")
    common(p)
    p.add_argument("-v", required=True, help="window of the base element v")
    p.add_argument("-r", type=int, required=True, help="cover residue")
    p.add_argument("-d", dest="decomposition", required=True, help="factors like 34/02/1")
    p.set_defaults(handler=cmd_generalized_little)

    p = sub.add_parser("stanley-table", help="partition-indexed coefficient table")
    common(p)
    p.add_argument("window")
    p.set_defaults(handler=cmd_stanley_table)

    p = sub.add_parser("expand", help="expansion in same-degree Grassmannian tables")
    common(p)
    p.add_argument("window")
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    common(p)
    p.add_argument("--max-length", type=int, default=3, help="bound on l(v)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    p.add_argument(
        "which", choices=["chevalley", "garsia-little", "bijection", "all"]
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        limit = f"sys.getrecursionlimit() = {sys.getrecursionlimit()}"
        print(f"error: input too large: deeper than {limit}", file=sys.stderr)
        return 3
    except ComputationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The `affsym` command: main() on sys.argv, then flush stdout and
    stderr and leave through os._exit with its status, so the process
    skips interpreter teardown and runs no exit handler; in-process
    callers use main()."""
    try:
        try:
            status = main()
        except SystemExit as exc:  # argparse's, after --help or a usage error's message
            status = exc.code
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        sys.stderr.flush()
    except BrokenPipeError:  # the reader went away (say `| head -1`)
        status = 1
    os._exit(status)
