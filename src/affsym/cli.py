"""Command-line interface.

Subcommands: covers, reduced-words, little, generalized-little,
stanley-table, expand, verify.  All output is exact and deterministic;
--json switches every subcommand to a single JSON document on stdout.

Exit status: 0 success / all checks pass, 1 verification failure or
stdout closed before the output was written, 2 usage or parse error,
3 domain precondition violation.
"""

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
    positivity_sweep,
    sweep_ball,
)
from .words import evaluate, is_reduced, parse_word, reduced_words


def _emit_json(payload) -> None:
    import json  # only --json output needs it, so plain commands start sooner

    print(json.dumps(payload, sort_keys=True))


# Each cmd_* handler returns (status, payload, lines): the exit status, the
# --json document (None when there is none) and the text lines; main writes
# one of the two.


def cmd_covers(args):
    v = parse_window(args.n, args.window)
    pairs = covers_above(v)
    payload = {"n": args.n, "window": list(v.window)}
    if args.r is None:
        groups = {"covers": ("", pairs)}
    else:
        payload["r"] = args.r
        groups = {
            key: (prefix, [(w, t) for w, t in pairs if is_r_cover(t, args.r, side)])
            for key, prefix, side in (("plus", "psi+ ", "right"), ("minus", "psi- ", "left"))
        }
    lines = []
    for key, (prefix, group) in groups.items():
        payload[key] = [{"window": list(w.window), "reflection": [t.a, t.b]} for w, t in group]
        lines += (f"{prefix}{format_window(w)} {t}" for w, t in group)
    return 0, payload, lines


def cmd_reduced_words(args):
    w = parse_window(args.n, args.window)
    words = [str(a) for a in reduced_words(w)]
    return 0, {"n": args.n, "window": list(w.window), "reduced_words": words}, words


def cmd_little(args):
    v_word = parse_word(args.n, args.v)
    if not is_reduced(v_word):
        raise DomainError(f"v word {v_word} is not reduced")
    rows = little_trace(evaluate(v_word), MarkedWord(parse_word(args.n, args.word), args.mark))
    payload = {
        "n": args.n,
        "v": str(v_word),
        "rows": [
            {"word": str(m.word), "mark": m.mark, "p": pair.p, "q": pair.q} for m, pair in rows
        ],
    }
    return 0, payload, [f"{m}  p={pair.p}  q={pair.q}" for m, pair in rows]


def cmd_generalized_little(args):
    v = parse_window(args.n, args.v)
    d = parse_decomposition(args.n, args.decomposition)
    out = generalized_little(v, args.r, d)
    product = out.product()
    payload = {
        "n": args.n,
        "v": list(v.window),
        "r": args.r,
        "input": str(d),
        "output": str(out),
        "product": list(product.window),
    }
    return 0, payload, [f"{out} {format_window(product)}"]


def _table_record(w, degree, entries, json_value):
    """The record of a partition-indexed table: its nonzero entries in
    partition order, each keyed by its partition as text like "2,1,1"."""
    coefficients = {
        ",".join(str(p) for p in key): value for key, value in sorted(entries.items()) if value != 0
    }
    payload = {
        "n": w.n,
        "window": list(w.window),
        "degree": degree,
        "coefficients": {key: json_value(value) for key, value in coefficients.items()},
    }
    return 0, payload, [f"{key}: {value}" for key, value in coefficients.items()]


def cmd_stanley_table(args):
    w = parse_window(args.n, args.window)
    table = stanley_table(w)
    return _table_record(w, table.degree, table.entries, int)


def cmd_expand(args):
    w = parse_window(args.n, args.window)
    result = expand_in_affine_schur(w)
    if not result.exact:
        print("expansion residual is nonzero", file=sys.stderr)
        return 1, None, []
    return _table_record(w, w.length(), result.coefficients, str)


# One sweep per suite; `all` runs the identity suites, in this order, as
# one sweep_ball pass.
_IDENTITIES = ("garsia-little", "chevalley", "bijection")
_SUITES = {
    "garsia-little": garsia_little_sweep,
    "chevalley": chevalley_sweep,
    "bijection": bijection_sweep,
    "positivity": positivity_sweep,
}


def cmd_verify(args):
    if args.max_length < 0:
        raise InputError(f"max length must be nonnegative, got {args.max_length}")
    if args.which == "all":
        results = sweep_ball(args.n, args.max_length, _IDENTITIES)
        results["exchange-random"] = exchange_spot_checks(args.n, samples=200, seed=args.seed)
    else:
        results = {args.which: _SUITES[args.which](args.n, args.max_length)}
    all_failures = [failure for _, failures in results.values() for failure in failures]
    passed = not all_failures
    summary = {name: {"instances": c, "failures": f} for name, (c, f) in results.items()}
    payload = {"n": args.n, "max_length": args.max_length, "suites": summary, "passed": passed}
    lines = []
    for name, (count, failures) in results.items():
        status = f"{len(failures)} FAILED" if failures else "ok"
        lines.append(f"{name}: {count} instances, {status}")
    lines += (f"FAIL {failure}" for failure in all_failures)
    lines.append("all checks passed" if passed else "verification FAILED")
    return 0 if passed else 1, payload, lines


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
        "which", choices=["chevalley", "garsia-little", "bijection", "positivity", "all"]
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n < 2:
            raise InputError(f"period must be at least 2, got {args.n}")
        status, payload, lines = args.handler(args)
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
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 3
    except ComputationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if not args.json:
        for line in lines:
            print(line)
    elif payload is not None:
        _emit_json(payload)
    return status


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
