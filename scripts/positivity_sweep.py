#!/usr/bin/env python3
"""Expand every element up to a length bound in the Grassmannian tables
and report on the signs and integrality of the coefficients.

Positivity of these expansions is not something this package proves or
asserts; this sweep only reports what exact arithmetic finds at desk
scale.

  python3 scripts/positivity_sweep.py -n 4 --max-length 5
"""

import argparse
import sys
from collections import Counter

from affsym.group import elements_of_length, format_window
from affsym.stanley import expand_in_affine_schur


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=4)
    parser.add_argument("--max-length", type=int, default=5)
    args = parser.parse_args()

    stats = Counter()
    offenders = []
    for l in range(args.max_length + 1):
        for w in elements_of_length(args.n, l):
            result = expand_in_affine_schur(w)
            if not result.exact:
                print(f"nonzero expansion residual at {format_window(w)}", file=sys.stderr)
                return 1
            values = [v for v in result.coefficients.values() if v != 0]
            stats["elements"] += 1
            stats["terms"] += len(values)
            if any(v.denominator != 1 for v in values):
                stats["non-integer"] += 1
                offenders.append((w, result))
            elif any(v < 0 for v in values):
                stats["negative"] += 1
                offenders.append((w, result))

    print(f"n={args.n} max_length={args.max_length}")
    print(f"elements expanded:        {stats['elements']}")
    print(f"nonzero expansion terms:  {stats['terms']}")
    print(f"non-integer expansions:   {stats['non-integer']}")
    print(f"negative expansions:      {stats['negative']}")
    for w, result in offenders:
        pretty = {k: str(v) for k, v in sorted(result.coefficients.items()) if v != 0}
        print(f"  {format_window(w)}: {pretty}")
    if not offenders:
        print("every expansion in range is a nonnegative integer combination")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
