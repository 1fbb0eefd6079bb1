"""Per-layer tracing of affsym from outside the package.

The traced pass runs a workload's commands in this process through
affsym.cli.main, once plain and once with the public functions of each
layer wrapped.  Modules import public functions by name (verify holds
phi_r, little holds marked_index, cli keeps the sweeps in a dict), so a
wrapper is rebound wherever an affsym module holds the same object, and
__mul__ and length are patched on AffinePermutation.  The recursive memos
(_coefficient, _reduced_words) are read through cache_info() and not
wrapped: wrapping them would count their recursion as calls.

Each wrapper aggregates, as it goes, a call count, total time (its
duration) and self time (its duration minus the time taken by the
wrapped calls it made); a pass makes millions of calls, too many spans
to keep.  Every lru_cache in affsym is cleared before each command, so
each command starts cold, as a fresh `python -m affsym` does.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import time
import traceback

# Public functions traced per layer, by module.
TRACED = {
    "group": ("covers_above", "bruhat_ball"),
    "words": ("is_reduced", "evaluate", "marked_index", "insertion_index", "canonical_cd_word"),
    "little": ("phi", "generalized_little", "inverse_generalized_little", "pq"),
    "stanley": ("stanley_table", "alpha_decompositions", "expand_in_affine_schur"),
    "verify": ("bijection_sweep",),
    "cli": ("main",),
}
# Methods of group.AffinePermutation, by metric name.
METHODS = {"mul": "__mul__", "length": "length"}
# The memos whose hits and misses are reported.
MEMOS = (
    "group._length",
    "group.bruhat_ball",
    "words._reduced_words",
    "words._cd_element",
    "stanley._cd_factors",
    "stanley._coefficient",
)
# Hit ratios reported under a layer's name, from the memo behind it.
HIT_RATIOS = {"group.length": "group._length", "stanley.coefficient": "stanley._coefficient"}


def span_names() -> list[str]:
    return [f"group.{name}" for name in METHODS] + [
        f"{module}.{name}" for module, names in TRACED.items() for name in names
    ]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.total_s"] = "s"
    units["group.covers_above.yield"] = "ratio"
    units["little.phi.steps_per_call"] = "steps/call"
    units["little.phi.nonreduced_share"] = "ratio"
    for layer in HIT_RATIOS:
        units[f"{layer}.cache_hit_ratio"] = "ratio"
    for memo in MEMOS:
        units[f"{memo}.hits"] = "count"
        units[f"{memo}.misses"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _affsym_modules() -> dict[str, object]:
    """Loaded affsym modules by short name ("" for the package)."""
    return {
        name.partition(".")[2]: module
        for name, module in list(sys.modules.items())
        if name == "affsym" or name.startswith("affsym.")
    }


def _memos() -> dict[str, object]:
    """Every module-level lru_cache in affsym, by module.name."""
    found = {}
    for module in _affsym_modules().values():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[f"{value.__module__.partition('.')[2]}.{value.__qualname__}"] = value
    return found


def _inversions(window: tuple[int, ...]) -> int:
    """Length of an affine permutation from its window, computed here so
    that observing a call does not touch the program's own caches."""
    n = len(window)
    return sum(abs((window[j] - window[i]) // n) for i in range(n) for j in range(i + 1, n))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self, memos: dict[str, object]):
        self.memos = memos
        self.spans = {name: [0, 0.0, 0.0] for name in span_names()}
        self.memo_counts = {name: [0, 0] for name in MEMOS}
        self.covers = self.candidates = 0
        self.phi_steps = self.phi_nonreduced = 0
        self.missing: list[str] = []
        self._stack: list[float] = []

    def clear_memos(self) -> None:
        """Add the memos' hits and misses to the totals, then clear them."""
        for name, memo in self.memos.items():
            if name in self.memo_counts:
                info = memo.cache_info()
                self.memo_counts[name][0] += info.hits
                self.memo_counts[name][1] += info.misses
            memo.cache_clear()

    def _wrap(self, name, fn, observe=None):
        span, stack, clock = self.spans[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span[0] += 1
                span[1] += elapsed - stack.pop()
                span[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                begin = clock()
                observe(args, result)
                if stack:
                    # observing is tracing overhead, not the caller's own time
                    stack[-1] += clock() - begin
            return result

        return traced

    def _observe_covers(self, args, result) -> None:
        v = args[0]
        self.candidates += v.n * (v.n - 1) * (_inversions(v.window) + 2)
        self.covers += len(result)

    def _observe_phi(self, args, result, is_reduced) -> None:
        _, path = result
        self.phi_steps += len(path)
        self.phi_nonreduced += sum(not is_reduced(vertex.word) for vertex in path)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and method in affsym; undo on exit."""
        modules = _affsym_modules()
        wrappers, undo = {}, []
        for module, names in TRACED.items():
            for name in names:
                fn = getattr(modules.get(module), name, None)
                if fn is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                observe = None
                if (module, name) == ("group", "covers_above"):
                    observe = self._observe_covers
                elif (module, name) == ("little", "phi"):
                    observe = functools.partial(
                        self._observe_phi, is_reduced=modules["words"].is_reduced
                    )
                # keyed by id: the originals stay alive, so ids cannot be reused
                wrappers[id(fn)] = self._wrap(f"{module}.{name}", fn, observe)
        cls = getattr(modules.get("group"), "AffinePermutation", None)
        try:
            for namespace in modules.values():
                for attr, value in list(vars(namespace).items()):
                    if id(value) in wrappers:
                        undo.append((namespace, attr, value))
                        setattr(namespace, attr, wrappers[id(value)])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if id(item) in wrappers:
                                undo.append((value, key, item))
                                value[key] = wrappers[id(item)]
            for metric, method in METHODS.items():
                fn = vars(cls).get(method) if cls is not None else None
                if fn is None:
                    self.missing.append(f"group.AffinePermutation.{method}")
                    continue
                undo.append((cls, method, fn))
                setattr(cls, method, self._wrap(f"group.{metric}", fn))
            yield self
        finally:
            for container, key, value in reversed(undo):
                if isinstance(container, dict):
                    container[key] = value
                else:
                    setattr(container, key, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        units = metric_units()
        values = {}
        for span, (calls, self_s, total_s) in self.spans.items():
            values[f"{span}.calls"] = calls
            values[f"{span}.self_s"] = self_s
            values[f"{span}.total_s"] = total_s
        values["group.covers_above.yield"] = _share(self.covers, self.candidates)
        values["little.phi.steps_per_call"] = _share(
            self.phi_steps, self.spans["little.phi"][0]
        )
        values["little.phi.nonreduced_share"] = _share(self.phi_nonreduced, self.phi_steps)
        for layer, memo in HIT_RATIOS.items():
            hits, misses = self.memo_counts[memo]
            values[f"{layer}.cache_hit_ratio"] = _share(hits, hits + misses)
        for memo, (hits, misses) in self.memo_counts.items():
            values[f"{memo}.hits"] = hits
            values[f"{memo}.misses"] = misses
        return {name: (value, units[name]) for name, value in values.items()}


def _run_commands(commands, check, clear) -> float:
    """Run commands through affsym.cli.main, cold caches each; wall seconds."""
    cli = sys.modules["affsym.cli"]
    start = time.perf_counter()
    for argv in commands:
        clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                status = 1
        check(argv, status, out.getvalue().encode())
    clear()
    return time.perf_counter() - start


def traced_pass(commands, check) -> dict[str, tuple[float, str]]:
    """Run the commands plain, then traced; the per-layer metrics.

    `check(argv, status, stdout)` is called with every command's result."""
    import affsym.cli  # noqa: F401  (loads every layer)

    memos = _memos()
    tracer = Tracer(memos)

    def clear_only():
        for memo in memos.values():
            memo.cache_clear()

    plain = _run_commands(commands, check, clear_only)
    with tracer.installed():
        traced = _run_commands(commands, check, tracer.clear_memos)
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics
