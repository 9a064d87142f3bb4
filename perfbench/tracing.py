"""In-memory span tracer that wraps twophase's public functions from outside.

The tracer replaces each listed function with a wrapper that records a
span ``[name, parent, start, end, extras]``.  Spans are
parent-linked through a stack (the benchmark is single-threaded), kept in
memory and summarised or written out when the run ends.  Nothing inside the package
changes: :meth:`Tracer.install` rebinds module attributes, including the
names other modules imported with ``from module import name``, and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Extras whose per-call values are averaged or maxed rather than summed.
MAX_EXTRAS = {"residual_max"}
MEAN_EXTRAS = {"n_components", "noise_var"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sites: set[str] = set()

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``measure(args, kwargs, result)`` returns extra per-call numbers
        (iterations, bytes); it runs after the span has closed.  A call
        that raises records ``failed`` and ``failed.<ErrorClass>``.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # No wrapped function calls itself, so total_s sums every span.
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"failed": 1, f"failed.{type(exc).__name__}": 1}
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def install(self, modules, layers):
        """Wrap every ``(module, function, measure)`` in ``layers``.

        Each binding of the original function object in any of
        ``modules`` is replaced, so a call through a name imported into
        another module is traced too.  The rebound sites are kept in
        :attr:`sites`.
        """
        for mod, attr, measure in layers:
            original = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self.wrap(name, original, measure)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._patched.append((site, key, original))
                        self.sites.add(f"{site.__name__.rsplit('.', 1)[-1]}.{key}")

    def uninstall(self):
        while self._patched:
            site, key, original = self._patched.pop()
            setattr(site, key, original)

    def top_level_seconds(self, first: int, last: int) -> float:
        """Seconds covered by parentless spans among ``spans[first:last]``."""
        return sum(s[3] - s[2] for s in self.spans[first:last] if s[1] == -1)

    def summary(self, n_ops: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and extras, per operation.

        Self time is a span's duration minus the durations of its direct
        children.  Counts, times and summed extras are divided by
        ``n_ops``; maxed and averaged extras are reported as they are.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        mean_counts: dict[tuple[str, str], int] = defaultdict(int)
        for i, (name, _, start, end, extras) in enumerate(self.spans):
            row = stats[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child[i]
            for key, value in (extras or {}).items():
                if key in MAX_EXTRAS:
                    row[key] = max(row.get(key, value), value)
                elif key in MEAN_EXTRAS:
                    mean_counts[name, key] += 1
                    row[key] += value
                else:
                    row[key] += value
        out = {}
        for name, row in stats.items():
            out[name] = {}
            for key, value in row.items():
                if key in MEAN_EXTRAS:
                    value /= mean_counts[name, key]
                elif key not in MAX_EXTRAS:
                    value /= n_ops
                out[name][key] = value
        return out

    def write(self, path):
        """Write the spans, gzipped, as JSON lines ``[name, parent, start, end, extras]``."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-call measurements read from argument shapes and return values.


def _nbytes(values) -> int:
    return sum(int(getattr(v, "nbytes", 0)) for v in values)


def computed_bytes(args, kwargs, result):
    """Bytes of the array arguments and results, computed from their sizes."""
    out = result if isinstance(result, tuple) else (result,)
    return {"bytes_computed": _nbytes(args) + _nbytes(kwargs.values()) + _nbytes(out)}


def newton_iters(args, kwargs, result):
    return {"newton_iters": result.iterations}


def calibration(args, kwargs, result):
    cal = result[1] if isinstance(result, tuple) else result
    return {"iters": cal.iterations, "residual_max": cal.constraint_residual}


def file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def eigensystem(args, kwargs, result):
    return {"n_components": result.n_components, "noise_var": result.noise_var}


def twophase_modules():
    """Every loaded ``twophase`` module: the places a name can be bound."""
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "twophase" or k.startswith("twophase."))]
