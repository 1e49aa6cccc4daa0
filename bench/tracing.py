"""Spans around the calls into charcore's public functions, recorded from outside.

A `Tracer` replaces each target function with a wrapper in every charcore
module that holds it (a name imported with `from .abacus import
from_partition` is a separate binding from `charcore.abacus.from_partition`),
and puts every original back on exit.  Each call becomes a span: name,
start, end and the index of the enclosing traced span.  Spans stay in memory
until the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

TARGETS = (
    "cli.main",
    "characters.build_table",
    "characters.chi_column",
    "characters.write_table_csv",
    "characters.chi",
    "abacus.from_partition",
    "abacus.hook_length_mask",
    "abacus.is_tcore",
    "abacus.skew_per_residue",
    "abacus.tcore",
    "partitions.partitions_of",
    "partitions.sample_uniform",
    "tableaux.count_skew_syt",
    "tableaux.is_border_strip",
    "divisibility.enumerate_hook_sequences",
    "divisibility.epsilon",
    "divisibility.reduce_partition",
    "divisibility.carry_levels",
    "stats.ppower_count_restricted",
    "stats.restricted_counts_table",
    "stats.generating_function_fp",
    "stats.exceeds_threshold",
    "stats.lemma91_delta",
    "stats.prop4_empirical",
    "stats.count_non_tcores",
)

# work counted from return values: target -> (counter name, count of one result)
WORK = {
    "divisibility.enumerate_hook_sequences": (
        "divisibility.sequences",
        lambda groups: sum(len(seqs) for seqs in groups.values()),
    ),
}


def _charcore_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if name == "charcore" or name.startswith("charcore.")
    ]


class Tracer:
    """Context manager: wraps `TARGETS` on entry and restores them on exit."""

    def __init__(self):
        self.names = TARGETS
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.work: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = _charcore_modules()
        for idx, qual in enumerate(self.names):
            mod_name, fn_name = qual.split(".")
            original = getattr(importlib.import_module("charcore." + mod_name), fn_name)
            wrapper = self._wrap(idx, original, WORK.get(qual))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, idx: int, fn, work):
        start, end, name, parent, stack = (
            self.start,
            self.end,
            self.name,
            self.parent,
            self._stack,
        )
        counts = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if work is not None:
                counts[work[0]] = counts.get(work[0], 0) + work[1](result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, total seconds, self seconds, and seconds spent in
        direct children grouped by child name."""
        out = {
            q: {"calls": 0, "s": 0.0, "self_s": 0.0, "children": {}} for q in self.names
        }
        own = self.self_times()
        for i, idx in enumerate(self.name):
            entry = out[self.names[idx]]
            entry["calls"] += 1
            entry["s"] += self.end[i] - self.start[i]
            entry["self_s"] += own[i]
            p = self.parent[i]
            if p >= 0:
                children = out[self.names[self.name[p]]]["children"]
                child = self.names[idx]
                children[child] = children.get(child, 0.0) + self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """Write every span as `index parent name start end`, tab separated."""
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart\tend\n")
            for i, (idx, p, s, e) in enumerate(
                zip(self.name, self.parent, self.start, self.end)
            ):
                f.write(f"{i}\t{p}\t{self.names[idx]}\t{s!r}\t{e!r}\n")
