"""Spans and counters around the library's layers, installed from outside.

The tracer replaces module attributes (and three ``RationalGF`` methods)
with wrappers for the length of a traced run and puts the originals back
afterwards; the library itself is never edited.  The wrapped names are the
ones the library resolves at call time: ``cli`` imports ``parse_space`` and
``evaluate`` by name, ``RationalGF`` reaches ``poly_gcd`` through the
``gfcore`` module global, and ``smash_quotient_betti`` reaches
``fat_diagonal_betti`` and ``smash_power_betti`` through ``combinatorics``
module globals.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

# Span fields: name, start ns, end ns, parent index (-1 for a root), and the
# ns the tracer spent on counters at the end of the span, which no layer's
# self time includes.
NAME, START, END, PARENT, ACCOUNTING = range(5)


def _max_bits(coeffs) -> int:
    return max((c.bit_length() for c in coeffs), default=0)


def _account_gcd(counts: Counter, maxima: dict, args, result) -> None:
    a, b = args
    if result.coeffs != (1,):
        counts["gfcore.poly_gcd.nontrivial"] += 1
    _raise(maxima, "gfcore.poly_gcd.max_degree", max(a.degree, b.degree))
    _raise(maxima, "gfcore.poly_gcd.max_coeff_bits", max(_max_bits(a.coeffs), _max_bits(b.coeffs)))


def _account_expand(counts: Counter, maxima: dict, args, result) -> None:
    counts["gfcore.expand.terms"] += len(result)
    _raise(maxima, "gfcore.expand.max_coeff_bits", _max_bits(result.coeffs))


def _account_fat_diagonal(counts: Counter, maxima: dict, args, result) -> None:
    if result == 0:
        counts["combinatorics.fat_diagonal_betti.zero"] += 1


def _raise(maxima: dict, key: str, value: int) -> None:
    if value > maxima.get(key, 0):
        maxima[key] = value


def layer_table(loopspace):
    """(owner, attribute, span name, accounting) for every traced layer."""
    cli, spaces, formulas = loopspace.cli, loopspace.spaces, loopspace.formulas
    gfcore, combinatorics = loopspace.gfcore, loopspace.combinatorics
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_space", "spaceexpr.parse_space", None),
        (cli, "evaluate", "spaceexpr.evaluate", None),
        (spaces, "load_catalog", "spaces.load_catalog", None),
        (spaces, "union_series", "spaces.union_series", None),
        (formulas, "loop_series", "formulas.loop_series", None),
        (formulas, "euler_series_e1", "formulas.euler_series_e1", None),
        (formulas, "euler_series_einf", "formulas.euler_series_einf", None),
        (gfcore, "poly_gcd", "gfcore.poly_gcd", _account_gcd),
        (gfcore.RationalGF, "normalized", "gfcore.normalized", None),
        (gfcore.RationalGF, "expand", "gfcore.expand", _account_expand),
        (gfcore.RationalGF, "__eq__", "gfcore.equal", None),
        (combinatorics, "loop_series_oracle", "combinatorics.loop_series_oracle", None),
        (combinatorics, "fat_diagonal_betti", "combinatorics.fat_diagonal_betti", _account_fat_diagonal),
        (combinatorics, "smash_power_betti", "combinatorics.smash_power_betti", None),
    ]


class Tracer:
    """Records spans and counters while installed; a no-op once removed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._pass_start = 0
        self._originals: list[tuple[object, str, object]] = []

    def install(self, table) -> None:
        for owner, attr, name, account in table:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, account))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, account):
        spans, stack = self.spans, self._stack
        counts, maxima = self.counts, self.maxima

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if account is not None:
                account(counts, maxima, args, result)
                now = perf_counter_ns()
                span[ACCOUNTING] = now - span[END]
                span[END] = now
            return result

        return traced

    def pass_counts(self) -> dict:
        """Calls per layer and the counters since the previous call.

        Each pass's counts stand alone, so two passes over the same
        commands must give equal dicts.
        """
        calls = Counter(span[NAME] for span in self.spans[self._pass_start:])
        out = {"calls": dict(sorted(calls.items())), "counts": dict(sorted(self.counts.items())),
               "maxima": dict(sorted(self.maxima.items()))}
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.maxima.clear()
        return out

    def layer_times(self) -> tuple[Counter, Counter]:
        """Total and self ns per span name over every recorded span."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i, span in enumerate(self.spans):
            busy = span[END] - span[START] - span[ACCOUNTING]
            total[span[NAME]] += busy
            self_time[span[NAME]] += busy - covered[i]
        return total, self_time

    def write_spans(self, path, origin_ns: int) -> None:
        """One JSON array per line: name, start and end in ns from origin,
        parent index, root index (the command's cli.main span) and
        accounting ns."""
        roots = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, accounting) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                fh.write(json.dumps([name, start - origin_ns, end - origin_ns, parent, roots[i], accounting]))
                fh.write("\n")
