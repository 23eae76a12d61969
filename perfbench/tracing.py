"""Layer spans and work counters recorded from outside bnsl.

Nothing under ``src/`` knows it is being traced: :func:`instrumented`
swaps the public functions of each layer for wrappers, in every ``bnsl``
module that holds a reference to them, and puts the originals back when
the block ends.  Layer-level functions record spans (name, start, end,
parent); functions called thousands of times per run only count their
calls, or count and sum their time, so the trace stays small.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span


class Tracer:
    """Spans of layer calls plus counters of the work inside them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()  # summed time of counted leaf calls
        self.mi_pairs: set[tuple[str, str]] = set()
        self._open: list[int] = []

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records a span; ``on_call`` sees the args."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx].end = time.perf_counter()
        return wrapper

    def count(self, name: str, fn, on_call=None, timed: bool = False):
        """Wrap ``fn`` so each call bumps ``counts[name]`` (and ``seconds``)."""
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            if not timed:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
        return wrapper

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``, nested repeats once."""
        out = 0.0
        for s in self.spans:
            if s.name == name and not self._inside(s, name):
                out += s.end - s.start
        return out

    def self_time(self, name: str, children: set[str]) -> float:
        """Summed duration of ``name`` spans minus the part their ``children``
        spans (at any depth below them) cover."""
        out = 0.0
        for idx, s in enumerate(self.spans):
            if s.name != name:
                continue
            inner = [(c.start, c.end) for c in self.spans
                     if c.name in children and self._descends(c, idx)]
            out += (s.end - s.start) - _covered(inner)
        return out

    def _inside(self, s: Span, name: str) -> bool:
        p = s.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def _descends(self, s: Span, ancestor: int) -> bool:
        p = s.parent
        while p is not None:
            if p == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def to_dict(self) -> dict:
        return {"spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                "counts": dict(self.counts), "seconds": dict(self.seconds),
                "mi_pairs": len(self.mi_pairs)}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def _plan(tracer: Tracer, bnsl) -> list[tuple[object, str, object]]:
    """(home object, attribute, wrapper) for every traced function."""
    av, bl, mg, pa, pl, wt = (bnsl.averaging, bnsl.blankets, bnsl.merge,
                              bnsl.partition, bnsl.pipeline, bnsl.weights)

    def mi_pair(data, i, j):
        a, b = data.names[i], data.names[j]
        tracer.mi_pairs.add((a, b) if a < b else (b, a))

    mcmc_sig = inspect.signature(av.order_mcmc)

    def mcmc_steps(*args, **kwargs):
        bound = mcmc_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        m = a["data"].n_vars if a["nodes"] is None else len(a["nodes"])
        if m > 1:
            burn_in = 10 * m if a["burn_in"] is None else a["burn_in"]
            thin = m if a["thin"] is None else a["thin"]
            tracer.counts["averaging.mcmc_steps"] += burn_in + a["T"] * thin

    span, count = tracer.span, tracer.count
    return [
        (pl, "load_inputs", span("data.load_inputs", pl.load_inputs)),
        (pl, "build_substrate", span("weights.build_substrate", pl.build_substrate)),
        (pl, "learn_communities", span("pipeline.learn", pl.learn_communities)),
        (wt, "mutual_information", count("weights.mi_calls", wt.mutual_information,
                                         on_call=mi_pair)),
        (pa, "consensus_partition", span("partition.consensus", pa.consensus_partition)),
        (wt, "weight_matrix", span("partition.weight_matrix", wt.weight_matrix)),
        (pa, "link_communities", span("partition.link_communities", pa.link_communities)),
        (bl, "community_blanket", span("blankets.community_blanket", bl.community_blanket)),
        (bl, "g_test", count("blankets.ci_tests", bl.g_test)),
        (bl, "conditional_mutual_information",
         count("blankets.cmi_calls", bl.conditional_mutual_information)),
        (av, "learn_structure", span("averaging.learn_structure", av.learn_structure)),
        (av, "order_mcmc", span("averaging.order_mcmc", av.order_mcmc, on_call=mcmc_steps)),
        (av, "greedy_learn", span("averaging.greedy_learn", av.greedy_learn)),
        (av, "logsumexp", count("averaging.logsumexp_calls", av.logsumexp)),
        (av.ScoreCache, "family_score",
         count("averaging.family_lookups", av.ScoreCache.family_score)),
        (av, "bdeu_family_score",
         count("averaging.family_scores_computed", av.bdeu_family_score, timed=True)),
        (mg, "merge_all", span("merge.merge_all", mg.merge_all)),
        (mg, "resolve", span("merge.resolve", mg.resolve)),
        (mg, "jaccard", count("merge.jaccard_calls", mg.jaccard)),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Trace the layers of the imported ``bnsl`` package inside the block.

    Each function is replaced under its own name in every ``bnsl`` module
    that holds it (``from .x import f`` copies the reference), and in its
    home object, which covers methods and module-internal calls.
    """
    bnsl = sys.modules["bnsl"]
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "bnsl" or k.startswith("bnsl.")) and m is not None]
    saved: list[tuple[object, str, object]] = []
    try:
        for home, attr, wrapper in _plan(tracer, bnsl):
            orig = inspect.getattr_static(home, attr)
            targets = [home] + [m for m in modules
                                if m is not home and getattr(m, attr, None) is orig]
            for t in targets:
                saved.append((t, attr, orig))
                setattr(t, attr, wrapper)
        yield tracer
    finally:
        for t, attr, orig in reversed(saved):
            setattr(t, attr, orig)
