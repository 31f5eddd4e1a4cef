"""Timing spans around the public functions of each ``repro`` layer.

The traced benchmark run wraps functions from outside the program: the
program is not edited, its module attributes are.  Each call into a
wrapped function records one span -- name, start, end, parent span,
process -- plus a few measured extras (instructions, bytes, lanes).

Engine pool workers are forked from the process that installed the
wrappers, so they inherit them.  A worker appends its finished spans to
``<spool_dir>/<pid>.jsonl`` each time its span stack returns to the
depth it was forked at (the end of one engine job), so its spans reach
the parent whether or not the pool shuts its workers down cleanly.
Times come
from ``time.perf_counter``, which on Linux is ``CLOCK_MONOTONIC``:
one clock for the whole machine, so spans of parent and workers can be
compared directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``measure(args, kwargs, result) -> {extra: number}`` for one call.
Measure = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """In-memory span recorder for one process tree."""

    def __init__(self, spool_dir: pathlib.Path) -> None:
        self.spool_dir = pathlib.Path(spool_dir)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.stack: List[str] = []
        self.base_depth = 0
        self.finished: List[Dict] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits the parent's open stack (its first spans
        # hang under the span that forked it) but none of the parent's
        # finished spans, which the parent reports itself.
        self.pid = os.getpid()
        self.finished = []
        self.base_depth = len(self.stack)

    def wrap(
        self, name: str, fn: Callable, measure: Optional[Measure] = None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{tracer.pid}:{tracer._next_id}"
            tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            result = None
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                extra = (
                    measure(args, kwargs, result)
                    if returned and measure is not None
                    else {}
                )
                tracer._close(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "pid": tracer.pid,
                        **extra,
                    }
                )

        return traced

    def _close(self, span: Dict) -> None:
        self.finished.append(span)
        if self.pid != self.owner_pid and len(self.stack) == self.base_depth:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            with open(self.spool_dir / f"{self.pid}.jsonl", "a") as spool:
                for record in self.finished:
                    spool.write(json.dumps(record) + "\n")
            self.finished = []

    def collect(self) -> List[Dict]:
        """Every finished span: this process's plus the spooled ones."""
        spans = list(self.finished)
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("*.jsonl")):
                with open(path) as spool:
                    spans.extend(json.loads(line) for line in spool)
        return spans


def _resolve(module: str, qualname: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(
    tracer: Tracer,
    targets: Iterable[Tuple[str, str, str, Optional[Measure]]],
    package: str = "repro",
) -> None:
    """Wrap every ``(span name, module, qualname, measure)`` target.

    A module-level function is also rebound wherever another loaded
    ``package`` module imported it by name (``from x import f``), so
    the wrapper sees calls through every alias.  Methods are wrapped
    on their class, classmethods keep their binding.
    """
    for name, module, qualname, measure in targets:
        owner, attr = _resolve(module, qualname)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(
                    owner, attr,
                    classmethod(tracer.wrap(name, raw.__func__, measure)),
                )
            else:
                setattr(owner, attr, tracer.wrap(name, raw, measure))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, traced)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> its duration minus the part of its interval that its
    child spans cover.  Children may overlap each other (jobs on two
    pool workers under one engine map), so the covered part is the
    union of their intervals, clipped to the parent's."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            [
                (max(a, start), min(b, end))
                for a, b in children.get(span["id"], ())
            ]
        )
        out[span["id"]] = (end - start) - covered
    return out


def aggregate(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s``, summed extras."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span in spans:
        bucket = out[span["name"]]
        bucket["calls"] += 1
        bucket["self_s"] += selfs[span["id"]]
        for key, value in span.items():
            if key not in ("id", "parent", "name", "start", "end", "pid"):
                bucket[key] += value
    return out
