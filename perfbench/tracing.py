"""In-memory span recorder for the benchmark's traced runs.

The benchmark never edits the program: it records spans by wrapping the
public functions each layer exposes (see ``layers.py``) and restores the
originals afterwards.  Every wrapped call opens a *frame*; a frame's self
time is its duration minus the time its direct child frames cover, which
is exact because frames nest strictly within one thread.

Three kinds of wrapper keep the cost proportional to what is needed:

* ``span``  -- a frame plus a span record (name, start, end, parent,
  request id, pid) kept in memory and written out at exit;
* ``tally`` -- a frame without a record, for calls made once per slice
  or per instruction block (a record each would swamp memory);
* ``count`` -- a call counter only, for per-instruction calls.

Pool workers inherit the wrappers when the pool forks.  A worker resets
its copy of the recorder when its initializer runs and, after every task,
writes its totals and new span records to ``<worker_dir>/<pid>.*`` so the
parent can merge them (:meth:`Tracer.merge_workers`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Frames, totals and span records of one traced job."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 worker_dir: Optional[str] = None) -> None:
        self.clock = clock
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded.  The dicts are cleared in place:
        the installed wrappers hold references to them."""
        #: name -> [calls, seconds, self seconds]; calls and seconds count
        #: only the outermost of nested same-name frames
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = getattr(self, "counts", {})
        self.counts.clear()
        #: names of the frames currently open -> nesting depth
        self.depth: Dict[str, int] = getattr(self, "depth", {})
        self.depth.clear()
        self.spans: List[dict] = []
        self._flushed = 0
        # open frames: [name, start, child seconds, span id, request?]
        self._stack: List[list] = []
        self._requests: List[str] = []
        self._next_id = 0

    # -- frames -----------------------------------------------------------
    def begin(self, name: str, record: bool = False,
              request: bool = False) -> None:
        """Open a frame; ``request`` frames also start a request id."""
        span_id = None
        if record or request:
            self._next_id += 1
            span_id = f"{self.pid}:{self._next_id}"
        if request:
            self._requests.append(span_id)
        self.depth[name] = self.depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0, span_id, request])

    def end(self) -> None:
        """Close the innermost frame and account for its time."""
        name, start, child, span_id, request = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        depth = self.depth[name] - 1
        self.depth[name] = depth
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        if depth == 0:
            total[0] += 1
            total[1] += duration
        total[2] += duration - child
        if span_id is not None:
            parent = next((frame[3] for frame in reversed(self._stack)
                           if frame[3] is not None), None)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent,
                "request": self._requests[-1] if self._requests
                else span_id,
                "pid": self.pid})
        if request:
            self._requests.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- derived figures ----------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (the name's first component)."""
        out: Dict[str, float] = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def span_total_s(self, name: str, within: str) -> float:
        """Seconds of ``name`` spans that have a ``within`` ancestor."""
        by_id = {span["id"]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] != within:
                parent = by_id.get(parent["parent"])
            if parent is not None:
                total += span["end"] - span["start"]
        return total

    # -- pool workers ---------------------------------------------------------
    def enter_worker(self) -> None:
        """Forget what the forked parent had recorded; start afresh."""
        self.pid = os.getpid()
        self.reset()

    def flush(self) -> None:
        """Worker side: persist totals and any new span records."""
        if self.worker_dir is None:
            return
        base = os.path.join(self.worker_dir, str(self.pid))
        with open(base + ".spans.jsonl", "a") as handle:
            for span in self.spans[self._flushed:]:
                handle.write(json.dumps(span) + "\n")
        self._flushed = len(self.spans)
        tmp = base + ".totals.tmp"
        with open(tmp, "w") as handle:
            json.dump({"totals": self.totals, "counts": self.counts}, handle)
        os.replace(tmp, base + ".totals.json")

    def merge_workers(self) -> int:
        """Parent side: fold every worker's files in; returns workers."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return 0
        workers = 0
        for entry in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, entry)
            if entry.endswith(".totals.json"):
                workers += 1
                with open(path) as handle:
                    data = json.load(handle)
                for name, (calls, total, own) in data["totals"].items():
                    mine = self.totals.setdefault(name, [0, 0.0, 0.0])
                    mine[0] += calls
                    mine[1] += total
                    mine[2] += own
                for name, value in data["counts"].items():
                    self.count(name, value)
            elif entry.endswith(".spans.jsonl"):
                with open(path) as handle:
                    self.spans.extend(json.loads(line) for line in handle)
        return workers

    def write(self, path: str) -> None:
        """Write every span record and the totals out as one JSON file."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "totals": self.totals,
                       "counts": self.counts}, handle)


class Patcher:
    """Replaces functions and methods, and puts every original back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, owner: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def function(self, module_name: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Wrap a module function in every ``repro`` module bound to it.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss callers that imported it by name.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = functools.wraps(original)(make(original))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def framed(tracer: Tracer, name: str, record: bool = False,
           request: bool = False) -> Callable[[Callable], Callable]:
    """Wrapper factory: run the call inside a ``name`` frame."""
    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.begin(name, record, request)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
        return wrapper
    return make


def counted(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: count calls, nothing else."""
    counts = tracer.counts

    def make(fn: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper
    return make
