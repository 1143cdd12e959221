"""In-memory spans recorded from the benchmark's side of each layer call.

The traced run wraps the public calls it times (``OptimizedLSTM.run``,
``LSTMExecutor.run_batch`` / ``kernel_trace``, ``TimingSimulator.run_trace``,
``StreamingServer.tick``) for the duration of a ``with tracer.wrapped(...)``
block, then restores them. Spans stay in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans ``(id, parent, request, name, start_s, end_s)`` plus sums by name.

    ``request`` is set by the caller to the unit of work under way (a batch
    round, a sweep unit, a stream slice); every span opened meanwhile
    carries it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self._stack: list[int] = []
        self.request = ""
        self.total_s: dict[str, float] = defaultdict(float)
        #: Per span name, a callback given each wrapped call's return value
        #: (the traced run reads ``ExecutionResult`` and ``TraceSummary``
        #: objects this way).
        self.hooks: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, self.request, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.request, name, start, end)
            self.total_s[name] += end - start

    @contextlib.contextmanager
    def wrapped(self, targets: dict[str, tuple[type, str]]):
        """Time every call of ``cls.method`` as span ``name`` inside the block."""
        saved = []
        for name, (cls, attr) in targets.items():
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, self._timed(name, original))
        try:
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(out)
            return out

        return timed

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_s": start, "end_s": end,
                }) + "\n")
