"""In-memory span tracer that wraps entry points from outside the program.

A :class:`Tracer` records one span per call into a wrapped entry point:
its name, start, end and the span that was open when it began (its
parent).  Entry points are wrapped where the caller binds them — a
function is replaced in every ``repro`` module that holds a reference
to it, a method on its class — and :meth:`Tracer.restore` puts every
original back.  Spans stay in memory until :meth:`Tracer.write`.

Two aggregates per span name:

- *inclusive* seconds count each span's full duration, except spans
  nested inside another span of the same name (recursion is counted
  once, at its outermost call);
- *self* seconds subtract, from each span, the time its direct child
  spans cover.  Spans nest strictly (one thread, a stack), so the
  children's durations never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: True when an enclosing span has the same name.
    nested_in_same: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; restores originals on demand."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        # (owner, attribute, original __dict__ entry or None if inherited)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i].name == name for i in self._stack)
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent, nested_in_same=nested))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (plain, class- or static method, or inherited)."""
        own = cls.__dict__.get(attr)
        if isinstance(own, classmethod):
            replacement: Any = classmethod(self.wrap(own.__func__, name))
        elif isinstance(own, staticmethod):
            replacement = staticmethod(self.wrap(own.__func__, name))
        else:
            replacement = self.wrap(getattr(cls, attr), name)
        self._patches.append((cls, attr, own))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable[..., Any], name: str, prefix: str = "repro") -> int:
        """Wrap ``fn`` in every loaded module under ``prefix`` that binds it.

        Returns the number of bindings replaced (callers that did
        ``from module import fn`` hold their own reference, so each
        binding is patched separately).
        """
        traced = self.wrap(fn, name)
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)
                    count += 1
        return count

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregation and output
    # ------------------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, ``inclusive_s`` and ``self_s``."""
        result: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            entry = result.setdefault(
                span.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += own
            if not span.nested_in_same:
                entry["inclusive_s"] += span.seconds
        return result

    def write(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        document = {
            "summary": self.summary(),
            "spans": [
                {
                    "id": index,
                    "name": span.name,
                    "parent": span.parent,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "self_s": own,
                }
                for index, (span, own) in enumerate(zip(self.spans, self.self_seconds()))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
