"""Outside-in layer timing for the traced pass.

``LayerTimer.install`` replaces each public function named in the
adapter's wrap-point table with a wrapper that, while the timer is
enabled, records one span ``(name, start, end, parent, op_id)`` and
charges the function's *self* time — its duration minus the time spent
in wrappers nested inside it — to its span name.  Nothing in ``src/``
is edited: the wrappers are installed and removed from here.

A wrap point that no longer exists is skipped and listed in
``missing``; metrics built from it read ``None``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["LayerTimer"]


class LayerTimer:
    def __init__(self) -> None:
        self.enabled = False
        #: Operation ordinal stamped on every span recorded from now on.
        self.op_id = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: ``(id, name, start_ns, end_ns, parent_id, op_id)`` per span, in
        #: completion order; ``parent_id`` is ``-1`` for a root span.
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        #: Thread id -> summed duration of its root spans (time under
        #: at least one wrapper on that thread).
        self.root_ns: dict[int, int] = defaultdict(int)
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        # The daemon clients' I/O threads run codec wrappers too.
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[list[int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            stack = self._stack()
            frame = [next(self._ids), 0]  # span id, ns spent in children
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_ns[threading.get_ident()] += duration
                self.spans.append(
                    (frame[0], name, start, end, parent, self.op_id)
                )

        return wrapper

    def install(self, wrap_points: dict[str, str], resolve) -> None:
        """Wrap every resolvable point; remember how to undo it."""
        for name, target in wrap_points.items():
            resolved = resolve(target)
            if resolved is None:
                self.missing.append(name)
                print(
                    f"warning: wrap point {name!r} ({target}) no longer "
                    f"exists; its metrics read null",
                    file=sys.stderr,
                )
                continue
            owner, attribute, function = resolved
            setattr(owner, attribute, self.wrap(name, function))
            self._installed.append((owner, attribute, function))

    def uninstall(self) -> None:
        for owner, attribute, function in reversed(self._installed):
            setattr(owner, attribute, function)
        self._installed = []

    # -- reading --------------------------------------------------------
    def self_ms(self, *prefixes: str) -> float | None:
        """Summed self time of the span names under ``prefixes``;
        ``None`` when any of them lost its wrap point."""
        if any(_under(name, prefixes) for name in self.missing):
            return None
        return sum(
            ns for name, ns in self.self_ns.items() if _under(name, prefixes)
        ) / 1e6

    def call_count(self, *prefixes: str) -> int | None:
        if any(_under(name, prefixes) for name in self.missing):
            return None
        return sum(
            count for name, count in self.calls.items()
            if _under(name, prefixes)
        )

    def durations_ms(self, name: str) -> list[float]:
        return [
            (end - start) / 1e6
            for _, span, start, end, _, _ in self.spans
            if span == name
        ]

    def dump(self, path: Path) -> None:
        """Write the span records as JSON lines (times in ns from the
        first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op_id": op_id,
                }) + "\n")


def _under(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in prefixes
    )
