"""Timing spans recorded from outside the program.

The benchmark does not edit `spisim`; it replaces names in the namespaces
where callers look them up (module globals, class attributes) with wrappers
that open a span around the call. Spans nest through a stack. Each closed
span adds its duration to its name's inclusive time, and that duration
minus its children's durations to its name's self time, so the self times of
all spans under a root add up to the root's duration exactly.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds) plus free-form counters; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.process_time   # CPU seconds, like the worker's cycle times


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []          # [name, start, child_seconds]
        self._patches = []        # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def open(self, name):
        self._stack.append([name, _clock(), 0.0])

    def close(self):
        name, start, child = self._stack.pop()
        dur = _clock() - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name, amount=1):
        self.counters[name] += amount

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """fn inside a span `name`; after(result, args, kwargs) may count."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapped

    def wrap_generator(self, fn, name):
        """Each next() of the generator fn returns is a span `name`."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield item

        return wrapped

    def patch(self, owner, attr, wrapper):
        """Replace owner.attr by wrapper(owner.attr); undone by restore()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
