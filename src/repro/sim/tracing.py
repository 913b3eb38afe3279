"""Structured trace bus.

Subsystems publish :class:`TraceRecord` entries (scheduling decisions,
packet drops, container charges, ...) to a :class:`TraceBus`.  Consumers
subscribe by category.  Tracing is off by default and costs one attribute
read per publish site, so instrumented code paths stay cheap in large runs.

The experiment harnesses use traces to assemble the per-figure series; the
tests use them to assert on internal behaviour (e.g. "the SYN was dropped
before protocol processing").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple


class TraceRecord(NamedTuple):
    """One trace entry (immutable; a tuple, so cheap to build).

    Attributes:
        time: simulated time (microseconds) at which the event occurred.
        category: dotted event name, e.g. ``"net.drop"`` or ``"sched.pick"``.
        data: free-form payload describing the event.
    """

    time: float
    category: str
    data: dict


class TraceBus:
    """Publish/subscribe hub for trace records.

    ``publish`` is on the hot path of every instrumented subsystem, so
    each category's route -- the handlers whose key matches it, and the
    recording list if the active recording captures it -- is memoized:
    the ``startswith`` scans run once per distinct category, not once
    per publish.  ``subscribe``, ``record`` and ``stop_recording`` drop
    the memo (categories are few, those calls are rare, publishes are
    millions).
    """

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callable[[TraceRecord], None]]] = {}
        self._recording: list[TraceRecord] | None = None
        self._record_categories: set[str] | None = None
        #: category -> (matched handlers, recording list or None).
        self._routes: dict[str, tuple] = {}
        #: True while any subscriber or recorder is attached; a plain
        #: attribute, so an un-observed publish site pays one read.
        self.active = False

    def subscribe(
        self, category: str, handler: Callable[[TraceRecord], None]
    ) -> None:
        """Register ``handler`` for records whose category matches.

        A category of ``"*"`` receives everything; otherwise matching is by
        exact category or by dotted prefix (subscribing to ``"net"``
        receives ``"net.drop"``).
        """
        self._subscribers.setdefault(category, []).append(handler)
        self._routes.clear()
        self.active = True

    def record(self, categories: Iterable[str] | None = None) -> list[TraceRecord]:
        """Start recording matching records into a list, and return it.

        Args:
            categories: restrict recording to these categories (prefix
                matched); None records everything.
        """
        self._recording = []
        self._record_categories = set(categories) if categories is not None else None
        self._routes.clear()
        self.active = True
        return self._recording

    def stop_recording(self) -> list[TraceRecord]:
        """Stop recording and return the captured records."""
        captured = self._recording or []
        self._recording = None
        self._record_categories = None
        self._routes.clear()
        self.active = bool(self._subscribers)
        return captured

    def publish(self, time: float, category: str, **data: Any) -> None:
        """Publish one record.  Cheap no-op when nothing is attached.

        The record object is only constructed once the category is known
        to reach a recorder or at least one handler, so publishers of
        unwatched categories pay a dict lookup but no allocation.
        """
        if not self.active:
            return
        route = self._routes.get(category)
        if route is None:
            route = self._routes[category] = self._route(category)
        handlers, recording = route
        if not handlers and recording is None:
            return
        record = TraceRecord(time, category, data)
        if recording is not None:
            recording.append(record)
        for handler in handlers:
            handler(record)

    def _route(self, category: str) -> tuple:
        """(handlers whose key matches ``category``, recording or None).

        Subscription (hence registration) order is preserved within and
        across keys, matching the pre-memoization dispatch order.
        """
        handlers = []
        for key, subscribed in self._subscribers.items():
            if key == "*" or category == key or category.startswith(key + "."):
                handlers.extend(subscribed)
        recording = self._recording
        keys = self._record_categories
        if keys is not None and not any(
            category == key or category.startswith(key + ".") for key in keys
        ):
            recording = None
        return tuple(handlers), recording
