"""The bounded admission queue feeding the serving thread.

``queue.Queue`` cannot express the two things the serving layer needs —
*reject-don't-block* admission and *coalescing* batch pops — so this is
a small condition-variable queue purpose-built for them:

* :meth:`offer` is non-blocking admission control: it returns ``False``
  the instant the queue is at depth (the caller sheds with a typed
  ``Overloaded``), never buffering beyond the bound;
* :meth:`take_batch` blocks until at least one item arrives, takes
  whatever else the queue holds (bounded by ``max_batch``), which is
  what makes cross-request factor sharing pay, and optionally lingers
  for stragglers (the service passes ``0``; the ingest pipeline
  coalesces update events over its ``coalesce_window_s``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Generic, TypeVar

T = TypeVar("T")


class AdmissionQueue(Generic[T]):
    """Bounded MPMC queue with shed-on-full and batch dequeue."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._items: deque[T] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def offer(self, item: T) -> bool:
        """Admit ``item`` unless the queue is full or closed.

        Returns ``True`` on admission; ``False`` means *shed now* (the
        queue never blocks a producer and never exceeds its depth).
        Raises ``RuntimeError`` when closed — producers should have
        stopped already.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._items) >= self.depth:
                return False
            self._items.append(item)
            self._not_empty.notify()
            return True

    def take_batch(
        self,
        max_batch: int,
        window_s: float,
        poll_s: float = 0.05,
    ) -> list[T]:
        """Dequeue one micro-batch.

        Blocks (in ``poll_s`` slices, so closing wakes us promptly)
        until at least one item is available, then keeps coalescing
        arrivals for up to ``window_s`` or until ``max_batch`` items.
        Returns ``[]`` only when the queue is closed *and* drained.
        """
        batch: list[T] = []
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return batch
                self._not_empty.wait(timeout=poll_s)
            while self._items and len(batch) < max_batch:
                batch.append(self._items.popleft())
        if window_s <= 0 or len(batch) >= max_batch:
            return batch
        # linger: coalesce stragglers into the same batch
        deadline = time.monotonic() + window_s
        while len(batch) < max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            with self._not_empty:
                if not self._items:
                    if self._closed:
                        break
                    self._not_empty.wait(timeout=remaining)
                while self._items and len(batch) < max_batch:
                    batch.append(self._items.popleft())
        return batch

    # ------------------------------------------------------------------
    def drain(self) -> list[T]:
        """Remove and return everything queued (used on hard shutdown)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def close(self) -> None:
        """Stop admission and wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def wait_empty(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty (the graceful-drain barrier)."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._lock:
                if not self._items:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.001)


__all__ = ["AdmissionQueue"]
