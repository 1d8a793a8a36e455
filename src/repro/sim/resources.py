"""Shared resources for simulated processes.

:class:`Resource` is a counted semaphore with FIFO queuing (the
checkpoint chunk pipeline's NIC send slot and staging buffers).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.events import Event


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot.

    Usable as a context manager inside process generators::

        with resource.request() as req:
            yield req
            ... hold the slot ...
        # released on exit
    """

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim, name=f"Request({resource.name})")
        self.resource = resource
        self._released = False

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        if self._released:
            return
        self._released = True
        self.resource._release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (idempotent, safe if granted)."""
        self.release()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Resource:
    """Counted FIFO resource with ``capacity`` slots."""

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            if req._released:
                continue  # cancelled while queued
            self._users.append(req)
            req.succeed(req)

    def _release(self, req: Request) -> None:
        if req in self._users:
            self._users.remove(req)
        self._grant()
