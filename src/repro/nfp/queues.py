"""Inter-FPC communication structures (paper §4, §4.1).

* :class:`Ring` — a producer/consumer work ring: island-local in CLS
  (the fastest intra-island mechanism) or IMEM/EMEM-backed for
  cross-island communication, where the queue memory engine supports
  work stealing so one ring may feed several consumer FPCs.
* :class:`TicketLock` — FPC synchronization primitive used by the
  sequencer to order segments.
"""

from repro.sim import Store


class Ring:
    """A work ring between FPCs, bounded by ``capacity`` (None: unbounded)."""

    __slots__ = ("store", "name", "tap")

    def __init__(self, sim, capacity=None, name="ring"):
        self.store = Store(sim, capacity=capacity, name=name)
        self.name = name
        # Optional enqueue observer (``tap(item)``), fired synchronously
        # before the item enters the store. Used by the happens-before
        # runtime monitor (repro.analysis.hbmonitor); None in production,
        # so the cost is one attribute check per put.
        self.tap = None

    def put(self, item):
        if self.tap is not None:
            self.tap(item)
        return self.store.put(item)

    def get(self):
        return self.store.get()

    def try_put(self, item):
        accepted = self.store.try_put(item)
        if accepted and self.tap is not None:
            self.tap(item)
        return accepted

    def force_put(self, item):
        """Unconditional enqueue past the capacity bound (overflow path)."""
        if self.tap is not None:
            self.tap(item)
        return self.store.force_put(item)

    def __len__(self):
        return len(self.store)

    @property
    def max_occupancy(self):
        return self.store.max_occupancy


class TicketLock:
    """A fair spin lock: acquire order equals ticket order."""

    __slots__ = ("sim", "name", "_next_ticket", "_now_serving", "_waiters")

    def __init__(self, sim, name="ticket-lock"):
        self.sim = sim
        self.name = name
        self._next_ticket = 0
        self._now_serving = 0
        self._waiters = {}

    def acquire(self):
        """Returns an event that fires when the caller holds the lock."""
        ticket = self._next_ticket
        self._next_ticket += 1
        event = self.sim.event()
        if ticket == self._now_serving:
            event.succeed(ticket)
        else:
            self._waiters[ticket] = event
        return event

    def release(self):
        self._now_serving += 1
        waiter = self._waiters.pop(self._now_serving, None)
        if waiter is not None:
            waiter.succeed(self._now_serving)

    @property
    def queued(self):
        return len(self._waiters)
