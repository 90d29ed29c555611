"""Reference implementations the differential suites compare against.

Oracles are test-side code: production modules carry no switch, branch
or hook for them.  Each subclasses the production class and replaces the
optimized decisions with the obvious ones, so a defect in the optimized
path shows up as a disagreement.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.network import Switch


class HeapSimulator(Simulator):
    """The reference scheduler: one binary heap for every timed entry.

    Overrides the three scheduling sites production inlines
    (``timeout``/``sleep``/``_schedule_event``) with the plain
    constructor path and a ``heappush``; dispatch is the inherited
    merge, which with an empty lane is a heap pop.  Sleeps are fresh
    (unpooled) timeouts.
    """

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    sleep = timeout

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._seq += 1
        if delay == 0.0:
            self._now_bucket.append((self._seq, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._seq, event))


class ReferenceSwitch(Switch):
    """The brute-force oracle: every event re-solves the whole topology.

    Each arrival is solved on the spot (no same-instant batching), every
    solve banks and re-rates *all* active flows (no component scoping),
    rates come from textbook progressive filling (no fast paths), and a
    rate change re-solves even when it touches no flow.  Banking, the
    completion heap and delivery are inherited.
    """

    def transfer(self, src, dst, nbytes):
        done = super().transfer(src, dst, nbytes)
        self._flush_pending()
        return done

    def set_nic_rates(self, nic, tx_rate=None, rx_rate=None):
        super().set_nic_rates(nic, tx_rate=tx_rate, rx_rate=rx_rate)
        self._update([])

    def _component(self, dirty_ports):
        return list(self._flows)

    def _solve(self, flows, now):
        ports = {port for flow in flows for port in (flow.src_port, flow.dst_port)}
        cap = {port: port.capacity for port in ports}
        unfrozen = list(flows)
        while unfrozen:
            load = {port: 0 for port in ports}
            for flow in unfrozen:
                load[flow.src_port] += 1
                load[flow.dst_port] += 1
            offers = {p: max(cap[p], 0.0) / load[p] for p in ports if load[p]}
            share = min(offers.values())
            bottlenecks = {p for p, offer in offers.items() if offer == share}
            for flow in unfrozen:
                if flow.src_port in bottlenecks or flow.dst_port in bottlenecks:
                    cap[flow.src_port] -= share
                    cap[flow.dst_port] -= share
                    self._set_rate(flow, share, now)
            unfrozen = [
                flow
                for flow in unfrozen
                if flow.src_port not in bottlenecks and flow.dst_port not in bottlenecks
            ]
