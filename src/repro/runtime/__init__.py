"""Concurrent peer runtime: the paper's protocol as live asyncio tasks.

Where :mod:`repro.p2p` executes the Distributed Pagerank protocol in
synchronised passes, this package *runs* it asynchronously — the
repo's one asynchronous engine: every peer is an asyncio task behind a
:class:`Mailbox`, exchanging the same priced wire messages
(:mod:`repro.p2p.messages`) over a pluggable :class:`Transport` with
reliable delivery — acks, capped backoff, a retry budget — matching
:class:`repro.faults.ReliableTransport` semantics (docs/PROTOCOL.md
§13, §14).  Seeded latency models (:class:`FixedLatency`,
:class:`UniformLatency`, :class:`ExponentialLatency`), continuous-time
:class:`OnOffSchedule` churn and the receiver ``batch_window`` vary
the delivery schedule; asynchronous iteration reaches the same fixed
point under any of them.

Entry point is :class:`AsyncPeerRuntime`, with two scheduler modes:

* :meth:`AsyncPeerRuntime.run` — seeded deterministic mode (virtual
  clock, totally ordered delivery and draining); reproducible, and
  differential-tested against the pass-based simulator within the
  paper's error bound.
* :meth:`AsyncPeerRuntime.run_realtime` — free-running mode (real
  clock; optionally :class:`TcpTransport` over loopback sockets).

See docs/ARCHITECTURE.md for where this layer sits, and
docs/OBSERVABILITY.md for the ``runtime.*`` metric family it emits.
"""

from repro.runtime.clock import RealClock, VirtualClock
from repro.runtime.mailbox import Mailbox, WorkTracker
from repro.runtime.node import PeerNode
from repro.runtime.reliability import AsyncFlight, FlightTracker
from repro.runtime.runtime import AsyncPeerRuntime, RuntimeReport
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import (
    Envelope,
    ExponentialLatency,
    FixedLatency,
    InMemoryTransport,
    LatencyModel,
    OnOffSchedule,
    Transport,
    UniformLatency,
    decode_envelope,
    encode_envelope,
)

__all__ = [
    "AsyncPeerRuntime",
    "RuntimeReport",
    "Transport",
    "InMemoryTransport",
    "TcpTransport",
    "Envelope",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "OnOffSchedule",
    "Mailbox",
    "WorkTracker",
    "PeerNode",
    "FlightTracker",
    "AsyncFlight",
    "VirtualClock",
    "RealClock",
    "encode_envelope",
    "decode_envelope",
]
