"""The query-serving session: load + routing over a live runtime.

This is the paper's end product assembled (§2.4, §4.9): peers keep the
chaotic pagerank iteration running in the background
(:class:`~repro.runtime.AsyncPeerRuntime`, deterministic scheduler)
while the same peer population answers rank-ordered keyword queries
over the distributed index.  :class:`ServeSession` wires the pieces:

* a seeded :class:`~repro.serve.loadgen.LoadGenerator` offers queries;
* an :class:`~repro.serve.admission.AdmissionController` bounds each
  entry peer's queue, shedding into capped-backoff retries;
* a :class:`~repro.serve.router.QueryRouter` executes admitted queries
  with the §2.4.3 top-x% protocol, priced on the §4.6 transfer model;
* a :class:`~repro.serve.cache.ResultCache` answers repeats, dropped
  whenever the background ranks drift past the staleness bound ε and
  the index is refreshed (§2.4.2 index-update messages).

Serving shares the runtime's virtual clock through ``round_hook`` but
is **read-only** towards the computation: query traffic is priced on
its own channel and the hook only ever *reads* runtime state
(:meth:`~repro.runtime.AsyncPeerRuntime.gather_ranks`), so ranks with
serving enabled are byte-identical to a serving-disabled run of the
same seed — the invariant ``make serve-smoke`` checks
(docs/SERVING.md, "Determinism contract").
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.transport import ReliabilityConfig
from repro.obs import get_registry
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime, RuntimeReport
from repro.search.baseline import order_terms
from repro.search.bloom import DOC_ID_BYTES
from repro.search.corpus import CorpusConfig, synthesize_corpus
from repro.search.index import DistributedIndex
from repro.search.query import Query
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.loadgen import LoadGenerator, QueryArrival
from repro.serve.router import QueryRouter
from repro.simulation.timing import RATE_200KBPS, TransferModel

__all__ = ["ServeConfig", "ServeReport", "ServeSession", "QueryRecord", "run_serve"]


class _ServeInstruments:
    """Registry handles for the serving layer's emissions (no-op under
    the default disabled registry).  Catalogued in
    docs/OBSERVABILITY.md §13."""

    __slots__ = (
        "offered", "completed", "shed", "retried", "dropped",
        "cache_hits", "cache_misses", "cache_invalidations",
        "rank_refreshes", "index_updates", "latency", "dht_hops",
        "wire_bytes", "queue_peak", "achieved_qps", "shed_rate",
        "hit_rate",
    )

    def __init__(self, reg) -> None:
        self.offered = reg.counter(
            "serve.queries_offered", unit="queries",
            description="queries offered by the load generator (first attempts)",
        )
        self.completed = reg.counter(
            "serve.queries_completed", unit="queries",
            description="queries answered (routed or cache-served)",
        )
        self.shed = reg.counter(
            "serve.queries_shed", unit="offers",
            description="admission refusals at a full entry-peer queue",
        )
        self.retried = reg.counter(
            "serve.queries_retried", unit="offers",
            description="backoff re-offers of previously shed queries",
        )
        self.dropped = reg.counter(
            "serve.queries_dropped", unit="queries",
            description="queries abandoned after the retry budget",
        )
        self.cache_hits = reg.counter(
            "serve.cache_hits", unit="lookups",
            description="result-cache lookups answered without routing",
        )
        self.cache_misses = reg.counter(
            "serve.cache_misses", unit="lookups",
            description="result-cache lookups that had to route",
        )
        self.cache_invalidations = reg.counter(
            "serve.cache_invalidations", unit="entries",
            description="cached results dropped by TTL or rank-version bump",
        )
        self.rank_refreshes = reg.counter(
            "serve.rank_refreshes", unit="refreshes",
            description="index refreshes after rank drift crossed ε",
        )
        self.index_updates = reg.counter(
            "serve.index_update_messages", unit="messages",
            description="§2.4.2 index-update messages charged by refreshes",
        )
        self.latency = reg.histogram(
            "serve.query_latency", unit="time",
            description="arrival-to-answer latency per completed query",
        )
        self.dht_hops = reg.counter(
            "serve.dht_hops", unit="hops",
            description="Chord hops paid for term-owner discovery",
        )
        self.wire_bytes = reg.counter(
            "serve.bytes_on_wire", unit="bytes",
            description="priced query traffic (doc ids + control messages)",
        )
        self.queue_peak = reg.gauge(
            "serve.queue_depth_peak", unit="queries",
            description="largest entry-peer queue depth observed",
        )
        self.achieved_qps = reg.gauge(
            "serve.achieved_qps", unit="queries/time",
            description="completed queries per clock unit over the run",
        )
        self.shed_rate = reg.gauge(
            "serve.shed_rate", unit="ratio",
            description="shed offers / total offers at run end",
        )
        self.hit_rate = reg.gauge(
            "serve.cache_hit_rate", unit="ratio",
            description="result-cache hit rate at run end",
        )


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of one serving session.

    Times are virtual-clock units (the runtime's ``pass_time=1.0``
    deterministic base — treat them as seconds).  See docs/SERVING.md
    for how each knob maps onto the query path.
    """

    docs: int = 400
    peers: int = 16
    seed: int = 0
    qps: float = 50.0
    duration: float = 30.0
    loop: str = "open"
    clients: int = 8
    think_time: float = 0.0
    cache_ttl: float = 5.0
    cache_capacity: Optional[int] = None
    staleness_epsilon: float = 0.05
    refresh_every: int = 5
    fraction: float = 0.2
    min_forward: int = 20
    route_order: str = "given"
    user_top_k: Optional[int] = 50
    queue_capacity: int = 8
    rate_bytes_per_s: float = float(RATE_200KBPS)
    service_time: float = 0.002
    epsilon: float = 1e-3
    num_distinct: int = 50
    terms_per_query: int = 2
    term_pool_size: int = 100
    zipf_exponent: float = 1.0
    retry_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.loop not in ("open", "closed"):
            raise ValueError(f"loop must be 'open' or 'closed', got {self.loop!r}")
        if self.docs < 2:
            raise ValueError(f"docs must be >= 2, got {self.docs}")
        if self.peers < 1:
            raise ValueError(f"peers must be >= 1, got {self.peers}")
        if self.qps <= 0:
            raise ValueError(f"qps must be > 0, got {self.qps}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.cache_ttl < 0:
            raise ValueError(f"cache_ttl must be >= 0, got {self.cache_ttl}")
        if self.staleness_epsilon <= 0:
            raise ValueError(
                f"staleness_epsilon must be > 0, got {self.staleness_epsilon}"
            )
        if self.refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {self.refresh_every}")


@dataclass(frozen=True)
class QueryRecord:
    """One completed (or dropped) query, in completion order."""

    arrival_time: float
    finish_time: float
    latency: float
    attempts: int
    cache_hit: bool
    dropped: bool
    num_hits: int
    entry_peer: int


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one serving session (docs/SERVING.md).

    Latency percentiles are over completed queries' arrival-to-answer
    times; ``digest`` is a SHA-256 over every completion's result set
    and timing — two runs of the same config are bitwise reproducible
    iff their digests match.
    """

    offered: int
    completed: int
    cache_hits: int
    shed: int
    retries: int
    dropped: int
    qps_achieved: float
    latency_p50: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    shed_rate: float
    cache_hit_rate: float
    rank_refreshes: int
    index_update_messages: int
    traffic_doc_ids: int
    bytes_on_wire: int
    dht_hops: int
    peak_queue_depth: int
    digest: str
    records: Tuple[QueryRecord, ...]
    runtime: RuntimeReport

    def verify_invariants(self, config: ServeConfig) -> List[str]:
        """The serve-smoke probes; empty list means all hold.

        * conservation — every offered query completes or is dropped;
        * no silent drops — a dropped query exhausted its full retry
          budget first;
        * bounded queues — peak depth never exceeded the configured
          capacity (overload became shed rate, not memory).
        """
        problems: List[str] = []
        if self.offered != self.completed + self.dropped:
            problems.append(
                f"conservation: offered={self.offered} != "
                f"completed={self.completed} + dropped={self.dropped}"
            )
        budget = ReliabilityConfig().max_retries
        for r in self.records:
            if r.dropped and r.attempts < budget + 1:
                problems.append(
                    f"dropped without full retry budget: attempts={r.attempts}"
                )
                break
        if self.peak_queue_depth > config.queue_capacity:
            problems.append(
                f"queue bound violated: peak={self.peak_queue_depth} > "
                f"capacity={config.queue_capacity}"
            )
        return problems


def _corpus_config(docs: int) -> CorpusConfig:
    """Scale the paper's corpus profile down to ``docs`` documents so
    serving scenarios stay cheap (§4.9 defaults at full size)."""
    vocab = max(50, min(1_880, docs))
    stop = max(5, vocab // 20)
    return CorpusConfig(
        num_documents=docs,
        vocab_size=vocab,
        num_stopwords=stop,
        raw_vocab_size=max(4 * vocab, vocab + stop + 1),
        mean_terms_per_doc=min(800.0, max(30.0, docs / 5.0)),
    )


# Event kinds, ordered so simultaneous events process deterministically
# (completions free queue slots before new arrivals contend for them).
_FINISH, _ARRIVE = 0, 1


@dataclass
class _Event:
    time: float
    kind: int
    seq: int
    arrival: Optional[QueryArrival] = None
    attempt: int = 1
    record: Optional[QueryRecord] = None
    hits: Tuple[int, ...] = ()
    version: int = 0


class ServeSession:
    """One seeded, bitwise-reproducible serving run.

    Builds the corpus, index, runtime, and serving components from a
    :class:`ServeConfig`; :meth:`run` executes the background pagerank
    computation with the query loop riding its ``round_hook`` and
    returns a :class:`ServeReport`.  Sessions are single-shot, like the
    runtime they wrap.

    ``tiebreak`` (the sanitizer explorer's schedule perturbation) and
    ``registry`` pass straight through to the runtime.
    """

    def __init__(self, config: ServeConfig, *, tiebreak=None, registry=None) -> None:
        self.config = config
        reg = registry if registry is not None else get_registry()
        self._obs = _ServeInstruments(reg)
        self.corpus = synthesize_corpus(
            _corpus_config(config.docs), seed=config.seed, with_links=True
        )
        graph = self.corpus.link_graph
        assert graph is not None
        placement = DocumentPlacement.random(
            config.docs, config.peers, seed=config.seed + 1
        )
        self.network = P2PNetwork(config.peers, placement)
        self.runtime = AsyncPeerRuntime(
            graph,
            self.network,
            epsilon=config.epsilon,
            seed=config.seed + 2,
            tiebreak=tiebreak,
            registry=registry,
        )
        init_ranks = np.full(config.docs, 1.0, dtype=np.float64)
        self.index = DistributedIndex(self.corpus, init_ranks, config.peers)
        self._published_ranks = init_ranks
        self.router = QueryRouter(
            self.index,
            self.network.ring,
            TransferModel(rate_bytes_per_s=config.rate_bytes_per_s),
            fraction=config.fraction,
            min_forward=config.min_forward,
            route_order=config.route_order,
            user_top_k=config.user_top_k,
            service_time=config.service_time,
        )
        self.cache = (
            ResultCache(config.cache_ttl, capacity=config.cache_capacity)
            if config.cache_ttl > 0
            else None
        )
        self.admission = AdmissionController(
            config.queue_capacity, retry_scale=config.retry_scale
        )
        self.loadgen = LoadGenerator(
            self.corpus,
            config.peers,
            seed=config.seed + 3,
            num_distinct=config.num_distinct,
            terms_per_query=config.terms_per_query,
            term_pool_size=config.term_pool_size,
            zipf_exponent=config.zipf_exponent,
        )
        self.rank_version = 0
        # Heap of ``(time, kind, seq, event)``: ``seq`` is unique, so
        # the tuples order without ever comparing two events.
        self._events: List[Tuple[float, int, int, _Event]] = []
        self._seq = 0
        self._peer_free: Dict[int, float] = {}
        self._records: List[QueryRecord] = []
        self._latencies: List[float] = []
        self._traffic_doc_ids = 0
        self._bytes_on_wire = 0
        self._dht_hops = 0
        self._offered = 0
        self._cache_hits = 0
        self._dropped = 0
        self._refreshes = 0
        self._index_messages = 0
        self._done = False

    # ------------------------------------------------------------------
    def _push(self, event: _Event) -> None:
        heapq.heappush(self._events, (event.time, event.kind, event.seq, event))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _schedule_arrival(self, arrival: QueryArrival, attempt: int = 1) -> None:
        self._push(
            _Event(
                time=arrival.time,
                kind=_ARRIVE,
                seq=self._next_seq(),
                arrival=arrival,
                attempt=attempt,
            )
        )

    def _seed_load(self) -> None:
        cfg = self.config
        if cfg.loop == "open":
            for arrival in self.loadgen.open_arrivals(cfg.qps, cfg.duration):
                self._schedule_arrival(arrival)
        else:
            for _ in range(cfg.clients):
                self._schedule_arrival(self.loadgen.sample(0.0))

    def _next_query(self, now: float) -> None:
        """Closed loop: the client whose query ended thinks, then asks
        again, or retires once that would fall past the run's end."""
        next_time = now + self.config.think_time
        if next_time < self.config.duration:
            self._schedule_arrival(self.loadgen.sample(next_time))

    # ------------------------------------------------------------------
    def _cache_key(self, query: Query) -> Tuple:
        return query.terms

    def _complete(
        self,
        arrival: QueryArrival,
        finish: float,
        *,
        attempts: int,
        cache_hit: bool,
        num_hits: int,
        entry_peer: int,
    ) -> None:
        latency = finish - arrival.time
        record = QueryRecord(
            arrival_time=arrival.time,
            finish_time=finish,
            latency=latency,
            attempts=attempts,
            cache_hit=cache_hit,
            dropped=False,
            num_hits=num_hits,
            entry_peer=entry_peer,
        )
        self._records.append(record)
        self._latencies.append(latency)
        self._obs.completed.inc()
        self._obs.latency.observe(latency)
        if self.config.loop == "closed":
            self._next_query(finish)

    def _handle_arrival(self, event: _Event) -> None:
        arrival = event.arrival
        assert arrival is not None
        now = event.time
        if event.attempt == 1:
            self._offered += 1
            self._obs.offered.inc()
        else:
            self._obs.retried.inc()
        key = self._cache_key(arrival.query)
        if self.cache is not None and event.attempt == 1:
            entry = self.cache.get(key, now, self.rank_version)
            if entry is not None:
                self._cache_hits += 1
                self._obs.cache_hits.inc()
                # Cache hit: only the answer travels back to the user.
                wire = len(entry.hits) * DOC_ID_BYTES
                latency = wire / self.config.rate_bytes_per_s
                self._bytes_on_wire += wire
                self._complete(
                    arrival,
                    now + latency,
                    attempts=event.attempt,
                    cache_hit=True,
                    num_hits=len(entry.hits),
                    entry_peer=arrival.portal_peer,
                )
                return
            self._obs.cache_misses.inc()
        first_term = order_terms(self.index, arrival.query, self.config.route_order)[0]
        entry_peer, _ = self.router.owner_of_term(
            first_term, from_peer=arrival.portal_peer
        )
        if not self.admission.try_admit(entry_peer, attempt=event.attempt):
            self._obs.shed.inc()
            retry_time = self.admission.retry_at(now, event.attempt)
            if retry_time is None:
                self._dropped += 1
                self._obs.dropped.inc()
                self._records.append(
                    QueryRecord(
                        arrival_time=arrival.time,
                        finish_time=now,
                        latency=now - arrival.time,
                        attempts=event.attempt,
                        cache_hit=False,
                        dropped=True,
                        num_hits=0,
                        entry_peer=entry_peer,
                    )
                )
                if self.config.loop == "closed":
                    self._next_query(now)
                return
            self._schedule_arrival(
                QueryArrival(
                    time=retry_time,
                    query=arrival.query,
                    portal_peer=arrival.portal_peer,
                ),
                attempt=event.attempt + 1,
            )
            return
        routed = self.router.route(arrival.query, arrival.portal_peer)
        self._traffic_doc_ids += routed.traffic_doc_ids
        self._bytes_on_wire += routed.bytes_on_wire
        self._dht_hops += routed.dht_hops
        self._obs.dht_hops.inc(routed.dht_hops)
        self._obs.wire_bytes.inc(routed.bytes_on_wire)
        # The entry peer serialises its admitted queries (the Eq. 4
        # serialised-transfer reading): queueing delay is time spent
        # waiting for the peer to free up.
        start = max(now, self._peer_free.get(entry_peer, 0.0))
        finish = start + routed.latency
        self._peer_free[entry_peer] = finish
        record_finish = _Event(
            time=finish,
            kind=_FINISH,
            seq=self._next_seq(),
            arrival=arrival,
            attempt=event.attempt,
            hits=routed.hits,
            version=self.rank_version,
        )
        record_finish.record = QueryRecord(
            arrival_time=arrival.time,
            finish_time=finish,
            latency=finish - arrival.time,
            attempts=event.attempt,
            cache_hit=False,
            dropped=False,
            num_hits=len(routed.hits),
            entry_peer=entry_peer,
        )
        self._push(record_finish)

    def _handle_finish(self, event: _Event) -> None:
        record = event.record
        arrival = event.arrival
        assert record is not None and arrival is not None
        self.admission.release(record.entry_peer)
        if self.cache is not None:
            # Cacheable only once computed, under the rank version the
            # routing actually read — a refresh mid-execution leaves
            # the entry born stale and it is refused at next lookup.
            self.cache.put(
                self._cache_key(arrival.query), event.hits, event.time,
                event.version,
            )
        self._complete(
            arrival,
            event.time,
            attempts=record.attempts,
            cache_hit=False,
            num_hits=record.num_hits,
            entry_peer=record.entry_peer,
        )

    def _drain(self, now: float) -> None:
        while self._events and self._events[0][0] <= now:
            event = heapq.heappop(self._events)[3]
            if event.kind == _ARRIVE:
                self._handle_arrival(event)
            else:
                self._handle_finish(event)

    # ------------------------------------------------------------------
    def _maybe_refresh(self, runtime: AsyncPeerRuntime) -> None:
        ranks = runtime.gather_ranks()
        denom = np.maximum(np.abs(self._published_ranks), 1e-12)
        drift = float(np.max(np.abs(ranks - self._published_ranks) / denom))
        if drift <= self.config.staleness_epsilon:
            return
        messages = self.index.refresh_ranks(ranks)
        self._published_ranks = ranks.copy()
        self.rank_version += 1
        self._refreshes += 1
        self._index_messages += messages
        self._obs.rank_refreshes.inc()
        self._obs.index_updates.inc(messages)
        if self.cache is not None:
            before = self.cache.stats.invalidations
            self.cache.invalidate_version(self.rank_version)
            self._obs.cache_invalidations.inc(
                self.cache.stats.invalidations - before
            )

    def _round_hook(self, rounds: int, runtime: AsyncPeerRuntime) -> None:
        if rounds % self.config.refresh_every == 0:
            self._maybe_refresh(runtime)
        self._drain(runtime.clock_now)

    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Execute the session and return its report (single-shot)."""
        if self._done:
            raise RuntimeError("ServeSession is single-shot; build a new one")
        self._done = True
        self._seed_load()
        runtime_report = asyncio.run(self.runtime.run(round_hook=self._round_hook))
        # The computation quiesced (or the load outlived it): publish
        # the final ranks if they drifted, then serve out the backlog.
        self._maybe_refresh(self.runtime)
        self._drain(float("inf"))
        return self._build_report(runtime_report)

    def _build_report(self, runtime_report: RuntimeReport) -> ServeReport:
        lat = np.asarray(self._latencies, dtype=np.float64)
        completed = len(self._latencies)
        p50 = float(np.percentile(lat, 50)) if lat.size else 0.0
        p99 = float(np.percentile(lat, 99)) if lat.size else 0.0
        mean = float(lat.mean()) if lat.size else 0.0
        worst = float(lat.max()) if lat.size else 0.0
        qps_achieved = completed / self.config.duration
        shed_rate = self.admission.stats.shed_rate
        hit_rate = self.cache.stats.hit_rate if self.cache is not None else 0.0
        digest = hashlib.sha256()
        for r in self._records:
            digest.update(
                f"{r.arrival_time:.9f}|{r.finish_time:.9f}|{r.attempts}|"
                f"{int(r.cache_hit)}|{int(r.dropped)}|{r.num_hits}|"
                f"{r.entry_peer}\n".encode()
            )
        self._obs.queue_peak.set(self.admission.stats.peak_depth)
        self._obs.achieved_qps.set(qps_achieved)
        self._obs.shed_rate.set(shed_rate)
        self._obs.hit_rate.set(hit_rate)
        return ServeReport(
            offered=self._offered,
            completed=completed,
            cache_hits=self._cache_hits,
            shed=self.admission.stats.shed,
            retries=self.admission.stats.retries,
            dropped=self._dropped,
            qps_achieved=qps_achieved,
            latency_p50=p50,
            latency_p99=p99,
            latency_mean=mean,
            latency_max=worst,
            shed_rate=shed_rate,
            cache_hit_rate=hit_rate,
            rank_refreshes=self._refreshes,
            index_update_messages=self._index_messages,
            traffic_doc_ids=self._traffic_doc_ids,
            bytes_on_wire=self._bytes_on_wire,
            dht_hops=self._dht_hops,
            peak_queue_depth=self.admission.stats.peak_depth,
            digest=digest.hexdigest(),
            records=tuple(self._records),
            runtime=runtime_report,
        )


def run_serve(
    config: ServeConfig, *, tiebreak=None, registry=None
) -> ServeReport:
    """Build and run one :class:`ServeSession` (docs/SERVING.md)."""
    return ServeSession(config, tiebreak=tiebreak, registry=registry).run()
