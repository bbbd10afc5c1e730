"""The per-layer metrics of a traced run, derived from spans and counters.

Every traced run reports every metric below, so runs of different
workloads line up; a layer a workload bypasses reads 0 (for example the
journal on ``engine_mixed`` and ``serve_subs``, which run without one).
Definitions:

* ``*_ms`` of a span that runs once per maintained batch (SLen
  maintenance, elimination, candidate sets) is its self time summed per
  ``subsequent_query`` call; ``algorithms.query_ms`` is the inclusive
  time of one call; the others (plan, compile, amend, top-k, journal
  append/checkpoint) are self time per call of that function.
* Ratios and routes come from the ``QueryStats`` of every traced query.
* ``service.*``, ``versioning.publish_ms`` and ``subscriptions.*`` come
  from the service's own ``stats()``; ``service.backlog_max`` is the
  largest count of updates submitted but not yet settled the benchmark's
  poller saw.
* ``client.*`` are what the serve_subs TCP client saw: update receipt
  and read latency from the scheduled send time, over the untraced first
  half of the traced run's window.
"""

from __future__ import annotations

from collections import Counter

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("algorithms.query_ms", "ms"),
    ("algorithms.maintenance_share", "ratio"),
    ("spl.maintain_ms", "ms"),
    ("spl.recomputed_rows", "count"),
    ("batching.plan_ms", "ms"),
    ("batching.compile_ms", "ms"),
    ("batching.compiled_away_ratio", "ratio"),
    ("batching.route.per_update", "count"),
    ("batching.route.coalesced", "count"),
    ("batching.route.partitioned", "count"),
    ("elimination.detect_ms", "ms"),
    ("elimination.eliminated_ratio", "ratio"),
    ("matching.candidates_ms", "ms"),
    ("matching.amend_ms", "ms"),
    ("matching.amend_calls", "count"),
    ("matching.topk_ms", "ms"),
    ("subscriptions.skip_ratio", "ratio"),
    ("subscriptions.notifications", "count"),
    ("service.settle_ms", "ms"),
    ("service.batch_updates", "count"),
    ("service.cuts.crossover", "count"),
    ("service.cuts.deadline", "count"),
    ("service.cuts.capacity", "count"),
    ("service.cuts.drain", "count"),
    ("service.backlog_max", "count"),
    ("versioning.publish_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.compactions", "count"),
    ("journal.bytes", "B"),
    ("gen.lag_p99_ms", "ms"),
    ("client.ack_p50_ms", "ms"),
    ("client.ack_p99_ms", "ms"),
    ("client.read_p50_ms", "ms"),
    ("client.read_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    summary: dict,
    query_stats: list,
    *,
    service: dict | None = None,
    backlog_max: int = 0,
    lag_p99_ms: float = 0.0,
    overhead_pct: float = 0.0,
    journal_bytes: int = 0,
    client: dict | None = None,
) -> dict:
    """``{name: (value, unit)}`` for every metric of :data:`PER_LAYER`.

    ``summary`` is :func:`tracing.summarize` output, ``query_stats`` the
    ``QueryStats.as_dict()`` of every traced query, ``service`` the
    graph's ``stats()`` document (``None`` without a service), ``client``
    the receipt/read latency percentiles a TCP client measured.
    """

    def self_ms(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0) * 1e3

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    queries = calls("algorithms.query")
    elapsed = sum(stats["elapsed_seconds"] for stats in query_stats)
    updates = sum(stats["updates_processed"] for stats in query_stats)
    routes = Counter(stats["planned_strategy"] for stats in query_stats)
    values = {
        "algorithms.query_ms": _ratio(summary.get("algorithms.query", {}).get("total_s", 0.0) * 1e3, queries),
        "algorithms.maintenance_share": _ratio(
            sum(stats["maintenance_seconds"] for stats in query_stats), elapsed
        ),
        "spl.maintain_ms": _ratio(self_ms("spl.maintain"), queries),
        "spl.recomputed_rows": _ratio(
            sum(stats["recomputed_rows"] for stats in query_stats), len(query_stats)
        ),
        "batching.plan_ms": _ratio(self_ms("batching.plan"), calls("batching.plan")),
        "batching.compile_ms": _ratio(self_ms("batching.compile"), calls("batching.compile")),
        "batching.compiled_away_ratio": _ratio(
            sum(stats["compiled_away_updates"] for stats in query_stats), updates
        ),
        "batching.route.per_update": routes["per-update"],
        "batching.route.coalesced": routes["coalesced"],
        "batching.route.partitioned": routes["partitioned"],
        "elimination.detect_ms": _ratio(self_ms("elimination.detect"), queries),
        "elimination.eliminated_ratio": _ratio(
            sum(stats["eliminated_updates"] for stats in query_stats), updates
        ),
        "matching.candidates_ms": _ratio(self_ms("matching.candidates"), queries),
        "matching.amend_ms": _ratio(self_ms("matching.amend"), calls("matching.amend")),
        "matching.amend_calls": _ratio(calls("matching.amend"), queries),
        "matching.topk_ms": _ratio(self_ms("matching.topk"), calls("matching.topk")),
        "service.backlog_max": backlog_max,
        "journal.append_ms": _ratio(self_ms("journal.append"), calls("journal.append")),
        "journal.checkpoint_ms": _ratio(self_ms("journal.checkpoint"), calls("journal.checkpoint")),
        "journal.bytes": journal_bytes,
        "gen.lag_p99_ms": lag_p99_ms,
        "trace.overhead_pct": overhead_pct,
    }
    if service is not None:
        shared = service["shared"]
        settles = service["settles"]
        cuts = service["cut_reasons"]
        values.update(
            {
                "subscriptions.skip_ratio": _ratio(
                    shared["fanout_skips"], shared["fanout_skips"] + shared["fanout_amend_passes"]
                ),
                "subscriptions.notifications": _ratio(shared["notifications_sent"], settles),
                "service.settle_ms": _ratio(service["settle_seconds"] * 1e3, settles),
                "service.batch_updates": _ratio(service["settled"], settles),
                "service.cuts.crossover": cuts.get("crossover", 0),
                "service.cuts.deadline": cuts.get("deadline", 0),
                "service.cuts.capacity": cuts.get("capacity", 0),
                "service.cuts.drain": cuts.get("drain", 0),
                "versioning.publish_ms": _ratio(
                    service["snapshot"]["publish_seconds"] * 1e3, settles
                ),
                "journal.compactions": (service.get("journal") or {}).get("compactions", 0),
            }
        )
    if client:
        values.update({name: value for name, value in client.items() if name.startswith("client.")})
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
