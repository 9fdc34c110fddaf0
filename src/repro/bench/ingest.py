"""Write-storm benchmark for the streaming-ingestion pipeline.

Measures what continuous ingestion costs the serving path, on this
host, with no projection:

``invalidation``
    raw pipeline throughput — update events admitted, coalesced into
    epochs and applied through the catalog's one
    ``notify_table_update`` path, events per second from first submit
    to quiesce.  The coalescing ratio (events per epoch) is the
    mechanism under test: invalidation cost must be per-*epoch*, not
    per-*event*, or a hot table amplifies a write storm into a pool-
    invalidation storm.
``serving``
    the same request stream estimated twice through an
    :class:`~repro.service.EstimationService` — once idle, once with
    the storm running — so the report carries the measured
    serving-latency delta under write pressure.  The numbers are taken
    on whatever this container gives us (one core, usually): the gate
    budget is deliberately generous and recorded alongside the
    observation, never tuned to flatter it.
``staleness``
    bounded-staleness accounting observed from the client side: every
    storm-phase answer carries ``staleness_s`` provenance (worst
    pending-write age over the tables it touched); the block reports
    the p95 and max over those stamped answers and asserts the tracker
    quiesced (no acked write left unapplied) once the storm drained.

Merges an ``ingest`` block into ``BENCH_core.json`` at the repository
root — read-modify-write, every other block untouched::

    PYTHONPATH=src python -m repro.bench.ingest [output.json]

Gates (reported in the block, non-zero exit on failure):

* ``events_per_s`` >= 1000 — coalesced invalidation keeps up with a
  storm three orders of magnitude faster than refresh;
* ``coalesce_ratio`` >= 2 — the storm really coalesced;
* storm-phase p95 serving latency <= ``latency_budget_ms`` (idle p95
  x 5 + 20 ms — generous because a 1-core container serializes the
  apply thread against the serving thread);
* conservation — accepted events all applied, tracker quiesced.
"""

from __future__ import annotations

import json
import pathlib
import platform
import random
import sys
import threading
import time

from repro.catalog import StatisticsCatalog
from repro.ingest import IngestConfig, IngestOverloaded, IngestPipeline
from repro.obs import StalenessTracker
from repro.service import EstimationService, ServiceConfig
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

DEFAULT_OUTPUT = (
    pathlib.Path(__file__).resolve().parents[3] / "BENCH_core.json"
)


def build_workload(
    scale: float, seed: int, distinct: int
) -> tuple[StatisticsCatalog, list]:
    database = generate_snowflake(SnowflakeConfig(scale=scale, seed=seed))
    generator = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=seed)
    )
    queries = generator.generate(distinct)
    catalog = StatisticsCatalog.build(database, queries, max_joins=1)
    return catalog, queries


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _serve(service: EstimationService, stream: list) -> tuple[
    list[float], list[float]
]:
    """Sequentially estimate the stream; per-request latency (ms) and
    the staleness provenance stamped on each answer."""
    latencies: list[float] = []
    staleness: list[float] = []
    for query in stream:
        t0 = time.perf_counter()
        answer = service.estimate(query, timeout=None)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if answer.staleness_s is not None:
            staleness.append(answer.staleness_s)
    return latencies, staleness


def run(
    scale: float = 0.05,
    seed: int = 11,
    distinct: int = 4,
    requests: int = 200,
    storm_events: int = 5000,
) -> dict:
    catalog, queries = build_workload(scale, seed, distinct)
    rng = random.Random(seed)
    stream = [rng.choice(queries) for _ in range(requests)]
    tables = sorted(catalog.database.tables)
    config = ServiceConfig(queue_depth=max(256, requests))

    with EstimationService(catalog, config=config) as service:
        for query in queries:  # warm the serving session off the clock
            service.estimate(query, timeout=None)
        idle_latencies, _ = _serve(service, stream)

        tracker = StalenessTracker()
        service.attach_staleness(tracker)
        pipeline = IngestPipeline(
            catalog,
            config=IngestConfig(queue_depth=4096),
            tracker=tracker,
        )
        shed = 0
        storm_done = threading.Event()

        def storm() -> None:
            nonlocal shed
            try:
                for index in range(storm_events):
                    try:
                        pipeline.submit(tables[index % len(tables)])
                    except IngestOverloaded:
                        shed += 1
                        time.sleep(0.0002)  # typed backpressure: back off
            finally:
                storm_done.set()

        storm_started = time.perf_counter()
        thread = threading.Thread(target=storm, name="bench-storm")
        thread.start()
        storm_latencies, storm_staleness = _serve(service, stream)
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "storm producer wedged"
        drained = pipeline.flush(timeout=120.0)
        storm_elapsed = time.perf_counter() - storm_started
        snapshot = pipeline.stats_snapshot().ingest
        pipeline.close()
        quiesced = tracker.quiesced()

    accepted = storm_events - shed
    idle_p95 = _percentile(idle_latencies, 0.95)
    storm_p95 = _percentile(storm_latencies, 0.95)
    latency_budget_ms = idle_p95 * 5.0 + 20.0
    gates = {
        "events_per_s_floor": 1000.0,
        "events_per_s_ok": accepted / storm_elapsed >= 1000.0,
        "coalesce_ratio_floor": 2.0,
        "coalesce_ratio_ok": snapshot.get("coalesce_ratio", 0.0) >= 2.0,
        "latency_budget_ms": latency_budget_ms,
        "latency_ok": storm_p95 <= latency_budget_ms,
        "conservation_ok": (
            drained
            and quiesced
            and snapshot.get("events_applied", 0.0) == float(accepted)
        ),
    }
    return {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "scale": scale,
            "seed": seed,
            "distinct_queries": distinct,
            "requests": requests,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "invalidation": {
            "offered_events": storm_events,
            "accepted_events": accepted,
            "shed_events": shed,
            "seconds": storm_elapsed,
            "events_per_s": accepted / storm_elapsed,
            "epochs_applied": snapshot.get("epochs_applied", 0.0),
            "coalesce_ratio": snapshot.get("coalesce_ratio", 0.0),
            "epoch_requeues": snapshot.get("epoch_requeues", 0.0),
        },
        "serving": {
            "idle_mean_ms": sum(idle_latencies) / len(idle_latencies),
            "idle_p95_ms": idle_p95,
            "storm_mean_ms": sum(storm_latencies) / len(storm_latencies),
            "storm_p95_ms": storm_p95,
            "delta_p95_ms": storm_p95 - idle_p95,
        },
        "staleness": {
            "stamped_answers": len(storm_staleness),
            "p95_s": _percentile(storm_staleness, 0.95),
            "max_s": max(storm_staleness, default=0.0),
            "quiesced_after_drain": quiesced,
        },
        "gates": gates,
    }


def render(block: dict) -> str:
    invalidation = block["invalidation"]
    serving = block["serving"]
    staleness = block["staleness"]
    gates = block["gates"]
    ok = all(value for key, value in gates.items() if key.endswith("_ok"))
    return "\n".join(
        [
            (
                f"ingest bench: {invalidation['accepted_events']} events "
                f"({invalidation['shed_events']} shed) in "
                f"{invalidation['seconds']:.2f}s = "
                f"{invalidation['events_per_s']:.0f} events/s over "
                f"{invalidation['epochs_applied']:.0f} epochs "
                f"(coalesce ratio {invalidation['coalesce_ratio']:.1f})"
            ),
            (
                f"serving: idle p95 {serving['idle_p95_ms']:.2f} ms, "
                f"storm p95 {serving['storm_p95_ms']:.2f} ms "
                f"(delta {serving['delta_p95_ms']:+.2f} ms, budget "
                f"{gates['latency_budget_ms']:.2f} ms)"
            ),
            (
                f"staleness: {staleness['stamped_answers']} stamped answers, "
                f"p95 {staleness['p95_s'] * 1000.0:.1f} ms, "
                f"max {staleness['max_s'] * 1000.0:.1f} ms, "
                f"quiesced={staleness['quiesced_after_drain']}"
            ),
            f"gates: {'pass' if ok else 'FAIL'}",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    output = pathlib.Path(argv[0]) if argv else DEFAULT_OUTPUT
    existing: dict = {}
    if output.exists():
        existing = json.loads(output.read_text())
    started = time.perf_counter()
    block = run()
    elapsed = time.perf_counter() - started
    existing["ingest"] = block
    output.write_text(json.dumps(existing, indent=2) + "\n")
    print(render(block))
    print(f"wrote {output} ({elapsed:.1f}s)")
    gates = block["gates"]
    if not all(value for key, value in gates.items() if key.endswith("_ok")):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
