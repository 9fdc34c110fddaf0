"""CI chaos smoke for streaming ingestion under a write storm.

Drives a continuous table-update storm through the
:class:`~repro.ingest.IngestPipeline` while 100 queries flow through the
TCP front-end, with a seeded :class:`~repro.resilience.faults.FaultPlan`
firing at the three storm injection points (``ingest_apply``,
``refresh_during_storm``, ``swap_under_write``).  The acceptance bar:

* **zero client-visible errors** — every one of the 100 TCP queries
  returns a well-formed :class:`~repro.service.protocol.ServedEstimate`;
  ingest faults retry/requeue on the apply path, refresh faults roll the
  refresh back, neither ever reaches a client;
* **staleness is reported** — answers carry ``staleness_s`` provenance
  and the ``ingest`` stats namespace surfaces the staleness gauges over
  the wire;
* **clean drain** — the pipeline quiesces (every acked write applied),
  the service drains and closes clean;
* **bit-identical once quiesced** — after the storm settles and one
  quiet refresh catches the catalog up, estimates match the pre-storm
  baseline exactly;
* **swap-under-write never wedges** — a cluster hot swap faulted
  mid-fan-out ejects the member instead of serving a version-straddling
  answer, with zero client-visible errors.

Exits non-zero on any violation::

    PYTHONPATH=src python scripts/chaos_ingest_smoke.py

The ``__main__`` guard is load-bearing: the cluster section spawns
shard processes via the ``spawn`` method, which re-imports this file.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.catalog.catalog import RefreshConflict
from repro.cluster import EstimationCluster
from repro.engine.executor import Executor
from repro.ingest import (
    EstimateDriftProbe,
    IngestConfig,
    IngestOverloaded,
    IngestPipeline,
)
from repro.obs import StalenessTracker
from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import (
    ClusterConfig,
    EstimationService,
    ServiceConfig,
    connect,
)
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

QUERY_COUNT = 100
STORM_EVENTS = 400
WALL_CLOCK_BUDGET_S = 300.0
SQL_TEMPLATE = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.age BETWEEN {low} AND {high}"
)


def build_catalog() -> StatisticsCatalog:
    database = generate_snowflake(SnowflakeConfig(scale=0.05, seed=11))
    queries = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=11)
    ).generate(2)
    catalog = StatisticsCatalog.build(database, queries, max_joins=1)
    present = {sit.attribute for sit in catalog if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                catalog.add(catalog.builder.build_base(attribute))
    return catalog


def storm_plan() -> FaultPlan:
    """Deterministic faults at the storm points: three apply faults
    (retried, then requeued — never dropped) and two mid-rebuild
    refresh faults (refresh aborts with nothing published)."""
    return FaultPlan(
        [
            FaultRule(point="ingest_apply", probability=1.0, max_fires=3),
            FaultRule(
                point="refresh_during_storm", probability=1.0, max_fires=2
            ),
        ],
        seed=2004,
    )


def queries() -> list[str]:
    return [
        SQL_TEMPLATE.format(low=18 + (i % 23), high=18 + (i % 23) + 20)
        for i in range(QUERY_COUNT)
    ]


def smoke_ingest_storm(catalog: StatisticsCatalog) -> None:
    """Storm + chaos + 100 TCP queries; quiesce; bit-identical gate."""
    config = ServiceConfig(queue_depth=64)
    sample = queries()[:10]
    started = time.monotonic()

    # pre-storm baseline off a clean serve
    with EstimationService(catalog, config=config) as service:
        baseline = [service.estimate(sql, timeout=None) for sql in sample]

    tracker = StalenessTracker()
    probe_queries = [
        frozenset(query.predicates)
        for query in WorkloadGenerator(
            catalog.database,
            WorkloadConfig(join_count=2, filter_count=2, seed=11),
        ).generate(2)
    ]
    probe_session = EstimationSession(catalog)
    executor = Executor(catalog.database)
    drift_probe = EstimateDriftProbe(
        estimate=probe_session.selectivity,
        truth=executor.selectivity,
        queries=probe_queries,
    )

    tables = sorted(catalog.database.tables)
    plan = storm_plan()
    shed = refresh_aborts = 0
    errors: list[BaseException] = []
    with armed(plan):
        service = EstimationService(catalog, config=config)
        service.attach_staleness(tracker)
        pipeline = IngestPipeline(
            catalog,
            config=IngestConfig(queue_depth=256, drift_every=3),
            tracker=tracker,
            drift_probe=drift_probe,
        )
        storm_done = threading.Event()

        def storm() -> None:
            nonlocal shed
            try:
                for index in range(STORM_EVENTS):
                    try:
                        pipeline.submit(tables[index % len(tables)])
                    except IngestOverloaded:
                        shed += 1  # typed backpressure, not an error
                    if index % 25 == 0:
                        time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                storm_done.set()

        def refresher() -> None:
            nonlocal refresh_aborts
            for _ in range(6):
                try:
                    catalog.refresh()
                except (RefreshConflict, Exception):
                    # injected mid-rebuild fault or membership race:
                    # rolled back, nothing published — count and retry
                    refresh_aborts += 1
                if storm_done.wait(timeout=0.02):
                    break

        workers = [
            threading.Thread(target=storm, name="storm"),
            threading.Thread(target=refresher, name="refresher"),
        ]
        for worker in workers:
            worker.start()

        answers: list[ServedEstimate] = []
        with start_in_thread(service, port=0) as handle:
            with connect(handle.address, timeout_s=60.0) as client:
                for sql in queries():
                    answer = client.estimate(sql)  # zero-error bar:
                    assert isinstance(answer, ServedEstimate), answer
                    assert 0.0 <= answer.selectivity <= 1.0, answer
                    answers.append(answer)
                for worker in workers:
                    worker.join(timeout=60.0)
                    assert not worker.is_alive(), worker.name
                assert pipeline.quiesce(timeout=60.0), "pipeline never drained"
                stats = client.stats()
            clean = handle.close()
        pipeline.close()

    assert not errors, errors
    assert clean, "drain/shutdown under the storm was not clean"
    assert tracker.quiesced(), "acked writes left unapplied"
    elapsed = time.monotonic() - started
    assert elapsed < WALL_CLOCK_BUDGET_S, f"possible deadlock: {elapsed:.0f}s"

    # the seeded plan really exercised the storm points
    fired = plan.stats()
    assert any(key.startswith("ingest_apply.") for key in fired), fired
    assert any(
        key.startswith("refresh_during_storm.") for key in fired
    ), fired

    # staleness provenance: on answers and over the stats wire
    stamped = [a for a in answers if a.staleness_s is not None]
    assert stamped, "no answer carried staleness provenance"
    ingest_stats = stats.get("ingest", {})
    assert "staleness_s_max" in ingest_stats, stats
    snapshot = pipeline.stats_snapshot().ingest
    assert snapshot["events"] + float(shed) == float(STORM_EVENTS)
    assert snapshot["events_applied"] == snapshot["events"]
    assert snapshot["epochs_applied"] < snapshot["events_applied"], (
        "storm did not coalesce"
    )
    assert snapshot["apply_faults"] == 3.0, snapshot
    assert snapshot.get("drift_probes", 0.0) >= 1.0, snapshot

    # quiesced + one quiet refresh -> nothing stale, bit-identical
    catalog.refresh()
    assert catalog.stale_sits() == []
    with EstimationService(catalog, config=config) as settled_service:
        settled = [
            settled_service.estimate(sql, timeout=None) for sql in sample
        ]
    for before, after in zip(baseline, settled):
        assert after.selectivity == before.selectivity, (before, after)
        assert after.cardinality == before.cardinality, (before, after)

    print(
        f"ingest storm: {len(answers)} served, {shed} shed, "
        f"{refresh_aborts} refresh aborts, "
        f"{snapshot['events_applied']:.0f} events in "
        f"{snapshot['epochs_applied']:.0f} epochs "
        f"(ratio {snapshot['coalesce_ratio']:.1f}), "
        f"{len(stamped)} stamped answers, "
        f"{snapshot['drift_probes']:.0f} drift probes, "
        f"plan fired {fired} in {elapsed:.1f}s"
    )


def smoke_swap_under_write(catalog: StatisticsCatalog) -> None:
    """A faulted cluster hot swap ejects the member — never a
    version-straddling answer, never a wedge, zero client errors."""
    workload = WorkloadGenerator(
        catalog.database, WorkloadConfig(join_count=2, filter_count=2, seed=11)
    ).generate(4)
    plan = FaultPlan(
        [
            FaultRule(
                point="swap_under_write",
                probability=1.0,
                max_fires=1,
                match="member=0",
            )
        ],
        seed=7,
    )
    config = ServiceConfig(cluster=ClusterConfig(shards=2, replicas=0))
    with EstimationCluster(catalog, config=config) as cluster:
        for query in workload:
            cluster.estimate(query, timeout=30.0)
        with armed(plan):
            for table in ("sales", "customer", "product"):
                cluster.notify_table_update(table)
        version = catalog.version
        answers = [
            cluster.estimate(query, timeout=30.0)
            for query in workload * 5
        ]
        assert {answer.snapshot_version for answer in answers} == {
            version
        }, "a version-straddling answer escaped the faulted swap"
        stats = cluster.stats_snapshot().cluster
        assert plan.total_fires == 1, plan.stats()
        assert stats["swap_faults"] == 1.0, stats
        assert stats["ejections"] >= 1.0, stats
        clean = cluster.close()
    assert clean, "cluster drain after the faulted swap was not clean"
    print(
        f"swap under write: {len(answers)} answers at v{version}, "
        f"1 member ejected, clean close"
    )


def main() -> int:
    catalog = build_catalog()
    print(f"catalog: {len(catalog)} SITs")
    smoke_ingest_storm(catalog)
    smoke_swap_under_write(catalog)
    print("chaos ingest smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
