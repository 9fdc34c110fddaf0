"""CI chaos smoke for the resilience subsystem.

Arms a seeded mixed :class:`~repro.resilience.faults.FaultPlan` (three
fault kinds: SIT unavailability, histogram corruption, worker crashes),
drives 100 queries through the TCP front-end and asserts the issue's
acceptance bar:

* every request receives a *typed* response — a (possibly degraded)
  :class:`~repro.service.protocol.ServedEstimate`, a typed shed
  (:class:`Overloaded`) or a typed :class:`ServiceError` — never a hang
  and never an untyped crash;
* degradation levels show up in the ``resilience`` snapshot namespace;
* shutdown drains cleanly with the plan still armed;
* a zero-fault armed run stays bit-identical to the disarmed estimates
  (the <=5% overhead half of the gate lives in ``repro.bench.perf``).

Exits non-zero on any violation::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.catalog import StatisticsCatalog
from repro.resilience.faults import FaultPlan, FaultRule, armed
from repro.service import (
    HealingConfig,
    EstimationService,
    Overloaded,
    ServiceConfig,
    ServiceError,
    connect,
)
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

QUERY_COUNT = 100
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


def mixed_plan() -> FaultPlan:
    """Three fault kinds active at three injection points, seeded."""
    return FaultPlan(
        [
            FaultRule(
                point="sit_match",
                fault="sit_unavailable",
                probability=0.15,
                max_fires=None,
            ),
            FaultRule(
                point="histogram_join",
                fault="histogram_corrupt",
                probability=0.03,
                max_fires=None,
            ),
            FaultRule(
                point="worker_batch",
                fault="worker_crash",
                probability=0.03,
                max_fires=None,
            ),
        ],
        seed=2004,
    )


def queries() -> list[str]:
    return [
        SQL_TEMPLATE.format(low=18 + (i % 23), high=18 + (i % 23) + 20)
        for i in range(QUERY_COUNT)
    ]


def smoke_chaos(catalog: StatisticsCatalog) -> None:
    """100 queries under the mixed plan; 100 typed answers; clean drain."""
    config = ServiceConfig(
        queue_depth=32,
        healing=HealingConfig(
            requeue_limit=2,
            breaker_threshold=1_000,  # crashes are version-independent here
            max_worker_restarts=200,
        ),
    )
    plan = mixed_plan()
    started = time.monotonic()
    served = degraded = shed = failed = 0
    with armed(plan):
        service = EstimationService(catalog, config=config)
        with start_in_thread(service, port=0) as handle:
            host, port = handle.address
            with connect((host, port), timeout_s=60.0) as client:
                for sql in queries():
                    try:
                        answer = client.estimate(sql)
                    except Overloaded:
                        shed += 1
                        continue
                    except ServiceError as exc:
                        assert str(exc), "untyped empty failure"
                        failed += 1
                        continue
                    assert isinstance(answer, ServedEstimate), answer
                    assert 0.0 <= answer.selectivity <= 1.0, answer
                    served += 1
                    if answer.degradation_level:
                        degraded += 1
                        assert answer.excluded_sits or (
                            answer.degradation_level >= 2
                        ), answer
                stats = client.stats()
            clean = handle.close()

    elapsed = time.monotonic() - started
    answered = served + shed + failed
    assert answered == QUERY_COUNT, f"{answered}/{QUERY_COUNT} typed answers"
    assert clean, "drain/shutdown under chaos was not clean"
    assert service.closed
    assert elapsed < WALL_CLOCK_BUDGET_S, f"possible deadlock: {elapsed:.0f}s"
    assert plan.total_fires > 0, "the chaos plan never fired"
    fired_kinds = {key.split(".", 1)[1] for key in plan.stats()}
    assert len(fired_kinds) >= 2, f"too few fault kinds fired: {fired_kinds}"

    resilience = stats.get("resilience", {})
    if degraded:
        level_keys = [
            key for key in resilience if key.startswith("degraded_level")
        ]
        assert level_keys, f"no degradation levels in snapshot: {resilience}"
    crash_count = resilience.get("worker_crashes", 0)
    print(
        f"chaos smoke: {served} served ({degraded} degraded), "
        f"{shed} shed, {failed} typed failures, "
        f"{crash_count:.0f} worker crashes, "
        f"plan fired {plan.stats()} in {elapsed:.1f}s"
    )


def smoke_zero_fault_parity(catalog: StatisticsCatalog) -> None:
    """An armed-but-silent plan must not perturb a single bit."""
    config = ServiceConfig(queue_depth=64)
    sample = queries()[:10]
    with EstimationService(catalog, config=config) as service:
        baseline = [service.estimate(sql, timeout=None) for sql in sample]
        silent = FaultPlan(
            [FaultRule(point="sit_match", after=10**9, max_fires=None)],
            seed=0,
        )
        with armed(silent):
            under_plan = [
                service.estimate(sql, timeout=None) for sql in sample
            ]
        assert silent.total_fires == 0
    for before, after in zip(baseline, under_plan):
        assert after.selectivity == before.selectivity, (before, after)
        assert after.cardinality == before.cardinality, (before, after)
        assert after.degradation_level == 0, after
    print(f"zero-fault parity: {len(sample)} queries bit-identical")


def main() -> int:
    catalog = build_catalog()
    print(f"catalog: {len(catalog)} SITs")
    smoke_chaos(catalog)
    smoke_zero_fault_parity(catalog)
    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
