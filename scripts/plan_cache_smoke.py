"""CI smoke for the compiled-plan cache behind the TCP front-end.

Drives a *templated* workload — a handful of SQL shapes, each
instantiated with many fresh constants — through
:class:`~repro.service.EstimationService` and asserts the steady-state
contract the plan cache promises production:

* the session-level ``plan_cache`` :class:`~repro.obs.snapshot.
  StatsSnapshot` namespace reports a hit rate above 80% (each shape
  compiles once; every other instantiation replays);
* every response is a full-fidelity level-0 estimate and repeating an
  identical request returns the bit-identical selectivity (replay
  determinism end to end);
* a ``notify_table_update`` mid-stream is survived: the very next
  request recompiles instead of serving the stale plan, and the hit
  rate recovers;
* shutdown drains cleanly with the cache enabled.

Exits non-zero on any violation::

    PYTHONPATH=src python scripts/plan_cache_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.catalog import StatisticsCatalog
from repro.service import EstimationService, ServiceConfig, connect
from repro.service.protocol import ServedEstimate
from repro.service.server import start_in_thread
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

#: instantiations per template (constants vary, the shape never does)
VARIANTS = 40
HIT_RATE_BAR = 0.80
WALL_CLOCK_BUDGET_S = 300.0

#: three shapes over the snowflake star: numeric constants sort ahead of
#: the join token, so varying them never permutes the predicate order —
#: every instantiation of a template lands on one fingerprint
TEMPLATES = (
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.age BETWEEN {low} AND {high}",
    "SELECT * FROM sales, customer "
    "WHERE sales.customer_id = customer.customer_id "
    "AND customer.income BETWEEN {low} AND {high}",
    "SELECT * FROM sales, product "
    "WHERE sales.product_id = product.product_id "
    "AND product.weight BETWEEN {low} AND {high}",
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


def workload() -> list[str]:
    return [
        template.format(low=5 + 3 * i, high=5 + 3 * i + 25)
        for i in range(VARIANTS)
        for template in TEMPLATES
    ]


def main() -> int:
    catalog = build_catalog()
    print(f"catalog: {len(catalog)} SITs")
    config = ServiceConfig(queue_depth=64)
    started = time.monotonic()
    service = EstimationService(catalog, config=config)
    with start_in_thread(service, port=0) as handle:
        host, port = handle.address
        with connect((host, port), timeout_s=60.0) as client:
            answers: dict[str, ServedEstimate] = {}
            for sql in workload():
                answer = client.estimate(sql)
                assert isinstance(answer, ServedEstimate), answer
                assert answer.degradation_level == 0, answer
                assert 0.0 <= answer.selectivity <= 1.0, answer
                answers[sql] = answer

            # replay determinism end to end: repeating a request must
            # return the bit-identical selectivity (and hit the cache)
            for sql in list(answers)[:: len(answers) // 6 or 1]:
                again = client.estimate(sql)
                assert again.selectivity == answers[sql].selectivity, sql
                assert again.plan_cache_hit, sql

            stats = client.stats()
            block = stats.get("plan_cache", {})
            assert block, f"no plan_cache namespace in stats: {sorted(stats)}"
            hit_rate = block.get("hit_rate", 0.0)
            assert hit_rate > HIT_RATE_BAR, (
                f"plan-cache hit rate {hit_rate:.3f} <= {HIT_RATE_BAR}: {block}"
            )
            assert block.get("plans", 0) >= len(TEMPLATES), block
            print(
                f"steady state: {len(answers)} unique requests, "
                f"hit rate {hit_rate:.3f}, "
                f"{block.get('plans', 0):.0f} plans "
                f"({block.get('compiles', 0):.0f} compiles, "
                f"{block.get('bytes', 0):.0f} bytes)"
            )

            # coherence mid-stream: an update must force a recompile, not
            # serve the stale plan — then steady state resumes.  The one
            # serving thread owns the one session (and cache), so exactly
            # one miss recompiles the shape and the next request hits.
            catalog.notify_table_update("customer")
            probe = TEMPLATES[0].format(low=5, high=30)
            first = client.estimate(probe)
            assert not first.plan_cache_hit, "stale plan served after update"
            second = client.estimate(probe)
            assert second.plan_cache_hit, (
                "more than one recompile after the update"
            )
            # post-update telemetry sums the retired session's counts with
            # the fresh one's: exactly the one recompile on top of the
            # steady-state total
            after = client.stats().get("plan_cache", {})
            assert after.get("compiles") == block["compiles"] + 1, after
            assert after.get("misses") == block["misses"] + 1, after
            print(
                f"coherence: update forced one recompile (pool_version "
                f"{after.get('pool_version', 0):.0f}), steady state resumed"
            )
        clean = handle.close()

    elapsed = time.monotonic() - started
    assert clean, "drain/shutdown with the plan cache enabled was not clean"
    assert service.closed
    assert elapsed < WALL_CLOCK_BUDGET_S, f"possible hang: {elapsed:.0f}s"
    print(f"plan-cache smoke: OK in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
