"""CI smoke for the estimation-serving subsystem.

Starts the JSON-lines server on an ephemeral port, drives 50 queries
through ``repro.service.connect``, forces load shedding against a
depth-1 queue, and asserts a clean drain/shutdown.  Exits non-zero on
any violation::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import sys

from repro.catalog import StatisticsCatalog
from repro.service import (
    EstimationService,
    Overloaded,
    ServiceConfig,
    connect,
)
from repro.service.server import start_in_thread
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

QUERY_COUNT = 50
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
    # base histograms for every schema attribute, so ad-hoc SQL filters
    # outside the build workload stay answerable (mirrors `repro serve`)
    present = {sit.attribute for sit in catalog if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                catalog.add(catalog.builder.build_base(attribute))
    return catalog


def smoke_tcp(catalog: StatisticsCatalog) -> None:
    """50 queries through the TCP front-end; every answer well-formed."""
    service = EstimationService(
        catalog,
        config=ServiceConfig(queue_depth=256),
    )
    with start_in_thread(service, port=0) as handle:
        host, port = handle.address
        with connect((host, port)) as client:
            assert client.ping(), "server did not answer ping"
            versions = set()
            for index in range(QUERY_COUNT):
                low = 18 + (index % 10)
                sql = SQL_TEMPLATE.format(low=low, high=low + 25)
                answer = client.estimate(sql)
                assert 0.0 <= answer.selectivity <= 1.0, answer
                assert answer.cardinality >= 0.0, answer
                versions.add(answer.snapshot_version)
            stats = client.stats()
            served = stats["service"]["served"]
            assert served >= QUERY_COUNT, f"served {served} < {QUERY_COUNT}"
        clean = handle.close()
    assert clean, "drain/shutdown was not clean"
    assert service.closed
    print(f"tcp smoke: {QUERY_COUNT} queries ok, versions={sorted(versions)}")


def smoke_shed(catalog: StatisticsCatalog) -> None:
    """A burst against a depth-1 queue must shed with typed Overloaded —
    and everything admitted must still be answered."""
    config = ServiceConfig(queue_depth=1)
    query = SQL_TEMPLATE.format(low=20, high=40)
    with EstimationService(catalog, config=config) as service:
        shed = 0
        futures = []
        for attempt in range(5):  # retry bursts until the queue fills
            for _ in range(200):
                try:
                    futures.append(service.submit(query))
                except Overloaded:
                    shed += 1
            if shed:
                break
        for future in futures:
            answer = future.result(timeout=60.0)
            assert 0.0 <= answer.selectivity <= 1.0, answer
        clean = service.close()
    assert shed > 0, "burst against depth-1 queue never shed"
    assert clean, "drain after shedding was not clean"
    print(f"shed smoke: admitted {len(futures)}, shed {shed}, clean drain")


def main() -> int:
    catalog = build_catalog()
    print(f"catalog: {len(catalog)} SITs")
    smoke_tcp(catalog)
    smoke_shed(catalog)
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
