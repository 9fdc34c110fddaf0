"""CI smoke for estimator plurality: every backend served over TCP.

For each backend in :data:`repro.estimators.BACKENDS`, starts the
JSON-lines server with ``ServiceConfig(backend=...)`` on an ephemeral
port, drives 50 queries through ``repro.service.connect``, checks every
answer is well-formed and carries the right ``backend`` provenance (and,
for the sampling backend, a positive ``error_bound``), and asserts a
clean drain/shutdown.  Exits non-zero on any violation::

    PYTHONPATH=src python scripts/estimator_smoke.py
"""

from __future__ import annotations

import sys

from repro.catalog import StatisticsCatalog
from repro.estimators import BACKENDS
from repro.service import EstimationService, ServiceConfig, connect
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
    present = {sit.attribute for sit in catalog if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                catalog.add(catalog.builder.build_base(attribute))
    return catalog


def smoke_backend(catalog: StatisticsCatalog, backend: str) -> None:
    """50 queries through the TCP front-end against one backend."""
    service = EstimationService(
        catalog,
        config=ServiceConfig(
            queue_depth=256, backend=backend
        ),
    )
    with start_in_thread(service, port=0) as handle:
        host, port = handle.address
        with connect((host, port)) as client:
            assert client.ping(), "server did not answer ping"
            for index in range(QUERY_COUNT):
                low = 18 + (index % 10)
                sql = SQL_TEMPLATE.format(low=low, high=low + 25)
                answer = client.estimate(sql)
                assert 0.0 <= answer.selectivity <= 1.0, answer
                assert answer.cardinality >= 0.0, answer
                assert answer.backend == backend, (
                    f"expected backend {backend!r}, got {answer.backend!r}"
                )
                if backend == "sample":
                    assert (
                        answer.error_bound is not None
                        and answer.error_bound > 0.0
                    ), answer
                else:
                    assert answer.error_bound is None, answer
        clean = handle.close()
    assert clean, f"{backend}: drain/shutdown was not clean"
    assert service.closed
    print(f"{backend} smoke: {QUERY_COUNT} queries ok, clean drain")


def main() -> int:
    catalog = build_catalog()
    print(f"catalog: {len(catalog)} SITs")
    for backend in BACKENDS:
        smoke_backend(catalog, backend)
    print("estimator smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
