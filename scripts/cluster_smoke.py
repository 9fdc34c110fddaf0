"""CI smoke for the multi-process estimation cluster.

Spawns a 3-shard + 1-replica :class:`~repro.cluster.EstimationCluster`
over one shared-memory snapshot, serves it through the stock TCP
front-end, and exercises the full lifecycle:

* 100 routed queries, every answer bit-identical to a single
  :class:`~repro.catalog.EstimationSession` over the same catalog;
* one hot swap mid-stream (``notify_table_update``): answers after the
  swap carry the new snapshot version on every shard;
* one forced shard crash: the breaker ejects it, its keyspace spills to
  the ring successors with zero client-visible errors, and the shard is
  respawned, caught up, and rejoined;
* a clean drain/close — no leaked processes, no leaked shared memory.

Exits non-zero on any violation::

    PYTHONPATH=src python scripts/cluster_smoke.py

The ``__main__`` guard is load-bearing: shard processes start via the
``spawn`` method, which re-imports this file.
"""

from __future__ import annotations

import sys
import time

from repro.catalog import EstimationSession, StatisticsCatalog
from repro.cluster import EstimationCluster
from repro.service import ClusterConfig, ServiceConfig, connect
from repro.service.server import start_in_thread
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

QUERY_COUNT = 100


def build_catalog() -> StatisticsCatalog:
    database = generate_snowflake(SnowflakeConfig(scale=0.05, seed=11))
    queries = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=11)
    ).generate(4)
    return StatisticsCatalog.build(database, queries, max_joins=1)


def build_workload(catalog: StatisticsCatalog) -> list:
    database = catalog.database
    generator = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=11)
    )
    distinct = generator.generate(4)
    return [distinct[index % len(distinct)] for index in range(QUERY_COUNT)]


def wait_until(predicate, timeout_s: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def main() -> int:
    catalog = build_catalog()
    workload = build_workload(catalog)
    reference = EstimationSession(catalog, database=catalog.database)
    expected = [reference.estimate(query) for query in workload]
    print(f"catalog: {len(catalog)} SITs, workload: {len(workload)} queries")

    config = ServiceConfig(
        cluster=ClusterConfig(
            shards=3, replicas=1, breaker_threshold=1
        )
    )
    cluster = EstimationCluster(catalog, config=config)
    try:
        with start_in_thread(cluster, port=0) as handle:
            with connect(handle.address) as client:
                # -- routed parity --------------------------------------
                answers = client.estimate_batch(workload, timeout=120.0)
                shards_seen = set()
                for answer, want in zip(answers, expected):
                    assert answer.selectivity == want.selectivity, (
                        answer,
                        want,
                    )
                    assert answer.error == want.error
                    shards_seen.add(answer.shard)
                assert len(shards_seen) >= 2, (
                    f"workload never spread across shards: {shards_seen}"
                )
                print(
                    f"parity: {len(answers)} bit-identical answers "
                    f"across shards {sorted(shards_seen)}"
                )

                # -- hot swap mid-stream --------------------------------
                before = catalog.version
                cluster.notify_table_update("customer")
                after = catalog.version
                assert after == before + 1
                swapped = client.estimate_batch(workload[:30], timeout=120.0)
                for answer, want in zip(swapped, expected):
                    assert answer.selectivity == want.selectivity
                    assert answer.snapshot_version == after, answer
                print(f"hot swap: version {before} -> {after}, coherent")

                # -- crash, eject, spill, revive ------------------------
                cluster.inject_crash(0)
                spilled = client.estimate_batch(workload[:30], timeout=120.0)
                for answer, want in zip(spilled, expected):
                    assert answer.selectivity == want.selectivity

                def counter(name: str) -> float:
                    return cluster.stats_snapshot().cluster.get(name, 0.0)

                assert wait_until(lambda: counter("ejections") >= 1.0), (
                    "crashed shard was never ejected"
                )
                assert wait_until(lambda: counter("rejoins") >= 1.0), (
                    "ejected shard never rejoined the ring"
                )
                revived = client.estimate_batch(workload, timeout=120.0)
                for answer, want in zip(revived, expected):
                    assert answer.selectivity == want.selectivity
                    assert answer.snapshot_version == after, answer
                print(
                    f"chaos: ejections={counter('ejections'):.0f}, "
                    f"rejoins={counter('rejoins'):.0f}, "
                    "parity held at the post-swap version"
                )
    finally:
        clean = cluster.close()
    assert clean, "cluster drain/close was not clean"
    print("cluster smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
