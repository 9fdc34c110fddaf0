"""End-to-end cluster: real spawned shard processes over one
shared-memory snapshot.  Acceptance harness: cluster-path estimates are
bit-identical to a single EstimationSession across 200+ queries,
through a hot swap and a shard ejection + rejoin."""

from __future__ import annotations

import time

import pytest

from repro.catalog.session import EstimationSession
from repro.cluster import EstimationCluster
from repro.core.predicates import FilterPredicate
from repro.service import ClusterConfig, ServiceConfig, connect


@pytest.fixture(scope="module")
def parity_workload(two_table_attrs, two_table_join) -> list[frozenset]:
    """240 queries over three templates (two filters families + a pure
    join variant) — enough constants to sweep the histogram domain."""
    queries: list[frozenset] = []
    for index in range(80):
        low = float(index % 50)
        queries.append(
            frozenset(
                {
                    two_table_join,
                    FilterPredicate(two_table_attrs["Ra"], low, low + 9.0),
                }
            )
        )
        queries.append(
            frozenset(
                {
                    two_table_join,
                    FilterPredicate(two_table_attrs["Sb"], low, low + 21.0),
                }
            )
        )
        queries.append(
            frozenset(
                {
                    two_table_join,
                    FilterPredicate(
                        two_table_attrs["Ra"], low / 2.0, low / 2.0 + 30.0
                    ),
                    FilterPredicate(two_table_attrs["Sb"], 5.0, 80.0),
                }
            )
        )
    return queries


def wait_until(predicate, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_cluster_parity_through_swap_and_ejection(
    cluster_catalog, parity_workload
):
    reference = EstimationSession(
        cluster_catalog, database=cluster_catalog.database
    )
    expected = [reference.estimate(q) for q in parity_workload]

    config = ServiceConfig(
        cluster=ClusterConfig(
            shards=2,
            replicas=1,
            hedge_delay_s=0.2,
            breaker_threshold=1,
        )
    )
    cluster = EstimationCluster(cluster_catalog, config=config)
    try:
        with connect(cluster) as client:
            # -- phase 1: plain parity, both shards serving -------------
            answers = client.estimate_batch(parity_workload, timeout=60.0)
            for answer, want in zip(answers, expected):
                assert answer.selectivity == want.selectivity
                assert answer.error == want.error
            assert {a.snapshot_version for a in answers} == {
                cluster_catalog.version
            }
            assert {a.shard for a in answers if a.shard in (0, 1)} == {0, 1}

            # -- phase 2: hot swap mid-stream ---------------------------
            old_version = cluster_catalog.version
            cluster.notify_table_update("S")
            new_version = cluster_catalog.version
            assert new_version == old_version + 1
            swapped = client.estimate_batch(parity_workload[:60], timeout=60.0)
            for answer, want in zip(swapped, expected):
                assert answer.selectivity == want.selectivity
                assert answer.snapshot_version == new_version

            # -- phase 3: shard ejection + transparent spill ------------
            cluster.inject_crash(0)
            # keep serving; faults trip the breaker (threshold 1) and
            # the dead shard's keyspace spills to the survivors
            spilled = client.estimate_batch(parity_workload[:60], timeout=60.0)
            for answer, want in zip(spilled, expected):
                assert answer.selectivity == want.selectivity
            assert wait_until(
                lambda: cluster.stats_snapshot().cluster.get("ejections", 0.0)
                >= 1.0
            )

            # -- phase 4: background revival rejoins the ring -----------
            assert wait_until(
                lambda: cluster.stats_snapshot().cluster.get("rejoins", 0.0)
                >= 1.0
            )
            revived = client.estimate_batch(parity_workload, timeout=60.0)
            for answer, want in zip(revived, expected):
                assert answer.selectivity == want.selectivity
                assert answer.snapshot_version == new_version
    finally:
        assert cluster.close() is True


def test_cluster_serves_over_tcp_front_end(cluster_catalog, parity_workload):
    """The router duck-types EstimationService: the stock TCP server and
    SocketClient work over it unchanged, shard ids riding the wire."""
    from repro.service.server import start_in_thread

    config = ServiceConfig(
        cluster=ClusterConfig(shards=2, replicas=0, hedge_delay_s=5.0)
    )
    cluster = EstimationCluster(cluster_catalog, config=config)
    try:
        handle = start_in_thread(cluster, port=0)
        try:
            with connect(handle.address) as client:
                reference = EstimationSession(
                    cluster_catalog, database=cluster_catalog.database
                )
                for query in parity_workload[:30]:
                    answer = client.estimate(query, timeout=30.0)
                    assert (
                        answer.selectivity
                        == reference.estimate(query).selectivity
                    )
                    assert answer.shard in (0, 1)
                stats = client.stats()
                assert stats["meta"]["subsystem"] == "cluster"
                assert stats["cluster"]["routed"] >= 30.0
        finally:
            handle.close()
    finally:
        cluster.close()
