"""Fixtures for the serving-layer tests: a catalog over the two-table
database, a family of factor-sharing queries, and a hold on the serving
thread for tests that need a deterministic batch."""

from __future__ import annotations

import threading

import pytest

from repro.catalog import StatisticsCatalog
from repro.core.predicates import FilterPredicate
from repro.engine.expressions import Query
from repro.service.queue import AdmissionQueue
from repro.stats.builder import SITBuilder


@pytest.fixture()
def service_catalog(two_table_db, two_table_pool) -> StatisticsCatalog:
    """A fresh refresh-capable catalog per test (tests mutate it)."""
    return StatisticsCatalog.from_pool(
        two_table_pool,
        database=two_table_db,
        builder=SITBuilder(two_table_db),
    )


@pytest.fixture()
def join_query(two_table_attrs, two_table_join) -> Query:
    return Query.of(
        two_table_join, FilterPredicate(two_table_attrs["Ra"], 10.0, 40.0)
    )


@pytest.fixture()
def factor_sharing_queries(two_table_attrs, two_table_join) -> list[Query]:
    """K queries sharing the join factor, each with a different filter —
    the shared-factor workload in miniature."""
    attribute = two_table_attrs["Ra"]
    return [
        Query.of(two_table_join, FilterPredicate(attribute, low, low + 25.0))
        for low in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
    ]


@pytest.fixture()
def hold_worker(monkeypatch):
    """Hold the serving thread of every service built in this test before
    its first dequeue; call the returned ``release`` to let it go.

    The thread batches whatever is queued and never lingers for more, so
    everything submitted before ``release()`` lands in one batch (up to
    ``max_batch``).
    """
    gate = threading.Event()
    take_batch = AdmissionQueue.take_batch

    def held(self, *args, **kwargs):
        gate.wait(timeout=30.0)
        return take_batch(self, *args, **kwargs)

    monkeypatch.setattr(AdmissionQueue, "take_batch", held)
    yield gate.set
    gate.set()
