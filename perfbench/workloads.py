"""Inputs of the benchmark: the database, the catalog, and the request streams.

The database is generated from a fixed seed (:data:`DATA_SEED`), so every
run estimates against the same statistics, and the steady templates are
fixed the same way, as an application's are.  The ``--seed`` argument picks
the request stream: which template each request uses, the ad-hoc shapes and
every filter constant.  Nothing here is timed
except :func:`build_catalog`, which is the first step of every workload's
set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.catalog import StatisticsCatalog
from repro.core.plancache import shape_fingerprint
from repro.core.predicates import (
    Attribute,
    FilterPredicate,
    JoinPredicate,
    connected_components,
)
from repro.engine.database import Database
from repro.workload.queries import WorkloadConfig, WorkloadGenerator
from repro.workload.snowflake import SnowflakeConfig, generate_snowflake

#: snowflake scale factor (the ``python -m repro serve`` default)
SCALE = 0.15
#: seed of the generated data and of the catalog's build workload
DATA_SEED = 11
#: J2F2 queries the catalog's SITs are built for (``max_joins=2``)
BUILD_QUERIES = 8
#: base-table selectivity of one range filter (the paper's default)
FILTER_WIDTH = 0.05
#: templates per (joins, filters) shape class in the steady stream
TEMPLATES_PER_SHAPE = 4
#: filter counts of the ad-hoc stream's J2 queries: two J2F2 per J2F3
ADHOC_FILTERS = (2, 2, 3)


@dataclass(frozen=True)
class Request:
    """One estimate request: SQL text plus the predicates it binds to."""

    sql: str
    predicates: frozenset
    #: the plan-cache shape fingerprint of ``predicates``
    fingerprint: tuple


def build_database() -> Database:
    return generate_snowflake(SnowflakeConfig(scale=SCALE, seed=DATA_SEED))


def build_queries(database: Database) -> list:
    """The workload the catalog's SITs are built for."""
    generator = WorkloadGenerator(
        database, WorkloadConfig(join_count=2, filter_count=2, seed=DATA_SEED)
    )
    return generator.generate(BUILD_QUERIES)


def build_catalog(database: Database, queries: list) -> StatisticsCatalog:
    """A J<=2 catalog with every base histogram backfilled, as the serve
    command builds it (ad-hoc SQL may filter on any attribute)."""
    catalog = StatisticsCatalog.build(database, queries, max_joins=2)
    present = {sit.attribute for sit in catalog if sit.is_base}
    for table in database.schema.tables.values():
        for attribute in table.attributes:
            if attribute not in present:
                catalog.add(catalog.builder.build_base(attribute))
    return catalog


def render_sql(predicates) -> str:
    tables = sorted({t for p in predicates for t in p.tables})
    clauses = []
    for p in sorted(predicates, key=str):
        if p.is_join:
            clauses.append(f"{p.left} = {p.right}")
        else:
            clauses.append(f"{p.attribute} BETWEEN {p.low!r} AND {p.high!r}")
    return (
        f"SELECT * FROM {', '.join(tables)} WHERE {' AND '.join(clauses)}"
    )


class StreamMaker:
    """Seeded request generator over one database.

    A *template* is a connected join subtree plus the attributes its range
    filters restrict; a request instantiates a template with fresh filter
    constants, each range covering :data:`FILTER_WIDTH` of the attribute's
    non-null values around a random quantile.
    """

    def __init__(self, database: Database, seed: int):
        self.database = database
        self.rng = np.random.default_rng(seed)
        self._sorted: dict[Attribute, np.ndarray] = {}
        keys: set[Attribute] = set()
        for table in database.schema.tables.values():
            if table.primary_key is not None:
                keys.add(Attribute(table.name, table.primary_key))
        for fk in database.schema.foreign_keys:
            keys.update((fk.source, fk.target))
        self._filterable = {
            table.name: [a for a in table.attributes if a not in keys]
            for table in database.schema.tables.values()
        }
        edges = [
            JoinPredicate(fk.source, fk.target)
            for fk in database.schema.foreign_keys
        ]
        #: every connected join subtree of the schema, by edge count
        self.subtrees = {
            joins: [
                combo
                for combo in combinations(edges, joins)
                if len(connected_components(frozenset(combo))) == 1
            ]
            for joins in (1, 2)
        }

    def _values(self, attribute: Attribute) -> np.ndarray:
        values = self._sorted.get(attribute)
        if values is None:
            column = self.database.column(attribute)
            values = np.sort(column[~np.isnan(column)])
            self._sorted[attribute] = values
        return values

    def template(self, joins: tuple, filters: int) -> tuple:
        """``joins`` plus ``filters`` distinct random filterable attributes
        of its tables."""
        tables = sorted({t for join in joins for t in join.tables})
        attributes = [a for t in tables for a in self._filterable[t]]
        picked = self.rng.choice(len(attributes), size=filters, replace=False)
        return joins, tuple(attributes[int(i)] for i in picked)

    def random_template(self, joins: int, filters: int) -> tuple:
        subtrees = self.subtrees[joins]
        return self.template(subtrees[int(self.rng.integers(len(subtrees)))], filters)

    def instantiate(self, template: tuple) -> Request:
        joins, attributes = template
        predicates = set(joins)
        for attribute in attributes:
            values = self._values(attribute)
            start = float(self.rng.uniform(0.0, 1.0 - FILTER_WIDTH))
            last = values.size - 1
            low = float(values[int(start * last)])
            high = float(values[int((start + FILTER_WIDTH) * last)])
            predicates.add(FilterPredicate(attribute, low, high))
        frozen = frozenset(predicates)
        fingerprint, _ = shape_fingerprint(frozen)
        return Request(render_sql(frozen), frozen, fingerprint)


def steady_templates(database: Database) -> list:
    """The application's fixed templates: :data:`TEMPLATES_PER_SHAPE` each
    of J1F1, J1F2, J2F1 and J2F2, drawn once from :data:`DATA_SEED`."""
    maker = StreamMaker(database, DATA_SEED)
    return [
        maker.random_template(joins, filters)
        for joins in (1, 2)
        for filters in (1, 2)
        for _ in range(TEMPLATES_PER_SHAPE)
    ]


def steady_stream(database: Database, seed: int, length: int) -> tuple:
    """The template-replay stream: a seeded pick of one fixed template and
    fresh constants per request.  Returns ``(templates, requests)``."""
    templates = steady_templates(database)
    maker = StreamMaker(database, seed)
    picks = maker.rng.integers(len(templates), size=length)
    return templates, [maker.instantiate(templates[int(i)]) for i in picks]


class AdhocStream:
    """Endless fresh J2F2/J2F3 queries: a new template for every request.

    Requests come in rounds that pair every J2 subtree of the schema with
    every entry of :data:`ADHOC_FILTERS`, in a seeded order,
    so the join mix is the same for every seed; the filter attributes and
    constants are drawn fresh.
    """

    def __init__(self, database: Database, seed: int):
        self._maker = StreamMaker(database, seed)
        self._round: list[tuple] = []

    def next(self) -> Request:
        maker = self._maker
        if not self._round:
            self._round = [
                (subtree, filters)
                for subtree in maker.subtrees[2]
                for filters in ADHOC_FILTERS
            ]
            maker.rng.shuffle(self._round)
        subtree, filters = self._round.pop()
        return maker.instantiate(maker.template(subtree, filters))
