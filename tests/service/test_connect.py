"""The one client construction path: ``connect()`` dispatch for every
target kind; the pre-redesign names stay removed."""

from __future__ import annotations

import pytest

from repro.service import (
    EstimationService,
    InProcessClient,
    ServiceConfig,
    SocketClient,
    connect,
)
from repro.service.server import start_in_thread


@pytest.fixture()
def service(service_catalog):
    svc = EstimationService(service_catalog, config=ServiceConfig())
    yield svc
    svc.close()


class TestConnectDispatch:
    def test_live_service_gets_an_in_process_client(self, service, join_query):
        client = connect(service)
        assert isinstance(client, InProcessClient)
        assert client.service is service
        answer = client.estimate(join_query)
        assert 0.0 <= answer.selectivity <= 1.0
        # the client does not own the service: close leaves it serving
        client.close()
        assert service.estimate(join_query).selectivity == answer.selectivity

    def test_statistics_spin_up_a_private_service(
        self, service_catalog, join_query
    ):
        with connect(
            service_catalog, config=ServiceConfig(queue_depth=16)
        ) as client:
            assert isinstance(client, InProcessClient)
            assert client.service.config.queue_depth == 16
            assert client.estimate(join_query).selectivity > 0.0
        # owned: close shut the private service down
        with pytest.raises(Exception):
            client.service.estimate(join_query)

    def test_bare_pool_is_statistics_too(
        self, two_table_pool, two_table_db, join_query
    ):
        with connect(two_table_pool, database=two_table_db) as client:
            assert isinstance(client, InProcessClient)
            assert client.estimate(join_query).selectivity > 0.0

    def test_host_port_string_dials_a_socket(self, service, join_query):
        handle = start_in_thread(service, port=0)
        try:
            host, port = handle.address
            with connect(f"{host}:{port}") as client:
                assert isinstance(client, SocketClient)
                assert client.ping()
                assert client.estimate(join_query).selectivity > 0.0
        finally:
            handle.close()

    def test_host_port_tuple_dials_a_socket(self, service):
        handle = start_in_thread(service, port=0)
        try:
            with connect(handle.address) as client:
                assert isinstance(client, SocketClient)
                assert client.ping()
        finally:
            handle.close()

    def test_server_handle_dials_its_bound_address(self, service):
        handle = start_in_thread(service, port=0)
        try:
            with connect(handle) as client:
                assert isinstance(client, SocketClient)
                assert (client.host, client.port) == handle.address
                assert client.ping()
        finally:
            handle.close()

    def test_existing_client_passes_through(self, service):
        client = connect(service)
        assert connect(client) is client

    def test_existing_client_rejects_reconfiguration(self, service):
        client = connect(service)
        with pytest.raises(TypeError, match="re-configure"):
            connect(client, timeout_s=1.0)

    def test_malformed_address_string(self):
        with pytest.raises(ValueError, match="host:port"):
            connect("localhost")
        with pytest.raises(ValueError, match="host:port"):
            connect("localhost:notaport")

    def test_unknown_target_type(self):
        with pytest.raises(TypeError, match="cannot connect"):
            connect(42)


class TestDeprecatedShims:
    def test_client_names_are_removed(self):
        import repro.service

        assert not hasattr(repro.service, "Client")
        assert not hasattr(repro.service, "TCPClient")
        assert not hasattr(InProcessClient, "in_process")

    def test_connect_itself_is_warning_free(self, service, recwarn):
        connect(service).close()
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
