"""Pre-forked multi-process server."""

import pytest

from repro import Host, SystemMode
from repro.apps.httpserver import MultiProcessServer
from repro.apps.webclient import HttpClient
from repro.net.packet import ip_addr


def served_host(mode=SystemMode.UNMODIFIED, **kwargs):
    host = Host(mode=mode, seed=35)
    host.kernel.fs.add_file("/index.html", 1024)
    host.kernel.fs.warm("/index.html")
    server = MultiProcessServer(host.kernel, **kwargs)
    server.install()
    return host, server


def test_workers_forked_and_master_exits():
    host, server = served_host(n_workers=4)
    host.run(until_us=20_000.0)
    names = [p.name for p in host.kernel.processes.values()]
    workers = [n for n in names if n.startswith("mp-httpd-w")]
    assert len(workers) == 4
    assert "mp-httpd" not in names  # master exited after forking


@pytest.mark.parametrize(
    "mode", [SystemMode.UNMODIFIED, SystemMode.LRP, SystemMode.RC]
)
def test_listen_socket_survives_master_exit(mode):
    """In LRP/RC mode early demultiplexing delivers a SYN to the listen
    socket's owner, so the exiting master must hand the socket over to
    a worker that still holds it."""
    host, server = served_host(mode=mode, n_workers=2)
    client = HttpClient(host.kernel, ip_addr(10, 0, 0, 1), "c")
    client.start(at_us=5_000.0)
    host.run(until_us=100_000.0)
    assert client.stats_completed > 5


def test_concurrent_clients_spread_over_workers():
    host, server = served_host(n_workers=4)
    clients = [
        HttpClient(host.kernel, ip_addr(10, 0, 0, i + 1), f"c{i}")
        for i in range(4)
    ]
    for index, client in enumerate(clients):
        client.start(at_us=5_000.0 + index * 100.0)
    host.run(until_us=300_000.0)
    assert all(c.stats_completed > 5 for c in clients)


def test_each_worker_is_own_resource_principal():
    """Section 3.1/Fig. 6: a multi-process app appears to the kernel as
    several resource principals."""
    host, server = served_host(n_workers=3)
    host.run(until_us=10_000.0)
    principals = [
        p.default_container.name for p in host.kernel.processes.values()
    ]
    assert len(set(principals)) == 3


def test_needs_at_least_one_worker():
    host = Host(mode=SystemMode.UNMODIFIED, seed=35)
    with pytest.raises(ValueError):
        MultiProcessServer(host.kernel, n_workers=0)
