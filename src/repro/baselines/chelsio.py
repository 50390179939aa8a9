"""The Chelsio Terminator TOE personality.

TCP runs in fixed-function NIC hardware: host TCP cycles nearly vanish
(Table 1), and unidirectional streaming at 100 Gbps is its strength
(Fig 13a). The hardwired engine cannot be adapted: recovery is RTO-only
with a conservative minimum (Fig 15 collapse), reassembly is a single
interval, and the kernel-based driver + epoll dominate RPC cost
(Figs 9/11/14)."""

from repro.baselines.costs import CHELSIO_COSTS
from repro.baselines.engine import TcpEngineConfig
from repro.baselines.stack import BaselineHost, Personality


class ChelsioPersonality(Personality):
    name = "chelsio"

    def __init__(self):
        config = TcpEngineConfig(
            recovery="rto_only",
            reassembly="interval",
            delayed_ack_segments=2,
            rto_ns=5_000_000,
            min_rto_ns=5_000_000,
        )
        super().__init__(CHELSIO_COSTS, config)
        self.nic_tcp = True
        self.kernel_lock = True
        self.nic_tcp_capacity = 16
        self.nic_tcp_service_ns = 100
        self.rx_dispatchers = 4


def add_chelsio_host(testbed, name, n_cores=20, link_rate_bps=100_000_000_000, **attach_kwargs):
    """Attach a Chelsio-TOE host (100 Gbps NIC, per the testbed)."""
    attach_kwargs.setdefault("rate_bps", link_rate_bps)
    mac, ip = testbed.addresses()
    attach_kwargs.setdefault("mac", mac)
    attach_kwargs.setdefault("ip", ip)
    host = BaselineHost(
        testbed.sim, testbed, name, ChelsioPersonality(), n_cores=n_cores, **attach_kwargs
    )
    testbed.add_host(name, host)
    return host
