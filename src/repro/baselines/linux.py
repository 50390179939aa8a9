"""The Linux in-kernel TCP stack personality.

Versatile but bulky (paper §2.1): full SACK recovery and unrestricted
reassembly make it the most loss-robust stack (Fig 15b), but syscall
overheads, a coarse kernel lock, and interrupt wakeup latency cap its
throughput and multi-core scaling (Figs 9/10/16)."""

from repro.baselines.costs import LINUX_COSTS
from repro.baselines.engine import TcpEngineConfig
from repro.baselines.stack import BaselineHost, Personality


class LinuxPersonality(Personality):
    name = "linux"

    def __init__(self):
        config = TcpEngineConfig(
            recovery="sack",
            reassembly="full",
            delayed_ack_segments=2,
            rto_ns=2_000_000,
            min_rto_ns=1_000_000,
        )
        super().__init__(LINUX_COSTS, config)
        self.kernel_lock = True
        self.rx_dispatchers = 4


def add_linux_host(testbed, name, n_cores=20, **attach_kwargs):
    """Attach a Linux-stack host to a testbed."""
    mac, ip = testbed.addresses()
    attach_kwargs.setdefault("mac", mac)
    attach_kwargs.setdefault("ip", ip)
    host = BaselineHost(
        testbed.sim, testbed, name, LinuxPersonality(), n_cores=n_cores, **attach_kwargs
    )
    testbed.add_host(name, host)
    return host
