"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and
units; ``tests/test_manifest.py`` keeps the two in step.
"""

from perfbench.tracing import BENCH, LAYERS

#: Table 1's host cycle categories (repro.host.cpu).
CYCLE_CATEGORIES = ("driver", "tcp", "sockets", "app", "other")

#: Reported with ``--trace 0``.
END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "payload_mb_per_s": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
    "sim_ops_per_s": "ops/s",
    "sim_goodput_gbps": "Gbit/s",
    "sim_rtt_p50_us": "us",
    "sim_rtt_tail_us": "us",
    "host_cycles_per_op": "cycles",
}

#: Reported with ``--trace 1``: traced host time per layer, then the
#: modelled counts of the untraced window.
PER_LAYER_UNITS = {}
for _layer in LAYERS + (BENCH,):
    PER_LAYER_UNITS[_layer + ".self_s"] = "s"
    PER_LAYER_UNITS[_layer + ".calls"] = "count"
PER_LAYER_UNITS.update(
    {
        "trace.overhead": "ratio",
        "sim.events_per_op": "events/op",
        "flextoe.lmem_hit_frac": "ratio",
        "flextoe.cls_hit_frac": "ratio",
        "flextoe.emem_miss_frac": "ratio",
        "flextoe.lookup_misses": "count",
        "flextoe.fast_retransmits": "count",
        "nfp.fpc_busy_frac": "ratio",
        "nfp.dma_ops_per_op": "ops/op",
        "nfp.dma_bytes_per_op": "bytes/op",
        "control.handshakes": "count",
        "control.retransmits": "count",
        "control.connect_sim_us_p50": "us",
        "net.switch_drops": "count",
        "net.queue_depth_max": "bytes",
        "net.wire_bytes_per_payload_byte": "ratio",
        "faults.injections": "count",
        "xdp.runs_per_op": "runs/op",
        "xdp.drop_frac": "ratio",
        "libtoe.bytes_per_recv": "bytes",
        "apps.kv_get_hit_frac": "ratio",
        "baselines.retransmitted_bytes": "bytes",
    }
)
for _category in CYCLE_CATEGORIES:
    PER_LAYER_UNITS["host.cycles_per_op." + _category] = "cycles"
