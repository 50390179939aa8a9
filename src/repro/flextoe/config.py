"""Pipeline configuration: parallelism knobs and per-stage cycle costs.

:class:`PipelineConfig` holds only what the evaluation varies. The
parallelism knobs correspond exactly to the rows of Table 3:

* ``pipelined=False`` — run-to-completion baseline: one FPC thread
  executes every stage (including DMA waits) for one segment at a time.
* ``threads_per_fpc`` — intra-FPC hardware threading (1 vs 8).
* ``pre_replicas``/``post_replicas``/``dma_replicas`` — replicated
  pre/post/DMA stages with sequencing + reordering for correctness.
* ``n_flow_groups`` — protocol islands (1 vs 4).

The state-cache sizes (``state_cache_lmem_entries``,
``state_cache_cls_entries``, ``emem_cache_records``) are the Fig 14
knobs, and ``delayed_ack_segments`` is the delayed-ACK ablation.

Everything else is a module-level constant:

* :class:`StageCosts` — the per-stage FPC cycle cost table. The costs
  are the model's calibration surface; they are rough NFP micro-C
  instruction counts, not measurements, and the benchmarks only rely on
  their relative magnitudes.
* :data:`RING_CAPACITY`, :data:`DESCRIPTOR_POOL`,
  :data:`HEARTBEAT_INTERVAL_NS` — ring, descriptor-pool and heartbeat
  sizing of the data path.

The MSS is :data:`repro.proto.tcp.MSS`, shared by every stack.
Data-path IP headers always carry ECT(0). Whether a segment carries the
timestamp option, and whether an ACK echoes ECE, follows the
connection's ``use_timestamps``/``use_ecn`` slab flags (Table 5).
"""


class StageCosts:
    """Per-operation FPC cycle costs for each pipeline stage.

    A constant table: stage programs read ``StageCosts.<op>`` directly,
    so every cost is static data. Nothing in the evaluation varies them.
    """

    pre_validate = 95
    pre_identify = 60
    pre_summary = 85
    pre_steer = 25
    proto_update = 115
    proto_ooo_extra = 130
    proto_fast_retransmit = 90
    post_ack_prepare = 150
    post_stamp = 55
    post_stats = 60
    post_position = 70
    dma_issue = 70
    ctx_notify = 80
    ctx_doorbell_poll = 40
    hc_window_update = 70
    tx_alloc = 50
    tx_header = 65
    tx_seq = 85
    sched_dequeue = 45


#: Capacity of each flow group's CLS proto-in and post-in rings.
RING_CAPACITY = 128
#: Host-control descriptor buffers in the NIC pool (ATX flow control).
DESCRIPTOR_POOL = 256
#: Period at which every stage-group FPC bumps its heartbeat slot.
HEARTBEAT_INTERVAL_NS = 50_000


class PipelineConfig:
    """Data-path deployment configuration (replication is static, §3.3)."""

    def __init__(
        self,
        pipelined=True,
        threads_per_fpc=8,
        pre_replicas=4,
        post_replicas=4,
        n_flow_groups=4,
        dma_replicas=4,
        delayed_ack_segments=1,
        state_cache_lmem_entries=16,
        state_cache_cls_entries=512,
        emem_cache_records=16384,
    ):
        if n_flow_groups < 1:
            raise ValueError("need at least one flow group")
        self.pipelined = pipelined
        self.threads_per_fpc = threads_per_fpc
        self.pre_replicas = pre_replicas
        self.post_replicas = post_replicas
        self.n_flow_groups = n_flow_groups
        self.dma_replicas = dma_replicas
        self.delayed_ack_segments = max(1, delayed_ack_segments)
        self.state_cache_lmem_entries = state_cache_lmem_entries
        self.state_cache_cls_entries = state_cache_cls_entries
        self.emem_cache_records = emem_cache_records

    @classmethod
    def baseline_run_to_completion(cls):
        """Table 3 row 1: everything serial on one FPC thread.

        The monolithic program cannot pin per-stage state in local
        memory, so its connection-state caches are effectively absent
        (every access goes to EMEM), and all NIC service activity
        (descriptor fetch, notifications, NBI) serializes with segment
        processing."""
        return cls(
            pipelined=False,
            threads_per_fpc=1,
            pre_replicas=1,
            post_replicas=1,
            n_flow_groups=1,
            dma_replicas=1,
            state_cache_lmem_entries=1,
            state_cache_cls_entries=1,
        )

    @classmethod
    def pipelined_single_thread(cls):
        """Table 3 row 2: pipeline stages on dedicated FPCs, 1 thread each."""
        return cls(pipelined=True, threads_per_fpc=1, pre_replicas=1, post_replicas=1, n_flow_groups=1, dma_replicas=1)

    @classmethod
    def with_intra_fpc_parallelism(cls):
        """Table 3 row 3: + 8 hardware threads per FPC."""
        return cls(pipelined=True, threads_per_fpc=8, pre_replicas=1, post_replicas=1, n_flow_groups=1, dma_replicas=1)

    @classmethod
    def with_replicated_pre_post(cls):
        """Table 3 row 4: + replicated pre/post stages."""
        return cls(pipelined=True, threads_per_fpc=8, pre_replicas=4, post_replicas=4, n_flow_groups=1, dma_replicas=2)

    @classmethod
    def full(cls):
        """Table 3 row 5: + four flow-group islands (the default)."""
        return cls()

    def flow_group_of(self, four_tuple):
        """hash(4-tuple) % n_flow_groups (paper Table 5: flow_group)."""
        from repro.nfp.cam import crc32_tuple

        return crc32_tuple(*four_tuple) % self.n_flow_groups
