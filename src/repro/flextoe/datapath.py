"""Data-path assembly: rings, sequencers, FPC assignment (paper Fig. 8).

The full deployment uses four *protocol islands* (one flow-group each:
4 pre FPCs + 1 protocol FPC + 4 post FPCs, 3 FPCs free for extension
modules) and one *service island* (context-queue FPCs ARX/ATX, the flow
scheduler SCH, DMA managers, NBI drain, GRO/BLM sequencing). Reduced
configurations (Table 3 ablation rows) claim proportionally fewer FPCs;
the run-to-completion baseline executes every stage inline on a single
FPC thread.
"""

from collections import deque

from repro.analysis import sanitizer
from repro.flextoe.config import DESCRIPTOR_POOL, HEARTBEAT_INTERVAL_NS, RING_CAPACITY
from repro.flextoe.ctxq import ContextQueuePair
from repro.flextoe.descriptors import SegWork, WORK_RX, WORK_TX
from repro.flextoe.scheduler import CarouselScheduler
from repro.flextoe.seqr import ReorderBuffer, Sequencer
from repro.flextoe.stages import CtxStage, DmaStage, NbiStage, PostStage, PreStage, ProtocolStage
from repro.flextoe.statecache import EmemStateCache, StateCache
from repro.flextoe.state import ConnectionTable, HeartbeatBoard
from repro.flextoe.tracing import TracepointRegistry
from repro.nfp.memory import LAT_IMEM
from repro.proto.packet import Frame
from repro.sim import Interrupt, Resource, Store
from repro.nfp.queues import Ring


class _ImemLevel:
    __slots__ = ("latency_cycles", "reads", "writes")

    def __init__(self):
        self.latency_cycles = LAT_IMEM
        self.reads = 0
        self.writes = 0


class _TxTriggerAdapter:
    """Presents the pre-stage input ring as the scheduler's TX ring,
    wrapping connection indices into SegWork items."""

    def __init__(self, dp):
        self.dp = dp

    def put(self, conn_index):
        work = SegWork(WORK_TX, born_at=self.dp.sim.now)
        work.conn_index = conn_index
        return self.dp.pre_in.put(work)


class FlexToeDatapath:
    """The wired pipeline on a given NFP chip."""

    #: Static pipeline-model anchors, parsed by repro.analysis.hblint.
    #: Sequencer domain -> the reorder buffer that restores its order.
    SEQR_DOMAINS = {"rx_seqr": "rx_gro", "nbi_seqr": "nbi_gro"}
    #: Rings whose enqueue order is a delivery-order contract, and the
    #: key the contract is per: per-connection for dma_ring (§3.1.3),
    #: per-context for ctx_ring (notification order is libTOE's stream
    #: order). nbi_ring is deliberately absent: wire-level reordering is
    #: TCP-tolerated, and the NBI GRO already restores ticket order.
    ORDERED_RINGS = {"dma_ring": "conn", "ctx_ring": "context"}

    def __init__(self, sim, chip, config, capture=None, ingress_modules=None, egress_modules=None, control_ring=None):
        self.sim = sim
        self.chip = chip
        self.config = config
        self.mac = chip.mac
        self.pcie = chip.pcie
        self.dma = chip.dma
        self.lookup_engine = chip.lookup_engine
        self.conn_table = ConnectionTable()
        self.tracepoints = TracepointRegistry()
        self.capture = capture
        self.ingress_modules = ingress_modules
        self.egress_modules = egress_modules
        self.contexts = {}
        self.stats = {}
        self.imem_latency_level = _ImemLevel()

        self.pre_in = Ring(sim, name="pre-in")
        groups = range(config.n_flow_groups)
        self.proto_rings = [Ring(sim, capacity=RING_CAPACITY, name="proto-in-%d" % g) for g in groups]
        self.post_rings = [Ring(sim, capacity=RING_CAPACITY, name="post-in-%d" % g) for g in groups]
        self.dma_ring = Ring(sim, name="dma-in")
        self.ctx_ring = Ring(sim, name="ctx-in")
        self.nbi_ring = Ring(sim, name="nbi-in")
        # The control ring lives in host memory: a NIC facade that reboots
        # the datapath passes the same ring so the control plane's RX loop
        # survives the swap.
        self.control_ring = control_ring if control_ring is not None else Store(sim, name="to-control")

        # Sequencing domains (§3.2).
        self.rx_seqr = Sequencer()
        self.rx_gro = ReorderBuffer(sim, output_fn=self._route_to_protocol, name="rx-gro")
        self.nbi_seqr = Sequencer()
        self.nbi_gro = ReorderBuffer(sim, output_ring=self.nbi_ring, name="nbi-gro")

        # Bounded NIC resources.
        self.ctm_pool = Resource(sim, capacity=max(8, 64 * config.n_flow_groups), name="ctm-segments")
        # Run-to-completion baseline: one segment in the whole NIC at a
        # time — service programs contend on this lock (Table 3 row 1).
        self.serial_lock = None if config.pipelined else Resource(sim, capacity=1, name="rtc-serial")
        self.descriptor_pool = Resource(sim, capacity=DESCRIPTOR_POOL, name="hc-descriptors")
        self._held_descriptors = deque()

        # conn_index -> completion event of that connection's latest RX
        # DMA work; chains notifications into pipeline order (§3.1.3)
        # even when individual DMA ops complete out of order.
        self.dma_rx_chain = {}
        # conn_index -> completion event of the latest work a post
        # thread popped for that connection; fences replicated post
        # threads so dma_ring preserves per-connection protocol order.
        self.post_chain = {}

        # Flow scheduler (service island SCH FPC).
        self.scheduler = CarouselScheduler(sim, _TxTriggerAdapter(self))

        # Stage objects.
        self.emem_state_cache = EmemStateCache(capacity_records=config.emem_cache_records)
        self.pre_stages = []
        self.protocol_stages = []
        self.post_stages = []
        self.dma_stages = []
        self.nbi_stage = NbiStage(self)
        self.ctx_stage = CtxStage(self)

        self.rx_frames_seen = 0
        self.rx_frames_dropped_full = 0

        #: stage kind -> [Fpc, ...]; lets the fault layer (repro.faults)
        #: target "stall a protocol FPC" without groping the islands.
        self.stage_fpcs = {}

        #: Every spawned data-path process (stage threads, GRO delivery,
        #: heartbeat publishers, snapshot DMA). crash() interrupts them all.
        self.processes = []
        self.crashed = False
        self.heartbeats = HeartbeatBoard()

        sanitizer.maybe_install_from_env()
        self._assign_fpcs()
        self._spawn_heartbeats()
        self.hb_monitor = None
        if sanitizer.enabled() and config.pipelined:
            # Differential check of the static happens-before model
            # against observed interleavings (passive ring taps; no sim
            # events, so golden digests are unchanged). RTC mode runs
            # every stage inline on one thread — nothing to order.
            from repro.analysis.hbmonitor import HbMonitor

            self.hb_monitor = HbMonitor(self)
        self.mac.rx_handler = self._on_mac_rx

    # -- construction ------------------------------------------------------

    def _killable(self, generator):
        """Outermost wrapper for every data-path process: a crash()
        interrupt terminates the program cleanly instead of propagating
        out of the simulator loop."""
        try:
            yield from generator
        except Interrupt:
            return

    def _spawn(self, fpc, program, name, stage_kind, flow_group=None):
        """Spawn a stage process, tagging it with ownership context when
        the runtime sanitizer is active (REPRO_SANITIZE=1)."""
        fpcs = self.stage_fpcs.setdefault(stage_kind, [])
        if fpc not in fpcs:
            fpcs.append(fpc)

        def factory(thread, _p=program, _k=stage_kind, _g=flow_group):
            generator = _p(thread)
            if sanitizer.enabled():
                generator = sanitizer.guard_process(generator, _k, _g)
            return self._killable(generator)

        thread = fpc.spawn(factory, name=name)
        self.processes.append(thread.process)
        return thread

    def _spawn_gro_delivery(self, gro, name, stage_kind):
        """Run a reorder buffer's delivery loop as its own sim process.

        The GRO/BLM FPCs are real pipeline actors in the paper (§3.2);
        running their releases inline in whichever stage happened to
        complete the sequence hid them from the runtime sanitizer. The
        dedicated process carries a ``gro``/``seqr`` owner token so
        REPRO_SANITIZE=1 attributes any illegal write it performs.
        """
        gro.use_process_delivery()
        generator = gro.delivery_program()
        if sanitizer.enabled():
            generator = sanitizer.guard_process(generator, stage_kind)
        process = self.sim.process(self._killable(generator), name=name)
        self.processes.append(process)
        return process

    def _spawn_heartbeats(self):
        """One heartbeat publisher per registered stage-group FPC.

        Publishers are zero-cost sim processes (the beat write itself is
        charged via the atomic engine), so they never perturb pipeline
        timing; they die with the data-path on crash(), which is exactly
        what stops the beats and trips the control-plane watchdog."""
        for stage_kind in sorted(self.stage_fpcs):
            for slot, _fpc in enumerate(self.stage_fpcs[stage_kind]):
                key = (stage_kind, slot)

                def publisher(_key=key):
                    while True:
                        yield self.sim.timeout(HEARTBEAT_INTERVAL_NS)
                        self.heartbeats.publish(_key)

                process = self.sim.process(
                    self._killable(publisher()), name="hb-{}-{}".format(stage_kind, slot)
                )
                self.processes.append(process)

    def enable_state_snapshots(self, writer, interval_ns):
        """Periodically DMA volatile protocol fields to a host shadow.

        ``writer(conn_index, snapshot_dict)`` runs host-side; the shadow
        it fills survives a data-path crash and bounds the staleness of
        the fields recovery cannot derive from descriptor history
        (``remote_win``, timestamp echo state)."""

        def snapshot_loop():
            while True:
                yield self.sim.timeout(interval_ns)
                records = self.conn_table.records()
                if not records:
                    continue
                yield self.dma.issue(0, 16 * len(records))
                now = self.sim.now
                for record in records:
                    proto = record.proto
                    writer(
                        record.index,
                        {
                            "remote_win": proto.remote_win,
                            "next_ts": proto.next_ts,
                            "sampled_at": now,
                        },
                    )

        process = self.sim.process(self._killable(snapshot_loop()), name="state-snapshot")
        self.processes.append(process)
        return process

    def crash(self):
        """Hard-stop the data path (fault injection / recovery quiesce).

        Kills every spawned process and detaches the NBI ingress handler;
        NIC-internal state (rings, caches, connection table) is dead with
        the chip. Host-visible memory — context queue pairs, the control
        ring, payload buffers — is untouched. Idempotent."""
        if self.crashed:
            return
        self.crashed = True
        self.mac.rx_handler = None
        for process in self.processes:
            if process.is_alive:
                process.interrupt("nic-crash")

    def _assign_fpcs(self):
        config = self.config
        chip = self.chip
        if not config.pipelined:
            # Run-to-completion polls the downstream rings synchronously
            # right after offering, so GRO delivery must stay inline.
            self._assign_run_to_completion()
            return
        self._spawn_gro_delivery(self.rx_gro, "rx-gro-deliver", "gro")
        self._spawn_gro_delivery(self.nbi_gro, "nbi-gro-deliver", "seqr")
        threads = config.threads_per_fpc
        # Protocol islands: flow-groups spread over the first N islands.
        for group in range(config.n_flow_groups):
            island = chip.islands[group % max(1, len(chip.islands) - 1)]
            cache = StateCache(
                lmem_entries=config.state_cache_lmem_entries,
                cls_entries=config.state_cache_cls_entries,
                emem_cache=self.emem_state_cache,
            )
            stage = ProtocolStage(self, group, cache)
            self.protocol_stages.append(stage)
            fpc = island.claim_fpc()
            for _ in range(threads):
                self._spawn(fpc, stage.program, "proto-g%d" % group, "proto", group)
            for replica in range(config.pre_replicas):
                pre = PreStage(self, replica_id=replica)
                self.pre_stages.append(pre)
                pre_fpc = island.claim_fpc()
                for _ in range(threads):
                    self._spawn(pre_fpc, pre.program, "pre-g%d-r%d" % (group, replica), "pre")
            for replica in range(config.post_replicas):
                post = PostStage(self, group, replica_id=replica)
                self.post_stages.append(post)
                post_fpc = island.claim_fpc()
                for _ in range(threads):
                    self._spawn(post_fpc, post.program, "post-g%d-r%d" % (group, replica), "post", group)
        # Service island: DMA managers, NBI, context queues, scheduler.
        service = chip.islands[-1]
        for replica in range(config.dma_replicas):
            dma = DmaStage(self, replica_id=replica)
            self.dma_stages.append(dma)
            fpc = service.claim_fpc()
            for _ in range(threads):
                self._spawn(fpc, dma.program, "dma-r%d" % replica, "dma")
        nbi_fpc = service.claim_fpc()
        for _ in range(max(1, threads // 2)):
            self._spawn(nbi_fpc, self.nbi_stage.program, "nbi", "nbi")
        ctx_fpc = service.claim_fpc()
        self._spawn(ctx_fpc, self.ctx_stage.atx_program, "ctx-atx", "ctx")
        for _ in range(max(1, threads - 1)):
            self._spawn(ctx_fpc, self.ctx_stage.arx_program, "ctx-arx", "ctx")
        sched_fpc = service.claim_fpc()
        self._spawn(sched_fpc, self.scheduler.program, "sch", "sch")

    def _assign_run_to_completion(self):
        """Table 3 baseline: the whole TCP data-path on one FPC thread.

        Stage *logic* is reused; only the execution structure changes:
        one worker thread pulls from a single merged queue and runs
        pre/protocol/post/DMA for each item to completion, waiting out
        every memory and PCIe latency inline. Service-infrastructure
        programs (scheduler, doorbell watcher, NBI drain) still run, on
        the same island.
        """
        chip = self.chip
        island = chip.islands[0]
        cache = StateCache(
            lmem_entries=self.config.state_cache_lmem_entries,
            cls_entries=self.config.state_cache_cls_entries,
            emem_cache=self.emem_state_cache,
        )
        pre = PreStage(self)
        proto = ProtocolStage(self, 0, cache)
        post = PostStage(self, 0)
        dma = DmaStage(self)
        self.pre_stages.append(pre)
        self.protocol_stages.append(proto)
        self.post_stages.append(post)
        self.dma_stages.append(dma)

        worker_fpc = island.claim_fpc()

        def worker(thread):
            while True:
                work = yield self.pre_in.get()
                grant = yield self.serial_lock.request()
                try:
                    yield from run_item(thread, work)
                finally:
                    grant.release()

        def run_item(thread, work):
            if work.kind == WORK_RX:
                yield from pre._handle_rx(thread, work)
            elif work.kind == WORK_TX:
                yield from pre._handle_tx(thread, work)
            else:
                yield from pre._handle_hc(thread, work)
            ok, work = self.proto_rings[0].store.try_get()
            if not ok:
                return
            yield from proto._process_one(thread, work)
            ok, work = self.post_rings[0].store.try_get()
            if not ok:
                return
            yield from post._process(thread, work)
            ok, work = self.dma_ring.store.try_get()
            if not ok:
                return
            yield from dma._process(thread, work)

        # The whole data-path runs on this one thread, so it legitimately
        # carries protocol ownership for the single flow group.
        self._spawn(worker_fpc, worker, "run-to-completion", "proto", 0)
        nbi_fpc = island.claim_fpc()
        self._spawn(nbi_fpc, self.nbi_stage.program, "nbi", "nbi")
        ctx_fpc = island.claim_fpc()
        self._spawn(ctx_fpc, self.ctx_stage.atx_program, "ctx-atx", "ctx")
        self._spawn(ctx_fpc, self.ctx_stage.arx_program, "ctx-arx", "ctx")
        sched_fpc = island.claim_fpc()
        self._spawn(sched_fpc, self.scheduler.program, "sch", "sch")

    # -- runtime entry points ----------------------------------------------

    def _on_mac_rx(self, frame):
        self.rx_frames_seen += 1
        work = SegWork(WORK_RX, frame=frame, born_at=self.sim.now)
        self.rx_seqr.assign(work)
        if not self.pre_in.try_put(work):
            self.rx_frames_dropped_full += 1
            self.rx_gro.skip(work.pipeline_seq)

    def _route_to_protocol(self, work):
        ring = self.proto_rings[work.flow_group]
        if not ring.try_put(work):
            ring.force_put(work)

    def make_frame(self, eth, ip, tcp):
        return Frame(eth, ip=ip, tcp=tcp, born_at=self.sim.now)

    def nic_transmit_direct(self, frame):
        """Bypass transmit for XDP_TX and control-plane frames."""
        self.mac.transmit(frame)

    # -- descriptor pool -----------------------------------------------------

    def hold_descriptor(self, grant):
        self._held_descriptors.append(grant)

    def release_descriptor(self):
        if self._held_descriptors:
            self._held_descriptors.popleft().release()

    # -- host/control interfaces ---------------------------------------------

    def register_context(self, context_id, capacity=1024):
        pair = ContextQueuePair(self.sim, context_id, capacity=capacity)
        self.contexts[context_id] = pair
        if self.hb_monitor is not None:
            self.hb_monitor.watch_context(pair)
        return pair

    def adopt_context(self, pair):
        """Re-bind an existing (host-memory) queue pair after a reboot."""
        self.contexts[pair.context_id] = pair
        if self.hb_monitor is not None:
            self.hb_monitor.watch_context(pair)

    def post_hc(self, context_id, descriptor):
        """libTOE helper: append a descriptor and ring the doorbell."""
        pair = self.contexts[context_id]
        if not pair.post_hc(descriptor):
            return False
        self.pcie.ring("hc")
        return True

    def install_connection(self, record):
        self.conn_table.install(record)
        self.lookup_engine.insert(record.four_tuple, record.index)
        if sanitizer.enabled():
            group = record.pre.flow_group
            sanitizer.register(record.pre, group)
            sanitizer.register(record.proto, group)
            sanitizer.register(record.post, group)

    def remove_connection(self, index):
        record = self.conn_table.remove(index)
        self.dma_rx_chain.pop(index, None)
        self.post_chain.pop(index, None)
        if self.hb_monitor is not None:
            self.hb_monitor.forget_conn(index)
        if record is not None:
            self.lookup_engine.remove(record.four_tuple)
            self.scheduler.remove_flow(index)
            if sanitizer.enabled():
                sanitizer.unregister(record.pre)
                sanitizer.unregister(record.proto)
                sanitizer.unregister(record.post)
        for stage in self.protocol_stages:
            stage.state_cache.invalidate(index)
        for stage in self.post_stages:
            stage.take_rtt_samples(index)
        return record

    def drain_rtt(self, index):
        """Aggregate per-replica RTT samples into the connection's EWMA.

        Replicated post instances accumulate (total, count) privately —
        ``rtt_est`` is an EWMA, so a shared read-modify-write would lose
        updates. The fold happens here, at context/control granularity
        (the paper's context stage is the serialization point toward the
        host), from a single site per poll.
        """
        record = self.conn_table.get(index)
        if record is None:
            return
        total = 0
        count = 0
        for stage in self.post_stages:
            stage_total, stage_count = stage.take_rtt_samples(index)
            total += stage_total
            count += stage_count
        record.post.fold_rtt_samples(total, count)
