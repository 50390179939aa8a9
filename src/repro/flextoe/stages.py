"""The five data-path pipeline stages as FPC programs (paper §3.1).

Each stage class is constructed with the shared :class:`FlexToeDatapath`
(rings, tables, engines) and exposes ``program(thread)`` — a generator
run on one FPC hardware thread. Replication = spawning the program on
more FPCs/threads. Stage logic that is pure TCP lives in
:mod:`repro.flextoe.proto_logic`; this module charges cycles, touches
memories, and moves work between rings.
"""

from repro.flextoe import proto_logic
from repro.flextoe.config import StageCosts
from repro.flextoe.descriptors import (
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HeaderSummary,
    Notification,
    ProtoSnapshot,
    SegWork,
    WORK_HC,
    WORK_RX,
    WORK_TX,
)
from repro.flextoe.module import ACTION_DROP, ACTION_REDIRECT, ACTION_TX
from repro.flextoe.state import atomic_add
from repro.nfp.cam import Cam
from repro.nfp.memory import LAT_LMEM
from repro.proto.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.proto.ip import ECN_ECT0, IPPROTO_TCP, Ipv4Header
from repro.proto.tcp import FLAG_ACK, FLAG_ECE, FLAG_FIN, FLAG_PSH, MSS, TcpHeader, TcpOptions


def now_us(sim):
    """Timestamp-option clock: microseconds of simulated time."""
    return (sim.now // 1000) & 0xFFFFFFFF


class PreStage:
    """Pre-processing: Val / Id / Sum / Steer, plus TX Alloc/Head and HC
    steering. Replicated freely; RX order restored by the GRO."""

    #: Static pipeline-model anchors, parsed by repro.analysis.hblint.
    STAGE_KIND = "pre"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id
        self.id_cache = Cam(capacity=128)  # direct-mapped lookup cache (§4.1)
        self.validated = 0
        self.to_control = 0
        self.lookup_misses = 0
        self.csum_drops = 0

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.pre_in.get()
            if work.kind == WORK_RX:
                yield from self._handle_rx(thread, work)
            elif work.kind == WORK_TX:
                yield from self._handle_tx(thread, work)
            else:
                yield from self._handle_hc(thread, work)

    # -- RX ----------------------------------------------------------------

    def _handle_rx(self, thread, work):
        dp = self.dp
        frame = work.frame
        trace = dp.tracepoints
        yield from thread.compute(StageCosts.pre_validate + trace.hit(dp.sim.now, "pre", "rx.segment"))
        if dp.capture is not None:
            yield from thread.compute(dp.capture.cost_cycles(frame))
            dp.capture.capture(dp.sim.now, "rx", frame)
        if dp.ingress_modules is not None and len(dp.ingress_modules):
            yield from thread.compute(dp.ingress_modules.total_cost)
            action = dp.ingress_modules.run(frame, work)
            if action == ACTION_DROP:
                dp.rx_gro.skip(work.pipeline_seq)
                return
            if action == ACTION_TX:
                dp.rx_gro.skip(work.pipeline_seq)
                dp.stats["xdp_tx"] = dp.stats.get("xdp_tx", 0) + 1
                dp.nic_transmit_direct(frame)
                return
            if action == ACTION_REDIRECT:
                dp.rx_gro.skip(work.pipeline_seq)
                yield dp.control_ring.put(frame)
                return
        # Val: the checksum verified by the pre-processor rejects frames
        # whose payload was corrupted in flight (repro.faults marks them
        # ``csum_bad`` instead of recomputing a wrong 16-bit sum).
        if frame.get_meta("csum_bad"):
            self.csum_drops += 1
            dp.rx_gro.skip(work.pipeline_seq)
            return
        # Val: only established-connection data-path segments continue.
        if frame.tcp is None or frame.ip is None or not frame.tcp.is_data_path:
            self.to_control += 1
            dp.rx_gro.skip(work.pipeline_seq)
            yield dp.control_ring.put(frame)
            return
        # Id: connection lookup (local CAM, then the IMEM engine).
        four = (frame.ip.dst, frame.ip.src, frame.tcp.dport, frame.tcp.sport)
        hit, conn_index = self.id_cache.lookup(four)
        if not hit:
            yield from thread.mem_read(dp.imem_latency_level)
            found, conn_index, _probes = dp.lookup_engine.lookup(four)
            yield from thread.compute(StageCosts.pre_identify)
            if not found:
                self.to_control += 1
                dp.rx_gro.skip(work.pipeline_seq)
                yield dp.control_ring.put(frame)
                return
            self.id_cache.insert(four, conn_index)
            self.lookup_misses += 1
        record = dp.conn_table.get(conn_index)
        if record is None or not record.active:
            self.to_control += 1
            dp.rx_gro.skip(work.pipeline_seq)
            yield dp.control_ring.put(frame)
            return
        # Sum: build the header summary; later stages never see headers.
        yield from thread.compute(StageCosts.pre_summary)
        tcp = frame.tcp
        work.summary = HeaderSummary(
            seq=tcp.seq,
            ack=tcp.ack,
            flags=tcp.flags,
            window=tcp.window,
            payload_len=len(frame.payload),
            ts_val=tcp.options.ts_val,
            ts_ecr=tcp.options.ts_ecr,
            ce_marked=frame.ip.ce_marked,
        )
        work.conn_index = conn_index
        work.flow_group = record.pre.flow_group
        self.validated += 1
        # Steer: in pipeline-sequence order through the GRO.
        yield from thread.compute(StageCosts.pre_steer)
        dp.rx_gro.offer(work)

    # -- TX ----------------------------------------------------------------

    def _handle_tx(self, thread, work):
        dp = self.dp
        record = dp.conn_table.get(work.conn_index)
        if record is None or not record.active:
            return
        # Alloc: a segment buffer from the island CTM pool (bounded).
        grant = yield dp.ctm_pool.request()
        yield from thread.compute(StageCosts.tx_alloc)
        # Head: Ethernet and IP headers from pre-processor state.
        yield from thread.compute(StageCosts.tx_header)
        pre = record.pre
        eth = EthernetHeader(dst=pre.peer_mac, src=record.local_mac, ethertype=ETHERTYPE_IPV4)
        ip = Ipv4Header(src=record.local_ip, dst=pre.peer_ip, proto=IPPROTO_TCP, ecn=ECN_ECT0)
        tcp = TcpHeader(sport=pre.local_port, dport=pre.remote_port)
        frame = dp.make_frame(eth, ip, tcp)
        work.frame = frame
        work.frame.set_meta("ctm_grant", grant)
        work.flow_group = pre.flow_group
        yield from thread.compute(StageCosts.pre_steer)
        yield dp.proto_rings[work.flow_group].put(work)

    # -- HC ----------------------------------------------------------------

    def _handle_hc(self, thread, work):
        dp = self.dp
        record = dp.conn_table.get(work.hc.conn_index)
        yield from thread.compute(StageCosts.pre_steer + dp.tracepoints.hit(dp.sim.now, "pre", "hc.descriptor"))
        if record is None or not record.active:
            dp.release_descriptor()
            return
        work.conn_index = work.hc.conn_index
        work.flow_group = record.pre.flow_group
        yield dp.proto_rings[work.flow_group].put(work)


class ProtocolStage:
    """The atomic per-connection stage: one FPC per flow-group.

    Multiple hardware threads overlap *different* connections' state
    fetches; per-connection processing order is preserved with a busy
    map, keeping the stage atomic and in-order per connection while
    still hiding memory latency (the paper's design exactly)."""

    STAGE_KIND = "proto"
    REPLICATED = False  # one FPC per flow group
    SERIALIZES_PER_CONN = True  # the _busy map: per-conn program order

    def __init__(self, dp, flow_group, state_cache):
        self.dp = dp
        self.flow_group = flow_group
        self.state_cache = state_cache
        self._busy = {}
        self.processed = {WORK_RX: 0, WORK_TX: 0, WORK_HC: 0}
        self.stale_tx_triggers = 0

    def program(self, thread):
        dp = self.dp
        ring = dp.proto_rings[self.flow_group]
        while True:
            work = yield ring.get()
            conn = work.conn_index
            if conn in self._busy:
                self._busy[conn].append(work)
                continue
            self._busy[conn] = []
            yield from self._process_until_idle(thread, conn, work)

    def _process_until_idle(self, thread, conn, work):
        while True:
            yield from self._process_one(thread, work)
            pending = self._busy[conn]
            if pending:
                work = pending.pop(0)
                continue
            del self._busy[conn]
            return

    def _process_one(self, thread, work):
        dp = self.dp
        trace = dp.tracepoints
        record = dp.conn_table.get(work.conn_index)
        if record is None or not record.active:
            self._abandon(work)
            return
        # Fetch connection state (LMEM/CLS/EMEM hierarchy, §4.1): the
        # wait latency hides behind other hardware threads, but the
        # record-movement instructions occupy this FPC's issue slot.
        latency, issue = self.state_cache.access(work.conn_index)
        if latency > LAT_LMEM:
            yield from thread.mem_read(_LatencyLevel(latency), issue_cycles=2 + issue)
            extra = trace.hit(dp.sim.now, "proto", "proto.state_miss")
            if extra:
                yield from thread.compute(extra)
        state = record.proto
        snapshot = ProtoSnapshot(work.kind)
        if work.kind == WORK_RX:
            yield from self._process_rx(thread, work, record, state, snapshot)
        elif work.kind == WORK_TX:
            done = yield from self._process_tx(thread, work, record, state, snapshot)
            if not done:
                return
        else:
            yield from self._process_hc(thread, work, record, state, snapshot)
        extra = trace.hit(dp.sim.now, "proto", "proto.critical_section")
        if extra:
            yield from thread.compute(extra)
        work.snapshot = snapshot
        self.processed[work.kind] += 1
        yield dp.post_rings[self.flow_group].put(work)

    def _abandon(self, work):
        """Connection disappeared mid-pipeline: free held resources."""
        if work.frame is not None:
            grant = work.frame.get_meta("ctm_grant")
            if grant is not None:
                grant.release()
        if work.kind == WORK_HC:
            self.dp.release_descriptor()

    def _process_rx(self, thread, work, record, state, snapshot):
        dp = self.dp
        trace = dp.tracepoints
        summary = work.summary
        cycles = StageCosts.proto_update
        result = proto_logic.process_rx(state, summary, work.frame.payload, now_us(dp.sim))
        if result.was_ooo:
            cycles += StageCosts.proto_ooo_extra
            cycles += trace.hit(dp.sim.now, "proto", "rx.out_of_order")
        if result.dropped_ooo:
            cycles += trace.hit(dp.sim.now, "proto", "rx.ooo_drop")
        if result.fast_retransmit:
            cycles += StageCosts.proto_fast_retransmit
            cycles += trace.hit(dp.sim.now, "proto", "retransmit.fast")
        yield from thread.compute(cycles)
        send_ack = result.send_ack
        if (
            send_ack
            and dp.config.delayed_ack_segments > 1
            and not result.ack_is_dup
            and not result.was_ooo
            and not result.fin_notified
        ):
            # Optional delayed-ACK variant (ablation only): FPCs lack
            # timers, so coalescing is purely count-based and the
            # default remains ACK-every-segment (paper §5.2).
            state.delack_cnt += 1
            if state.delack_cnt < dp.config.delayed_ack_segments:
                send_ack = False
            else:
                state.delack_cnt = 0
        snapshot.send_ack = send_ack
        snapshot.dup_ack = result.ack_is_dup
        snapshot.ack_seq = state.seq
        snapshot.ack_ack = state.ack
        snapshot.window = proto_logic.advertised_window(state)
        snapshot.echo_ts = result.echo_ts
        snapshot.ece = summary.ce_marked
        snapshot.acked_bytes = result.acked_bytes
        snapshot.notify_rx_pos = result.notify_rx_pos
        snapshot.notify_rx_len = result.notify_rx_len
        snapshot.fin_notified = result.fin_notified
        snapshot.fast_retransmit = result.fast_retransmit
        snapshot.payload_dest_pos = result.payload_dest_pos
        snapshot.payload = result.payload
        snapshot.rtt_sample_ecr = result.rtt_sample_ecr
        # The incoming segment's ECE flag feeds the sender's DCTCP stats.
        if summary.flags & FLAG_ECE:
            snapshot.ece = True
        if result.acked_bytes > 0 or result.fast_retransmit or summary.window is not None:
            snapshot.fs_sendable = state.flight_limit()
        if snapshot.send_ack:
            # The ACK will leave the NIC: take its NBI ordering ticket
            # here, in protocol-processing order (§3.2, example 3).
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        # The inbound frame is consumed here; drop the reference so the
        # payload is not retained past the one-shot access.
        work.frame = None

    def _process_tx(self, thread, work, record, state, snapshot):
        dp = self.dp
        trace = dp.tracepoints
        result = proto_logic.process_tx(state, MSS)
        yield from thread.compute(StageCosts.tx_seq)
        if result is None:
            self.stale_tx_triggers += 1
            extra = trace.hit(dp.sim.now, "proto", "tx.stale_trigger")
            if extra:
                yield from thread.compute(extra)
            self._abandon(work)
            # Refresh the scheduler so it stops triggering a dry flow.
            dp.scheduler.fs_update(work.conn_index, state.flight_limit())
            return False
        tcp = work.frame.tcp
        tcp.seq = result.seq
        tcp.ack = result.ack
        tcp.window = result.window
        tcp.flags = FLAG_ACK | (FLAG_PSH if result.length else 0) | (FLAG_FIN if result.fin else 0)
        snapshot.tx = result
        snapshot.fs_sendable = state.flight_limit()
        snapshot.window = result.window
        # Timestamp echo for the outgoing segment is sampled *here*, in
        # the atomic protocol stage — the DMA stage stamps headers but
        # must not read protocol state (Table 5 partitioning; a read at
        # DMA time would race the next RX's next_ts update).
        snapshot.echo_ts = state.next_ts
        trace.hit(dp.sim.now, "proto", "tx.segment")
        snapshot.nbi_seq = dp.nbi_seqr.assign(work)
        return True

    def _process_hc(self, thread, work, record, state, snapshot):
        dp = self.dp
        result = proto_logic.process_hc(state, work.hc)
        yield from thread.compute(StageCosts.hc_window_update)
        snapshot.fs_sendable = result.fs_sendable
        snapshot.free_descriptor = True
        snapshot.send_window_update = result.send_window_update
        if result.send_window_update:
            snapshot.send_ack = True
            snapshot.ack_seq = state.seq
            snapshot.ack_ack = state.ack
            snapshot.window = proto_logic.advertised_window(state)
            snapshot.echo_ts = state.next_ts
            snapshot.nbi_seq = dp.nbi_seqr.assign(work)


class _LatencyLevel:
    """Adapter presenting a raw latency as a memory level for FpcThread."""

    __slots__ = ("latency_cycles", "reads", "writes")

    def __init__(self, latency_cycles):
        self.latency_cycles = latency_cycles
        self.reads = 0
        self.writes = 0


class PostStage:
    """Post-processing: Ack / Stamp / Stats / Pos, FS updates, and
    notification allocation. Replicated freely (read-only app state)."""

    STAGE_KIND = "post"
    REPLICATED = True

    def __init__(self, dp, flow_group, replica_id=0):
        self.dp = dp
        self.flow_group = flow_group
        self.replica_id = replica_id
        self.acks_built = 0
        # Cumulative (never reset), unlike post.cnt_fretx which the
        # congestion-control stats drain consumes and clears.
        self.fast_retransmits = 0
        # conn_index -> (total_us, count): this replica's private RTT
        # sample accumulator. rtt_est is an EWMA — not commutative — so
        # replicas must not read-modify-write it; the datapath drains
        # these into PostprocState.fold_rtt_samples at poll time.
        self.rtt_samples = {}

    def take_rtt_samples(self, conn_index):
        """Drain this replica's (total_us, count) RTT accumulator."""
        return self.rtt_samples.pop(conn_index, (0, 0))

    def program(self, thread):
        dp = self.dp
        ring = dp.post_rings[self.flow_group]
        while True:
            work = yield ring.get()
            # Per-connection order fence: replicated post threads may
            # finish out of order (variable compute, stalls), but one
            # connection's works must enter dma_ring in protocol order —
            # notification order is delivery order for libTOE (§3.1.3).
            # Register synchronously at pop time; pop order is protocol
            # order because the proto stage serializes per connection.
            prev_chain = dp.post_chain.get(work.conn_index)
            done = dp.sim.event()
            dp.post_chain[work.conn_index] = done
            emit = yield from self._process(thread, work)
            if prev_chain is not None and not prev_chain.triggered:
                yield prev_chain
            if emit:
                yield dp.dma_ring.put(work)
            done.succeed()

    def _process(self, thread, work):
        dp = self.dp
        trace = dp.tracepoints
        record = dp.conn_table.get(work.conn_index)
        snapshot = work.snapshot
        if record is None:
            # The connection was torn down while this work was between
            # the protocol and post stages (rapid connect/close churn
            # makes this race real). Free everything the work still
            # holds — most importantly its NBI ordering ticket, without
            # which the reorder buffer stalls all later egress frames.
            if snapshot.free_descriptor:
                dp.release_descriptor()
            if snapshot.nbi_seq is not None:
                dp.nbi_gro.skip(snapshot.nbi_seq)
            if work.frame is not None:
                grant = work.frame.get_meta("ctm_grant")
                if grant is not None:
                    grant.release()
            return False
        post = record.post
        cycles = StageCosts.post_stats
        # Stats: congestion-control counters, read by the control plane.
        # Counters are commutative and go through the atomic-add engine
        # (declared in state.atomic()); replicated post instances may
        # update them concurrently without losing increments.
        if snapshot.acked_bytes > 0:
            cycles += atomic_add(post, "cnt_ackb", snapshot.acked_bytes)
            if snapshot.ece:
                cycles += atomic_add(post, "cnt_ecnb", snapshot.acked_bytes)
        if snapshot.fast_retransmit:
            cycles += atomic_add(post, "cnt_fretx", 1, maximum=255)
            self.fast_retransmits += 1
        if snapshot.rtt_sample_ecr is not None and post.use_timestamps:
            sample = (now_us(dp.sim) - snapshot.rtt_sample_ecr) & 0xFFFFFFFF
            if sample < 1_000_000:  # discard absurd samples (wrap)
                # EWMA is not commutative: accumulate privately per
                # replica; drained at context-stage granularity.
                total, count = self.rtt_samples.get(work.conn_index, (0, 0))
                self.rtt_samples[work.conn_index] = (total + sample, count + 1)
        # FS: flow-scheduler refresh (NIC-internal memory write).
        if snapshot.fs_sendable is not None:
            dp.scheduler.fs_update(work.conn_index, snapshot.fs_sendable)
        notifications = []
        if snapshot.acked_bytes > 0:
            notifications.append(
                Notification(
                    NOTIFY_TX_ACKED,
                    post.opaque,
                    work.conn_index,
                    context_id=post.context_id,
                    length=snapshot.acked_bytes,
                    created_at=dp.sim.now,
                )
            )
            trace.hit(dp.sim.now, "post", "notify.tx_acked")
        if snapshot.notify_rx_len:
            notifications.append(
                Notification(
                    NOTIFY_RX,
                    post.opaque,
                    work.conn_index,
                    context_id=post.context_id,
                    offset=snapshot.notify_rx_pos % post.rx_size,
                    length=snapshot.notify_rx_len,
                    created_at=dp.sim.now,
                )
            )
            trace.hit(dp.sim.now, "post", "notify.rx")
        if snapshot.fin_notified:
            notifications.append(
                Notification(
                    NOTIFY_FIN, post.opaque, work.conn_index, context_id=post.context_id, created_at=dp.sim.now
                )
            )
            trace.hit(dp.sim.now, "post", "notify.fin")
        work.notify = notifications
        # Ack: build the acknowledgment segment (RX and window updates).
        if snapshot.send_ack:
            cycles += StageCosts.post_ack_prepare
            options = None
            if post.use_timestamps:
                cycles += StageCosts.post_stamp
                options = TcpOptions(ts_val=now_us(dp.sim), ts_ecr=snapshot.echo_ts or 0)
            pre = record.pre
            flags = FLAG_ACK | (FLAG_ECE if (snapshot.ece and post.use_ecn) else 0)
            eth = EthernetHeader(dst=pre.peer_mac, src=record.local_mac, ethertype=ETHERTYPE_IPV4)
            ip = Ipv4Header(src=record.local_ip, dst=pre.peer_ip, proto=IPPROTO_TCP, ecn=ECN_ECT0)
            tcp = TcpHeader(
                sport=pre.local_port,
                dport=pre.remote_port,
                seq=snapshot.ack_seq,
                ack=snapshot.ack_ack,
                flags=flags,
                window=snapshot.window,
                options=options,
            )
            work.ack_frame = dp.make_frame(eth, ip, tcp)
            self.acks_built += 1
            trace.hit(dp.sim.now, "post", "ack.dup_sent" if snapshot.dup_ack else "ack.sent")
        # Pos: physical placement for the DMA stage.
        if work.kind == WORK_RX and snapshot.payload_dest_pos is not None:
            cycles += StageCosts.post_position
            work.rx_offset = snapshot.payload_dest_pos % post.rx_size
            work.rx_trimmed_payload = snapshot.payload
        if work.kind == WORK_TX and snapshot.tx is not None:
            cycles += StageCosts.post_position
            work.tx_offset = snapshot.tx.stream_pos % post.tx_size
            work.tx_len = snapshot.tx.length
        yield from thread.compute(cycles)
        if snapshot.free_descriptor:
            dp.release_descriptor()
        return bool(
            work.kind == WORK_TX or work.rx_trimmed_payload or work.ack_frame is not None or notifications
        )


class DmaStage:
    """Payload movement over PCIe, then NBI/context-queue handoff.

    Ordering rule (§3.1.3): payload DMA completes before either the peer
    ACK leaves the NIC or libTOE sees the notification."""

    STAGE_KIND = "dma"
    REPLICATED = True

    def __init__(self, dp, replica_id=0):
        self.dp = dp
        self.replica_id = replica_id
        self.payload_ops = 0

    def program(self, thread):
        dp = self.dp
        while True:
            work = yield dp.dma_ring.get()
            yield from self._process(thread, work)

    def _split_wrap(self, offset, length, size):
        """Circular-buffer split: one or two (offset, length) chunks."""
        if length <= 0:
            return []
        first = min(length, size - offset)
        chunks = [(offset, first)]
        if first < length:
            chunks.append((0, length - first))
        return chunks

    def _process(self, thread, work):
        dp = self.dp
        record = dp.conn_table.get(work.conn_index)
        if record is None:
            # Torn down mid-pipeline: drop the segment, but release the
            # NBI ordering ticket taken at the protocol stage or every
            # later egress frame stalls in the reorder buffer.
            if work.snapshot is not None and work.snapshot.nbi_seq is not None:
                dp.nbi_gro.skip(work.snapshot.nbi_seq)
            self._release_ctm(work)
            return
        post = record.post
        if work.kind == WORK_RX:
            payload = work.rx_trimmed_payload
            # Per-connection completion chain: a segment's notification
            # (and ACK) may not overtake an earlier segment's still-
            # pending payload DMA — otherwise libTOE would see NOTIFY_RX
            # out of order and stitch the stream wrong (§3.1.3). DMA
            # retries (repro.faults DmaFlake) make this reordering real.
            prev_chain = None
            done = None
            if payload or work.notify or work.ack_frame is not None:
                prev_chain = dp.dma_rx_chain.get(work.conn_index)
                done = dp.sim.event()
                dp.dma_rx_chain[work.conn_index] = done
            if payload:
                yield from thread.compute(StageCosts.dma_issue)
                dp.tracepoints.hit(dp.sim.now, "dma", "dma.payload_issue")
                events = []
                written = 0
                for offset, length in self._split_wrap(work.rx_offset, len(payload), post.rx_size):
                    if post.rx_region is not None:
                        post.rx_region.write(offset, payload[written : written + length])
                    written += length
                    events.append(dp.dma.issue(self.replica_id, length))
                for event in events:
                    yield event
                self.payload_ops += 1
            if prev_chain is not None and not prev_chain.triggered:
                yield prev_chain
            # Payload is in host memory. Write-ahead rule: when the
            # segment carries a notification, its ACK must not reach the
            # wire before the notification is host-visible — otherwise a
            # data-path crash in between leaves the peer believing bytes
            # were delivered that the host-side recovery shadow never saw
            # (and that the peer will therefore never retransmit). The
            # ACK rides the last notification; ARX releases it after
            # nic_deliver. Its NBI ordering ticket was taken at the
            # protocol stage, so wire order is unchanged.
            ack_frame = work.ack_frame
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
            notifications = work.notify or ()
            if notifications and ack_frame is not None:
                notifications[-1].piggyback_ack = ack_frame
                ack_frame = None
            for notification in notifications:
                yield dp.ctx_ring.put(notification)
            if ack_frame is not None:
                dp.nbi_gro.offer(ack_frame)
            if done is not None:
                done.succeed()
        elif work.kind == WORK_TX:
            yield from thread.compute(StageCosts.dma_issue)
            parts = []
            events = []
            for offset, length in self._split_wrap(work.tx_offset, work.tx_len, post.tx_size):
                if post.tx_region is not None:
                    parts.append(post.tx_region.read(offset, length))
                else:
                    parts.append(b"\x00" * length)
                events.append(dp.dma.issue(self.replica_id, length))
            for event in events:
                yield event
            frame = work.frame
            frame.payload = b"".join(parts)
            frame.ip.total_len = frame.ip.wire_len + frame.tcp.wire_len + len(frame.payload)
            if post.use_timestamps:
                frame.tcp.options = TcpOptions(
                    ts_val=now_us(dp.sim), ts_ecr=work.snapshot.echo_ts
                )
            frame.pipeline_seq = work.pipeline_seq
            self.payload_ops += 1
            dp.nbi_gro.offer(frame)
        else:
            # HC work carries no payload and — because the protocol
            # stage's HC path never produces acked_bytes/notify_rx/fin —
            # no notifications either; the post stage only forwards it
            # here when a window-update ACK must leave the NIC. Its NBI
            # ordering ticket was taken at the protocol stage.
            ack_frame = work.ack_frame
            if ack_frame is not None:
                ack_frame.pipeline_seq = work.pipeline_seq
                dp.nbi_gro.offer(ack_frame)

    def _release_ctm(self, work):
        if work.frame is not None:
            grant = work.frame.get_meta("ctm_grant")
            if grant is not None:
                grant.release()


class NbiStage:
    """Drains the (reordered) NBI ring onto the wire; runs egress hooks."""

    STAGE_KIND = "nbi"
    REPLICATED = False

    def __init__(self, dp):
        self.dp = dp
        self.transmitted = 0

    def program(self, thread):
        dp = self.dp
        while True:
            frame = yield dp.nbi_ring.get()
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            if dp.egress_modules is not None and len(dp.egress_modules):
                yield from thread.compute(dp.egress_modules.total_cost)
                action = dp.egress_modules.run(frame, None)
                if action == ACTION_DROP:
                    self._free(frame)
                    if serial is not None:
                        serial.release()
                    continue
            if dp.capture is not None:
                yield from thread.compute(dp.capture.cost_cycles(frame))
                dp.capture.capture(dp.sim.now, "tx", frame)
            self.transmitted += 1
            dp.mac.transmit(frame)
            self._free(frame)
            if serial is not None:
                serial.release()

    def _free(self, frame):
        grant = frame.get_meta("ctm_grant")
        if grant is not None:
            grant.release()


class CtxStage:
    """Context-queue FPCs: ARX (notifications to host) and ATX (doorbells
    to HC work)."""

    STAGE_KIND = "ctx"
    REPLICATED = True  # several ARX hardware threads drain ctx_ring

    def __init__(self, dp):
        self.dp = dp
        self.notifications_sent = 0
        self.descriptors_fetched = 0
        # context_id -> completion event of the latest ARX delivery:
        # several ARX hardware threads drain ctx_ring concurrently, so
        # without the chain a delayed descriptor DMA (repro.faults
        # DmaFlake) would let a later notification overtake an earlier
        # one within the same context queue.
        self._arx_chain = {}

    def arx_program(self, thread):
        """NIC -> host notification path."""
        dp = self.dp
        while True:
            notification = yield dp.ctx_ring.get()
            prev_chain = self._arx_chain.get(notification.context_id)
            done = dp.sim.event()
            self._arx_chain[notification.context_id] = done
            serial = None
            if dp.serial_lock is not None:
                serial = yield dp.serial_lock.request()
            yield from thread.compute(StageCosts.ctx_notify)
            pair = dp.contexts.get(notification.context_id)
            yield dp.dma.issue(1, 32)
            if prev_chain is not None and not prev_chain.triggered:
                yield prev_chain
            piggyback = notification.piggyback_ack
            notification.piggyback_ack = None
            if pair is not None:
                pair.nic_deliver(notification)
                self.notifications_sent += 1
            if piggyback is not None:
                # Notification is host-visible: the ACK may leave now
                # (write-ahead rule; see the DMA stage).
                dp.nbi_gro.offer(piggyback)
            done.succeed()
            if serial is not None:
                serial.release()

    def atx_program(self, thread):
        """Host -> NIC doorbell/descriptor path."""
        dp = self.dp
        while True:
            yield dp.pcie.wait_doorbell("hc")
            yield from thread.compute(StageCosts.ctx_doorbell_poll)
            dp.tracepoints.hit(dp.sim.now, "ctx", "hc.doorbell")
            # Scan all contexts for outbound descriptors. Multiple
            # updates ride one doorbell, so fetch DMAs are batched
            # (§3.1.1) — one PCIe transaction per up to 16 descriptors.
            progress = True
            while progress:
                progress = False
                for pair in list(dp.contexts.values()):
                    if not pair.has_outbound:
                        continue
                    progress = True
                    # Descriptor buffers come from a bounded NIC pool;
                    # allocation failure pauses fetching (flow control).
                    grants = []
                    while len(grants) < 16 and pair.has_outbound:
                        grant = yield dp.descriptor_pool.request()
                        grants.append(grant)
                        if len(grants) >= len(pair.outbound):
                            break
                    batch = pair.nic_fetch_batch(max_batch=len(grants))
                    for grant in grants[len(batch):]:
                        grant.release()
                    serial = None
                    if dp.serial_lock is not None:
                        serial = yield dp.serial_lock.request()
                    yield dp.dma.issue(1, 32 * len(batch))
                    self.descriptors_fetched += len(batch)
                    for grant in grants[: len(batch)]:
                        dp.hold_descriptor(grant)
                    for descriptor in batch:
                        work = SegWork(WORK_HC, hc=descriptor, born_at=dp.sim.now)
                        yield dp.pre_in.put(work)
                    if serial is not None:
                        serial.release()
