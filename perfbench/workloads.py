"""The benchmark's three workloads.

Each workload builds a :class:`~repro.harness.Testbed` from the seed,
establishes every persistent connection (this is the timed set-up), and
then runs closed-loop clients: each client connection keeps exactly one
op in flight and checks every reply. All clients record into one
:class:`OpLog`, which keeps raw simulated round-trip samples.

The program is driven through its public APIs, with two exceptions
that follow :mod:`repro.bench.attack` and are marked where they occur:
the XDP chain is installed on the NIC's ingress attributes, and
handshakes are read from the control plane's establishment-token
counter.

Simulated connections are rows inside one simulator on one thread; no
OS sockets, threads or subprocesses are involved.
"""

import random

from repro.apps import EchoServer, MemcachedServer
from repro.apps.memcached import OP_GET, OP_SET, STATUS_MISS, STATUS_OK, decode_response, encode_request
from repro.baselines import add_linux_host
from repro.control.plane import ControlPlaneConfig
from repro.faults.plans import bursty_loss_plan
from repro.flextoe.module import ModuleChain
from repro.harness import Testbed
from repro.libtoe import LibToeContext, ToeError
from repro.proto import str_to_ip
from repro.xdp import XdpAdapter
from repro.xdp.builtins.firewall import BLACKLIST_FD, block_ip, firewall_asm_program
from repro.xdp.program import XDP_DROP

#: Simulated pause before a client whose connection failed reconnects.
RECONNECT_BACKOFF_NS = 100_000
#: Clients start at seeded offsets below this, so that the seed also
#: shapes how their ops interleave.
START_JITTER_NS = 10_000


class OpLog:
    """Outcome of every op the clients issue.

    An op is verified when its reply matches the expected bytes and it
    completed within ``deadline_ns`` of simulated time; anything else —
    a ``ToeError``, a refused connect, a wrong reply, a late reply — is a
    failed op. Round-trip and connect samples are kept only while
    ``recording`` (set-up and the window).
    """

    def __init__(self, sim, deadline_ns):
        self.sim = sim
        self.deadline_ns = deadline_ns
        self.verified = 0
        self.failed = 0
        self.wrong = 0
        self.payload_bytes = 0
        self.recording = False
        self.rtts = []
        self.connect_ns = []
        self._inflight = {}
        self._next_op = 0

    def begin(self):
        op = self._next_op
        self._next_op += 1
        self._inflight[op] = self.sim.now
        return op

    def verified_op(self, op, payload_bytes):
        rtt = self.sim.now - self._inflight.pop(op)
        if rtt > self.deadline_ns:
            self.failed += 1
            return
        self.verified += 1
        self.payload_bytes += payload_bytes
        if self.recording:
            self.rtts.append(rtt)

    def failed_op(self, op, wrong=False):
        self._inflight.pop(op, None)
        self.failed += 1
        if wrong:
            self.wrong += 1

    def overdue(self):
        """Ops still in flight past their deadline."""
        now = self.sim.now
        return sum(1 for start in self._inflight.values() if now - start > self.deadline_ns)


class RecvCounter:
    """A libTOE context as seen by an application, counting recv calls
    that return data and the bytes they return."""

    def __init__(self, ctx, tally):
        self._ctx = ctx
        self._tally = tally

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def recv(self, sock, max_bytes, blocking=True):
        data = yield from self._ctx.recv(sock, max_bytes, blocking)
        if data:
            self._tally[0] += 1
            self._tally[1] += len(data)
        return data


class Client:
    """One closed-loop client connection."""

    def __init__(self, bench, ctx, port, rng):
        self.bench = bench
        self.ctx = ctx
        self.port = port
        self.rng = rng
        self.sock = None
        self.start_delay_ns = 0
        #: id of the op in flight (read by the tracer).
        self.op = None

    def connect(self):
        log = self.bench.log
        start = log.sim.now
        self.sock = yield from self.ctx.connect(self.bench.server.ip, self.port)
        if log.recording:
            log.connect_ns.append(log.sim.now - start)

    def close(self):
        sock, self.sock = self.sock, None
        if sock is not None:
            yield from self.ctx.close(sock)

    def recv_exact(self, size):
        """Read exactly ``size`` bytes (fewer only if the peer closed)."""
        got = bytearray()
        while len(got) < size:
            chunk = yield from self.ctx.recv(self.sock, size - len(got))
            if not chunk:
                break
            got += chunk
        return bytes(got)

    def run(self):
        log = self.bench.log
        yield log.sim.timeout(self.start_delay_ns)
        while True:
            op = self.op = log.begin()
            try:
                ok, payload = yield from self.one_op()
            except ToeError:
                log.failed_op(op)
                yield from self.close()
                yield log.sim.timeout(RECONNECT_BACKOFF_NS)
                try:
                    yield from self.connect()
                except ToeError:
                    log.failed_op(log.begin())
                continue
            if ok:
                log.verified_op(op, payload)
            else:
                log.failed_op(op, wrong=True)


class EchoClient(Client):
    """Sends ``size`` seeded random bytes; the reply must match them."""

    def __init__(self, bench, ctx, port, rng, size):
        super().__init__(bench, ctx, port, rng)
        self.size = size

    def one_op(self):
        request = self.rng.randbytes(self.size)
        yield from self.ctx.send(self.sock, request)
        reply = yield from self.recv_exact(self.size)
        return reply == request, 2 * self.size


def kv_key(client_id, slot):
    return ("key-c%05d-%04d" % (client_id, slot)).encode().ljust(32, b"k")


def kv_value(client_id, seq):
    return ("val-c%05d-s%012d" % (client_id, seq)).encode().ljust(32, b"v")


class KvClient(Client):
    """memtier-style GET/SET over a key range no other client touches.

    Every GET must return this client's last SET value for the key (a
    miss if it never set it); every SET must be acknowledged."""

    KEYS = 8
    SET_ONE_IN = 11  # 10 GET : 1 SET

    def __init__(self, bench, ctx, port, rng, client_id):
        super().__init__(bench, ctx, port, rng)
        self.client_id = client_id
        self.seq = 0
        #: slot -> the value the server must hold (absent: never set).
        self.values = {}
        #: slot -> a SET whose reply was lost; the server may hold it.
        self.unsure = {}

    def request_reply(self, request):
        yield from self.ctx.send(self.sock, request)
        buffered = b""
        while True:
            parsed = decode_response(buffered)
            if parsed is not None:
                status, value, consumed = parsed
                return status, value, consumed == len(buffered), len(buffered)
            chunk = yield from self.ctx.recv(self.sock, 4096)
            if not chunk:
                raise ToeError("server closed the connection")
            buffered += chunk

    def one_op(self):
        slot = self.rng.randrange(self.KEYS)
        key = kv_key(self.client_id, slot)
        if self.rng.randrange(self.SET_ONE_IN) == 0:
            self.seq += 1
            value = kv_value(self.client_id, self.seq)
            request = encode_request(OP_SET, key, value)
            try:
                status, got, whole, reply_len = yield from self.request_reply(request)
            except ToeError:
                # The server may or may not have applied it.
                self.unsure[slot] = value
                raise
            ok = whole and status == STATUS_OK and got == b""
            if ok:
                self.values[slot] = value
                self.unsure.pop(slot, None)
        else:
            request = encode_request(OP_GET, key)
            status, got, whole, reply_len = yield from self.request_reply(request)
            expected = self.values.get(slot)
            if status == STATUS_MISS:
                ok = whole and expected is None and got == b""
            else:
                ok = whole and status == STATUS_OK and got in (expected, self.unsure.get(slot))
                if ok:
                    self.values[slot] = got
                    self.unsure.pop(slot, None)
        return ok, len(request) + reply_len


class Bench:
    """A built workload: testbed, servers, clients and their op log."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(seed)
        self.bed = Testbed(seed=seed)
        self.sim = self.bed.sim
        self.log = OpLog(self.sim, workload.deadline_ns)
        self.recv_tally = [0, 0]
        self.server = None
        self.flextoe_hosts = []
        self.linux_hosts = []
        self.apps = []
        self.clients = []
        self.xdp = None

    def counted(self, ctx):
        """``ctx`` with its libTOE recv calls counted."""
        return RecvCounter(ctx, self.recv_tally) if isinstance(ctx, LibToeContext) else ctx

    def client_rng(self):
        return random.Random(self.rng.getrandbits(64))

    def establish(self):
        """Connect every client (part of the timed set-up), keeping their
        connect times."""
        self.log.recording = True
        procs = [self.sim.process(c.connect(), name="connect") for c in self.clients]
        self.sim.run(until=self.sim.all_of(procs))
        self.log.recording = False

    def start(self, tracer=None):
        for client in self.clients:
            client.start_delay_ns = self.rng.randrange(START_JITTER_NS)
            generator = client.run()
            if tracer is not None:
                generator = tracer.resumes(generator, "bench", "client", op_source=client)
            self.sim.process(generator, name="client")

    def advance(self, duration_ns):
        self.sim.run(until=self.sim.now + duration_ns)

    def counters(self):
        """Cumulative modelled counters (deterministic for the seed)."""
        c = dict.fromkeys(
            (
                "lmem_hits", "cls_hits", "emem_misses", "lookup_misses", "fast_retransmits",
                "fpc_busy_cycles", "dma_ops", "dma_bytes", "handshakes", "cp_retransmits",
                "switch_drops", "wire_bytes", "injections", "xdp_runs", "xdp_drops",
                "kv_gets", "kv_hits", "retransmitted_bytes",
            ),
            0,
        )
        n_fpcs = 0
        for host in self.flextoe_hosts:
            dp = host.nic.datapath
            for stage in dp.protocol_stages:
                c["lmem_hits"] += stage.state_cache.hits_lmem
                c["cls_hits"] += stage.state_cache.hits_cls
                c["emem_misses"] += stage.state_cache.misses
            c["lookup_misses"] += sum(pre.lookup_misses for pre in dp.pre_stages)
            c["fast_retransmits"] += sum(post.fast_retransmits for post in dp.post_stages)
            fpcs = {id(f): f for group in dp.stage_fpcs.values() for f in group}
            n_fpcs += len(fpcs)
            c["fpc_busy_cycles"] += sum(f.busy_cycles for f in fpcs.values())
            c["dma_ops"] += host.nic.chip.dma.ops
            c["dma_bytes"] += host.nic.chip.dma.bytes_moved
            control = host.control_plane
            # Every establishment takes a fresh generation token.
            c["handshakes"] += control._conn_token
            c["cp_retransmits"] += control.retransmits_posted + control.syn_retransmits
        c["n_fpcs"] = n_fpcs
        for host in self.linux_hosts:
            c["retransmitted_bytes"] += sum(conn.retransmitted_bytes for conn in host.engine.conns.values())
        switch = self.bed.switch
        peak = 0
        for station in self.bed.topology.stations.values():
            egress = switch.egress_stats(station.switch_port)
            c["switch_drops"] += egress.dropped_tail + egress.dropped_red
            peak = max(peak, egress.peak_bytes)
            c["wire_bytes"] += station.port.tx_bytes
        c["queue_peak_bytes"] = peak
        c["injections"] = sum(len(ctl.log) for ctl in self.bed.fault_controllers)
        if self.xdp is not None:
            c["xdp_runs"] = self.xdp.invocations
            c["xdp_drops"] = self.xdp.results.get(XDP_DROP, 0)
        for app in self.apps:
            if isinstance(app, MemcachedServer):
                c["kv_gets"] += app.gets
                c["kv_hits"] += app.hits
        cycles = {}
        for core in self.server.machine.cores:
            for category, count in core.accounting.cycles.items():
                cycles[category] = cycles.get(category, 0) + count
        for category, count in cycles.items():
            c["host_cycles." + category] = count
        c["events"] = self.sim.processed_events
        c["recv_calls"], c["recv_bytes"] = self.recv_tally
        c["verified"] = self.log.verified
        c["failed"] = self.log.failed
        c["payload_bytes"] = self.log.payload_bytes
        return c


class Workload:
    """Static description of one workload; :meth:`build` is the set-up."""

    name = None
    why = None
    #: Simulated length of one measurement slice.
    slice_ns = None
    warmup_slices = 2
    #: Slices whose simulated outcome is reported and digested.
    window_slices = None
    #: The window goes on until this many round trips were recorded.
    window_ops = 0
    #: Traced runs cover only this many leading slices of the window
    #: (None: all of it).
    trace_slices = None
    #: An op slower than this (simulated) counts as failed.
    deadline_ns = None

    def build(self, seed):
        bench = Bench(self, seed)
        self.populate(bench)
        bench.establish()
        return bench


class RpcSmall(Workload):
    name = "rpc-small"
    why = (
        "per-packet cost: 16 FlexTOE<->FlexTOE connections of 64 B echo RPCs whose state fits "
        "the 16-entry LMEM cache; control, xdp, faults and baselines stay idle"
    )
    slice_ns = 100_000
    window_slices = 12
    deadline_ns = 5_000_000
    CONNECTIONS = 16
    SIZE = 64

    def populate(self, bench):
        bed = bench.bed
        bench.server = bed.add_flextoe_host("server")
        client_host = bed.add_flextoe_host("client")
        bench.flextoe_hosts = [bench.server, client_host]
        for i in range(self.CONNECTIONS):
            ctx = bench.counted(bench.server.new_context(i % 20))
            app = EchoServer(ctx, 7000 + i, request_size=self.SIZE)
            bench.apps.append(app)
            bench.sim.process(app.run(), name="echo")
            client = EchoClient(bench, bench.counted(client_host.new_context(i % 20)), 7000 + i, bench.client_rng(), self.SIZE)
            bench.clients.append(client)


class BulkLossy(Workload):
    name = "bulk-lossy"
    why = (
        "per-byte cost and loss recovery: a Linux-stack client echoes 64 KB messages through "
        "a FlexTOE server on 2 connections under seeded bursty switch loss"
    )
    slice_ns = 5_000_000
    warmup_slices = 4
    window_slices = 64
    #: Enough samples for the tail to be p90 with 40 samples beyond it;
    #: with only 10 beyond, p90 spreads 15-30% from seed to seed.
    window_ops = 400
    #: Tracing doubles host time; the whole window would take too long.
    trace_slices = 10
    deadline_ns = 2_000_000_000
    CONNECTIONS = 2
    #: Small enough that about 30 host seconds complete the window's
    #: round trips.
    SIZE = 64 * 1024
    #: Per-frame burst-start probability of the bursty-loss plan (bursts
    #: of 2-4 frames, ~2.5% of data frames lost).
    LOSS_PROBABILITY = 0.01

    def populate(self, bench):
        bed = bench.bed
        bench.server = bed.add_flextoe_host("server")
        client_host = add_linux_host(bed, "client")
        bench.flextoe_hosts = [bench.server]
        bench.linux_hosts = [client_host]
        bed.install_fault_plan(bursty_loss_plan(probability=self.LOSS_PROBABILITY))
        for i in range(self.CONNECTIONS):
            ctx = bench.counted(bench.server.new_context(i))
            app = EchoServer(ctx, 9000 + i, request_size=self.SIZE)
            bench.apps.append(app)
            bench.sim.process(app.run(), name="echo")
            client = EchoClient(bench, client_host.new_context(i), 9000 + i, bench.client_rng(), self.SIZE)
            bench.clients.append(client)


class KvXdp(Workload):
    """memtier-style KV load on a FlexTOE server behind an XDP firewall.

    Every connection is established at set-up and stays open: none is
    closed and reopened in the window, because closing FlexTOE
    connections at this rate fails a share of ops (see the README's
    known defects), and the benchmark's workloads must not fail ops.
    """

    name = "kv-xdp"
    why = (
        "connection state beyond the cache: 256 memtier connections to 4 memcached contexts "
        "overflow LMEM, and the XDP firewall filters server ingress"
    )
    slice_ns = 100_000
    window_slices = 8
    deadline_ns = 5_000_000
    CONNECTIONS = 256
    SERVERS = 4
    #: 32 B keys and values need little socket buffer; the default 256 KB
    #: per direction would allocate 256 MB for the 512 connection ends.
    BUFFER_BYTES = 16 * 1024

    def populate(self, bench):
        bed = bench.bed
        config = dict(rx_buffer_size=self.BUFFER_BYTES, tx_buffer_size=self.BUFFER_BYTES)
        bench.server = bed.add_flextoe_host("server", cp_kwargs={"config": ControlPlaneConfig(**config)})
        client_host = bed.add_flextoe_host("client", cp_kwargs={"config": ControlPlaneConfig(**config)})
        bench.flextoe_hosts = [bench.server, client_host]
        program, maps = firewall_asm_program()
        for blocked in ("10.9.9.1", "10.9.9.2", "192.168.0.66"):
            block_ip(maps[BLACKLIST_FD], str_to_ip(blocked))
        bench.xdp = XdpAdapter(program=program, maps=maps, name="firewall")
        chain = ModuleChain([bench.xdp])
        # As bench/attack.py installs its detector: the datapath reads the
        # chain per frame, the NIC copy survives a datapath rebuild.
        bench.server.nic._ingress_modules = chain
        bench.server.nic.datapath.ingress_modules = chain
        store = {}
        for i in range(self.SERVERS):
            app = MemcachedServer(bench.counted(bench.server.new_context(i)), 11211 + i, store=store)
            bench.apps.append(app)
            bench.sim.process(app.run(), name="memcached")
        for i in range(self.CONNECTIONS):
            ctx = bench.counted(client_host.new_context(i % 20))
            client = KvClient(bench, ctx, 11211 + i % self.SERVERS, bench.client_rng(), i)
            bench.clients.append(client)


WORKLOADS = {w.name: w for w in (RpcSmall(), BulkLossy(), KvXdp())}
