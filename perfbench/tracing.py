"""Per-layer host-time attribution for traced runs.

:meth:`Tracer.install` replaces each layer's public entry points
(listed in :data:`ENTRY_POINTS`) on their classes with wrappers that
open a span per call; generator entry points get one span per resume,
since a simulated process runs in many short slices.
:meth:`Tracer.uninstall` puts the original class attributes back. An
untraced run installs nothing and so executes the program's own
function objects.

A span records its layer, the function, start and end on the host clock,
its parent span and, when a benchmark client was running, that client's
op id. A layer's self time is the sum over its spans of the span's
duration minus the part covered by its child spans.
"""

import functools
import importlib
import inspect
import json
import time

#: The repository's modules, in report order.
LAYERS = (
    "sim",
    "flextoe",
    "nfp",
    "libtoe",
    "control",
    "net",
    "proto",
    "xdp",
    "host",
    "apps",
    "baselines",
    "faults",
)

#: Accounting bucket for the benchmark's own client code, so that its
#: time is not charged to ``sim`` (the scheduler that resumes it).
BENCH = "bench"

#: (layer, module, class, attributes) — the wrapped entry points.
ENTRY_POINTS = (
    ("sim", "repro.sim.core", "Simulator", ("run", "timeout")),
    ("sim", "repro.sim.core", "Event", ("succeed",)),
    ("sim", "repro.sim.resources", "Store", ("put", "get")),
    ("sim", "repro.sim.resources", "Resource", ("request", "release")),
    ("flextoe", "repro.flextoe.stages", "PreStage", ("program",)),
    ("flextoe", "repro.flextoe.stages", "ProtocolStage", ("program",)),
    ("flextoe", "repro.flextoe.stages", "PostStage", ("program",)),
    ("flextoe", "repro.flextoe.stages", "DmaStage", ("program",)),
    ("flextoe", "repro.flextoe.stages", "NbiStage", ("program",)),
    ("flextoe", "repro.flextoe.stages", "CtxStage", ("arx_program", "atx_program")),
    ("flextoe", "repro.flextoe.scheduler", "CarouselScheduler", ("program",)),
    ("flextoe", "repro.flextoe.nic", "FlexToeNic", ("post_hc", "offload_connection")),
    ("nfp", "repro.nfp.fpc", "FpcThread", ("compute", "mem_read", "mem_write")),
    ("nfp", "repro.nfp.dma", "DmaEngine", ("issue",)),
    ("libtoe", "repro.libtoe.api", "LibToeContext", ("connect", "accept", "send", "recv", "close")),
    # The frame handler and timer loops are where the control plane
    # spends its time; handle_frame alone only covers the slow-path shim.
    (
        "control",
        "repro.control.plane",
        "ControlPlane",
        ("handle_frame", "_handle_frame", "connect", "notify_close", "_timer_loop", "_cc_loop"),
    ),
    ("net", "repro.net.link", "Port", ("send", "deliver")),
    ("net", "repro.net.link", "Link", ("transmit",)),
    ("proto", "repro.proto.packet", "Frame", ("__init__", "wire_len", "pack", "unpack", "copy")),
    ("proto", "repro.proto.ethernet", "EthernetHeader", ("__init__", "copy")),
    ("proto", "repro.proto.ip", "Ipv4Header", ("__init__", "copy")),
    ("proto", "repro.proto.tcp", "TcpHeader", ("__init__", "copy")),
    ("xdp", "repro.xdp.adapter", "XdpAdapter", ("handle",)),
    ("xdp", "repro.flextoe.module", "ModuleChain", ("run",)),
    ("host", "repro.host.cpu", "CpuCore", ("run",)),
    ("apps", "repro.apps.echo", "EchoServer", ("_serve",)),
    ("apps", "repro.apps.memcached", "MemcachedServer", ("_serve",)),
    (
        "baselines",
        "repro.baselines.stack",
        "BaselineHost",
        ("tcp_send", "tcp_recv", "transmit", "_process_segment"),
    ),
    ("baselines", "repro.baselines.engine", "HostTcpEngine", ("on_segment", "tick")),
    ("faults", "repro.faults.wire", "WireFaultInjector", ("admit",)),
)

#: Spans kept in memory for the span file; later spans still count
#: toward self time and calls.
SPAN_CAP = 50_000


class Tracer:
    """Span stack plus per-layer self time and call counts."""

    def __init__(self):
        self.active = False
        self.op = None
        self.self_ns = dict.fromkeys(LAYERS + (BENCH,), 0)
        self.calls = dict.fromkeys(LAYERS + (BENCH,), 0)
        self.spans = []
        self.spans_dropped = 0
        self._stack = []
        self._next_id = 0
        self._installed = []

    # -- spans ---------------------------------------------------------------

    def enter(self, layer, name):
        self._next_id += 1
        frame = [time.perf_counter_ns(), 0, self._next_id, layer, name, self.op]
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        layer = frame[3]
        self.self_ns[layer] += duration - frame[1]
        self.calls[layer] += 1
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[2], layer, frame[4], frame[0], end, parent_id, frame[5]))
        else:
            self.spans_dropped += 1

    def resumes(self, generator, layer, name, op_source=None):
        """Drive ``generator``, timing each resume as one span.

        ``op_source`` (a benchmark client) makes its current op id the
        op of every span opened during the resume."""
        send = generator.send
        value = None
        error = None
        while True:
            active = self.active
            if active:
                if op_source is not None:
                    self.op = op_source.op
                frame = self.enter(layer, name)
            try:
                # One-element list: the yielded event must not stay
                # referenced by this frame while the process sleeps.
                if error is None:
                    box = [send(value)]
                else:
                    box = [generator.throw(error)]
                    error = None
            except StopIteration as stop:
                return stop.value
            finally:
                if active:
                    self.exit(frame)
                    if op_source is not None:
                        self.op = None
            try:
                value = yield box.pop()
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # thrown in by the simulator: forward it
                error = exc
                value = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return tracer.resumes(fn(*args, **kwargs), layer, name)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    def install(self):
        """Wrap every entry point (tracing starts inactive)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for layer, module, cls_name, attrs in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for attr in attrs:
                original = vars(cls)[attr]
                name = "{}.{}".format(cls_name, attr)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, name, original.__func__))
                elif isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, name, original.__func__))
                elif isinstance(original, property):
                    wrapped = property(self._wrap(layer, name, original.fget), original.fset, original.fdel)
                else:
                    wrapped = self._wrap(layer, name, original)
                self._installed.append((cls, attr, original))
                setattr(cls, attr, wrapped)

    def uninstall(self):
        """Restore every original class attribute."""
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path, header):
        """Write the kept spans as JSON lines after a header object."""
        with open(path, "w") as out:
            head = dict(header, spans=len(self.spans), spans_dropped=self.spans_dropped)
            out.write(json.dumps(head) + "\n")
            for span_id, layer, name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "layer": layer,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
