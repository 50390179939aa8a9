"""Runs XDP programs as FlexTOE pipeline modules.

Two program flavors share :class:`XdpAdapter`:

* a verified VM program (:class:`repro.xdp.vm.BpfVm`) — the frame is
  serialized to wire bytes, executed over, and re-parsed if modified;
  the FPC cycle charge is proportional to instructions executed (the
  NFP executes offloaded eBPF natively);
* a :class:`PyXdpProgram` — a native-Python module with the same result
  codes, for hot benchmark paths.

FlexTOE handles sequencing/reordering around replicated XDP stages
(§3.2/§3.3); the adapter plugs into the same hook machinery as native
modules, so that applies automatically.

VM programs are compiled by the proof-carrying JIT
(:mod:`repro.xdp.jit`) by default: the verifier's certificate lets
proven-in-bounds accesses run guard-free. Set ``REPRO_XDP_JIT=0`` (or
pass ``jit=False``) to fall back to the :class:`BpfVm` interpreter,
which is retained as the differential oracle.
"""

import os

from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_REDIRECT, ACTION_TX, DatapathModule
from repro.proto.packet import Frame
from repro.xdp.program import XDP_DROP, XDP_PASS, XDP_REDIRECT, XDP_TX
from repro.analysis.verifier import verify


def jit_enabled_default():
    """JIT on unless ``REPRO_XDP_JIT`` disables it."""
    return os.environ.get("REPRO_XDP_JIT", "1").strip().lower() not in ("0", "false", "off")

_RESULT_TO_ACTION = {
    XDP_PASS: ACTION_PASS,
    XDP_DROP: ACTION_DROP,
    XDP_TX: ACTION_TX,
    XDP_REDIRECT: ACTION_REDIRECT,
}

#: Cycles per interpreted eBPF instruction on an FPC (≈1 with the NFP's
#: native translation; the small constant covers packet-memory staging).
CYCLES_PER_INSN = 1
CYCLES_SETUP = 12


class PyXdpProgram:
    """Base for native-Python XDP programs: override :meth:`run`.

    ``run(frame, meta)`` returns an XDP result code; ``cost_cycles`` is
    the fixed per-packet FPC charge."""

    name = "py-xdp"
    cost_cycles = 20

    def run(self, frame, meta):
        raise NotImplementedError


class XdpAdapter(DatapathModule):
    """Wraps a VM or Python XDP program as a data-path module."""

    def __init__(self, program=None, maps=None, py_program=None, name=None, jit=None):
        if (program is None) == (py_program is None):
            raise ValueError("provide exactly one of program/py_program")
        self.py_program = py_program
        self.vm = None
        self.jit_enabled = False
        if program is not None:
            use_jit = jit_enabled_default() if jit is None else jit
            if use_jit:
                # compile_program verifies via the certificate pipeline:
                # export, independent re-check, then code generation.
                from repro.xdp.jit import compile_program

                self.vm = compile_program(program, maps)
                self.jit_enabled = True
            else:
                verify(program, maps)
                from repro.xdp.vm import BpfVm

                self.vm = BpfVm(program, maps)
        self.name = name or (py_program.name if py_program else "xdp-vm")
        self.invocations = 0
        self.results = {XDP_PASS: 0, XDP_DROP: 0, XDP_TX: 0, XDP_REDIRECT: 0}
        self._last_cost = CYCLES_SETUP
        if py_program is not None:
            self.cost_cycles = py_program.cost_cycles
        else:
            self.cost_cycles = CYCLES_SETUP + 24  # refined after each run

    def handle(self, frame, meta):
        self.invocations += 1
        if self.py_program is not None:
            result = self.py_program.run(frame, meta)
        else:
            result = self._run_vm(frame, meta)
        self.results[result] = self.results.get(result, 0) + 1
        # An unknown return code is a buggy program: like Linux's
        # XDP_ABORTED, fail closed and drop the packet.
        return _RESULT_TO_ACTION.get(result, ACTION_DROP)

    def _run_vm(self, frame, meta):
        wire = bytearray(frame.pack())
        original = bytes(wire)
        result, executed = self.vm.run(wire)
        self.cost_cycles = CYCLES_SETUP + CYCLES_PER_INSN * executed
        if bytes(wire) != original:
            # The program rewrote the packet: re-parse into the frame.
            reparsed = Frame.unpack(bytes(wire))
            frame.eth = reparsed.eth
            frame.ip = reparsed.ip
            frame.tcp = reparsed.tcp
            frame.arp = reparsed.arp
            frame.payload = reparsed.payload
        return result
