"""XDP/eBPF support for the FlexTOE data-path (paper §3.3).

eBPF programs can be compiled to NFP assembly and dynamically loaded
into FlexTOE; here they run on a faithful register VM:

* :mod:`repro.xdp.maps` — BPF maps (array / hash / LRU-hash) with the
  atomic update semantics modules and the control plane share.
* :mod:`repro.xdp.vm` — a 64-bit 11-register eBPF interpreter with
  packet/stack/map memory and the map helpers.
* :mod:`repro.xdp.asm` — a textual assembler producing VM programs.
* :func:`verify` — load-time checks (bounded programs, no back-edges,
  register initialization, valid helpers), re-exported from
  :mod:`repro.analysis.verifier`.
* :mod:`repro.xdp.adapter` — runs native-Python or VM programs as
  FlexTOE pipeline modules with per-instruction cycle accounting.
* :mod:`repro.xdp.jit` — proof-carrying check-eliding compiler: a
  certificate-validated program becomes one specialized Python closure
  where proven accesses skip their run-time guards.
* :mod:`repro.xdp.builtins` — the paper's example modules: connection
  splicing (Listing 1), firewall, VLAN strip, flow classifier, null.
"""

from repro.xdp.adapter import PyXdpProgram, XdpAdapter, jit_enabled_default
from repro.xdp.asm import assemble
from repro.xdp.jit import JitProgram, compile_program
from repro.xdp.maps import BpfArrayMap, BpfHashMap, BpfLruHashMap
from repro.xdp.program import XDP_DROP, XDP_PASS, XDP_REDIRECT, XDP_TX
from repro.analysis.verifier import VerifierError, verify
from repro.xdp.vm import BpfVm, VmFault

__all__ = [
    "BpfArrayMap",
    "BpfHashMap",
    "BpfLruHashMap",
    "BpfVm",
    "JitProgram",
    "PyXdpProgram",
    "VerifierError",
    "VmFault",
    "XDP_DROP",
    "XDP_PASS",
    "XDP_REDIRECT",
    "XDP_TX",
    "XdpAdapter",
    "assemble",
    "compile_program",
    "jit_enabled_default",
    "verify",
]
