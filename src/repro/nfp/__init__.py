"""NFP-4000 network-processor model (paper §2.3, Figure 1).

The Netronome Agilio CX40's NPU: five general-purpose islands of 12
flow-processing cores (FPCs) each, a service/PCIe/MAC structure, and a
multi-level memory hierarchy. FPCs are 800 MHz, 8 hardware threads, no
timers/division/floating point. The model charges compute cycles on an
issue slot per FPC and releases the slot during memory waits, so thread-
level latency hiding (Table 3's 2.25x) emerges from the simulation rather
than being asserted.
"""

from repro.nfp.chip import Nfp4000, NfpConfig
from repro.nfp.fpc import Fpc, FpcThread
from repro.nfp.island import Island
from repro.nfp.memory import MEM_CLS, MEM_CTM, MEM_EMEM, MEM_EMEM_CACHE, MEM_IMEM, MEM_LMEM, MemoryLevel
from repro.nfp.cam import Cam, HashLookupEngine
from repro.nfp.queues import Ring
from repro.nfp.dma import DmaEngine
from repro.nfp.mac import MacBlock
from repro.nfp.pcie import PcieBlock

__all__ = [
    "Cam",
    "DmaEngine",
    "Fpc",
    "FpcThread",
    "HashLookupEngine",
    "Island",
    "MacBlock",
    "MEM_CLS",
    "MEM_CTM",
    "MEM_EMEM",
    "MEM_EMEM_CACHE",
    "MEM_IMEM",
    "MEM_LMEM",
    "MemoryLevel",
    "Nfp4000",
    "NfpConfig",
    "PcieBlock",
    "Ring",
]
