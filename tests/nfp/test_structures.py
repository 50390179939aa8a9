"""CAM, hash lookup engine, rings, work queues, ticket lock, memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nfp import Cam, HashLookupEngine, Ring
from repro.nfp.memory import MEM_CLS, MEM_EMEM, MemoryLevel
from repro.nfp.queues import TicketLock
from repro.sim import Simulator


def test_cam_lru_eviction_order():
    cam = Cam(capacity=2)
    cam.insert("a", 1)
    cam.insert("b", 2)
    cam.lookup("a")  # refresh a
    evicted = cam.insert("c", 3)
    assert evicted == ("b", 2)
    assert "a" in cam and "c" in cam


def test_cam_hit_miss_stats():
    cam = Cam(capacity=4)
    cam.insert("x", 1)
    hit, value = cam.lookup("x")
    assert hit and value == 1
    hit, value = cam.lookup("y")
    assert not hit and value is None
    assert cam.hits == 1 and cam.misses == 1
    assert cam.hit_rate == 0.5


def test_cam_update_existing_key_no_eviction():
    cam = Cam(capacity=2)
    cam.insert("a", 1)
    cam.insert("b", 2)
    assert cam.insert("a", 10) is None
    assert cam.lookup("a") == (True, 10)


def test_cam_invalidate():
    cam = Cam(capacity=2)
    cam.insert("a", 1)
    assert cam.invalidate("a") == 1
    assert cam.invalidate("a") is None
    assert len(cam) == 0


def test_cam_invalid_capacity():
    with pytest.raises(ValueError):
        Cam(capacity=0)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
def test_cam_never_exceeds_capacity(keys):
    cam = Cam(capacity=16)
    for key in keys:
        cam.insert(key, key * 2)
        assert len(cam) <= 16
    # Most-recently inserted key is always present.
    assert keys[-1] in cam


def test_lookup_engine_roundtrip():
    engine = HashLookupEngine()
    tuples = [(0x0A000001, 0x0A000002, 1000 + i, 2000 + i) for i in range(100)]
    for i, four in enumerate(tuples):
        engine.insert(four, i)
    for i, four in enumerate(tuples):
        found, index, probes = engine.lookup(four)
        assert found and index == i
        assert probes >= 1
    assert engine.entries == 100


def test_lookup_engine_miss_and_remove():
    engine = HashLookupEngine()
    four = (1, 2, 3, 4)
    found, _, _ = engine.lookup(four)
    assert not found
    engine.insert(four, 7)
    assert engine.remove(four)
    assert not engine.remove(four)
    found, _, _ = engine.lookup(four)
    assert not found


def test_lookup_engine_update_in_place():
    engine = HashLookupEngine()
    four = (1, 2, 3, 4)
    engine.insert(four, 1)
    engine.insert(four, 2)
    assert engine.entries == 1
    assert engine.lookup(four)[1] == 2


def test_cls_ring_fifo():
    sim = Simulator()
    ring = Ring(sim, capacity=4)
    got = []

    def producer(sim):
        for i in range(8):
            yield ring.put(i)

    def consumer(sim):
        for _ in range(8):
            item = yield ring.get()
            got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == list(range(8))
    assert ring.max_occupancy <= 4


def test_work_queue_multiple_consumers_drain_everything():
    sim = Simulator()
    queue = Ring(sim)
    drained = []

    def consumer(sim, name):
        while True:
            item = yield queue.get()
            if item is None:
                return
            drained.append((name, item))

    def producer(sim):
        for i in range(20):
            yield queue.put(i)
        yield queue.put(None)
        yield queue.put(None)

    sim.process(consumer(sim, "c0"))
    sim.process(consumer(sim, "c1"))
    sim.process(producer(sim))
    sim.run()
    items = sorted(item for _, item in drained)
    assert items == list(range(20))
    # Work stealing: both consumers got something.
    names = {name for name, _ in drained}
    assert names == {"c0", "c1"}


def test_ticket_lock_fairness():
    sim = Simulator()
    lock = TicketLock(sim)
    order = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        yield lock.acquire()
        order.append(name)
        yield sim.timeout(100)
        lock.release()

    sim.process(worker(sim, "a", 0))
    sim.process(worker(sim, "b", 10))
    sim.process(worker(sim, "c", 20))
    sim.run()
    assert order == ["a", "b", "c"]


def test_memory_alloc_free():
    mem = MemoryLevel("M", 100, 10)
    offset = mem.alloc(60)
    assert offset == 0
    assert mem.free_bytes == 40
    with pytest.raises(MemoryError):
        mem.alloc(41)
    mem.free(60)
    assert mem.free_bytes == 100
    with pytest.raises(RuntimeError):
        mem.free(1)


def test_memory_level_factories():
    assert MEM_CLS(0).size == 64 * 1024
    assert MEM_EMEM().size == 2 * 1024 * 1024 * 1024
    assert MEM_CLS(1).latency_cycles == 100


def test_chip_assembly():
    from repro.nfp import Nfp4000, NfpConfig
    from repro.sim import Simulator

    sim = Simulator()
    chip = Nfp4000(sim)
    assert chip.total_fpcs() == 60
    assert chip.free_fpcs() == 60
    island = chip.islands[0]
    fpc = island.claim_fpc()
    assert chip.free_fpcs() == 59
    assert fpc.clock.hz == 800_000_000
    lx = Nfp4000(Simulator(), NfpConfig.agilio_lx())
    assert lx.total_fpcs() == 120
    assert lx.islands[0].fpcs[0].clock.hz == 1_200_000_000


def test_island_exhaustion():
    from repro.nfp import Island

    sim = Simulator()
    island = Island(sim, 0, n_fpcs=2)
    island.claim_fpc()
    island.claim_fpc()
    with pytest.raises(RuntimeError):
        island.claim_fpc()
