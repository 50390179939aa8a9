"""Sequencer and reorder buffer (GRO) semantics, incl. property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flextoe import ReorderBuffer, Sequencer
from repro.flextoe.descriptors import SegWork, WORK_RX
from repro.sim import Simulator


def make_work(sequencer=None):
    work = SegWork(WORK_RX)
    if sequencer is not None:
        sequencer.assign(work)
    return work


def test_sequencer_is_dense():
    seqr = Sequencer()
    seqs = [seqr.assign(make_work()) for _ in range(10)]
    assert seqs == list(range(10))
    assert seqr.issued == 10


def test_in_order_passthrough():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, output_fn=out.append)
    seqr = Sequencer()
    for _ in range(5):
        rob.offer(make_work(seqr))
    assert [w.pipeline_seq for w in out] == [0, 1, 2, 3, 4]
    assert rob.out_of_order_arrivals == 0


def test_out_of_order_buffered_and_released():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, output_fn=out.append)
    seqr = Sequencer()
    works = [make_work(seqr) for _ in range(4)]
    rob.offer(works[2])
    rob.offer(works[1])
    assert out == []
    assert rob.buffered == 2
    rob.offer(works[0])
    assert [w.pipeline_seq for w in out] == [0, 1, 2]
    rob.offer(works[3])
    assert len(out) == 4
    assert rob.out_of_order_arrivals == 2
    # Peak counts the transient insert before draining: 2 buffered + the
    # hole-filling arrival.
    assert rob.buffered_peak == 3


def test_skip_unblocks_stream():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, output_fn=out.append)
    seqr = Sequencer()
    works = [make_work(seqr) for _ in range(3)]
    rob.offer(works[1])
    rob.offer(works[2])
    assert out == []
    rob.skip(works[0].pipeline_seq)  # dropped in pre-processing
    assert [w.pipeline_seq for w in out] == [1, 2]


def test_skip_already_released_is_noop():
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, output_fn=out.append)
    seqr = Sequencer()
    work = make_work(seqr)
    rob.offer(work)
    rob.skip(work.pipeline_seq)  # late skip
    assert rob.expected == 1


def test_duplicate_sequence_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, output_fn=lambda w: None)
    seqr = Sequencer()
    work = make_work(seqr)
    rob.offer(work)
    with pytest.raises(ValueError):
        rob.offer(work)


def test_unsequenced_work_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, output_fn=lambda w: None)
    with pytest.raises(ValueError):
        rob.offer(make_work())


@given(st.permutations(range(12)), st.sets(st.integers(min_value=0, max_value=11)))
def test_any_permutation_with_drops_releases_in_order(order, drops):
    """Property: whatever arrival order and drop set, released works come
    out in strictly ascending sequence and nothing is lost."""
    sim = Simulator()
    out = []
    rob = ReorderBuffer(sim, output_fn=out.append)
    works = {}
    seqr = Sequencer()
    for _ in range(12):
        work = make_work(seqr)
        works[work.pipeline_seq] = work
    for seq in order:
        if seq in drops:
            rob.skip(seq)
        else:
            rob.offer(works[seq])
    released = [w.pipeline_seq for w in out]
    assert released == sorted(set(range(12)) - drops)


def test_output_ring_force_put_when_full():
    from repro.nfp.queues import Ring

    sim = Simulator()
    ring = Ring(sim, capacity=2)
    rob = ReorderBuffer(sim, output_ring=ring)
    seqr = Sequencer()
    for _ in range(5):
        rob.offer(make_work(seqr))
    # All five landed despite the capacity-2 ring (overshoot allowed to
    # avoid reorder deadlock).
    assert len(ring) == 5
