"""BPF maps and the program verifier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.xdp import BpfArrayMap, BpfHashMap, BpfLruHashMap, VerifierError, assemble, verify
from repro.xdp.maps import BpfMapError


def test_hash_map_crud():
    table = BpfHashMap(4, 8, 4)
    table.update(b"AAAA", b"12345678")
    assert bytes(table.lookup(b"AAAA")) == b"12345678"
    assert table.lookup(b"BBBB") is None
    assert table.delete(b"AAAA")
    assert not table.delete(b"AAAA")


def test_hash_map_size_checks():
    table = BpfHashMap(4, 8, 4)
    with pytest.raises(BpfMapError):
        table.update(b"TOO-LONG", b"12345678")
    with pytest.raises(BpfMapError):
        table.update(b"AAAA", b"short")
    with pytest.raises(BpfMapError):
        table.lookup(b"xx")


def test_hash_map_capacity():
    table = BpfHashMap(1, 1, 2)
    table.update(b"a", b"1")
    table.update(b"b", b"2")
    with pytest.raises(BpfMapError):
        table.update(b"c", b"3")
    table.update(b"a", b"9")  # overwriting existing is fine


def test_lru_map_evicts_oldest():
    table = BpfLruHashMap(1, 1, 2)
    table.update(b"a", b"1")
    table.update(b"b", b"2")
    table.lookup(b"a")  # refresh
    table.update(b"c", b"3")
    assert table.lookup(b"b") is None
    assert table.lookup(b"a") is not None


def test_array_map_semantics():
    array = BpfArrayMap(8, 4)
    key = (2).to_bytes(4, "little")
    assert bytes(array.lookup(key)) == b"\x00" * 8
    array.update(key, b"12345678")
    assert bytes(array.lookup(key)) == b"12345678"
    assert array.delete(key)  # zeroes
    assert bytes(array.lookup(key)) == b"\x00" * 8
    assert array.lookup((9).to_bytes(4, "little")) is None


@given(st.dictionaries(st.binary(min_size=4, max_size=4), st.binary(min_size=8, max_size=8), max_size=32))
def test_hash_map_model_equivalence(model):
    table = BpfHashMap(4, 8, 64)
    for key, value in model.items():
        table.update(key, value)
    for key, value in model.items():
        assert bytes(table.lookup(key)) == value
    assert len(table) == len(model)


def test_verifier_accepts_valid_program():
    program = assemble("mov r0, 1\nexit")
    assert verify(program)


def test_verifier_rejects_empty_and_no_exit():
    with pytest.raises(VerifierError):
        verify([])
    with pytest.raises(VerifierError):
        verify(assemble("mov r0, 1\nja 0"))


def test_verifier_rejects_backward_jump():
    from repro.xdp.vm import Insn

    with pytest.raises(VerifierError):
        verify([Insn("mov.imm", dst=0, imm=1), Insn("ja", off=-2), Insn("exit")])


def test_verifier_rejects_unknown_helper():
    with pytest.raises(VerifierError):
        verify(assemble("mov r1, 0\nmov r2, 0\ncall 77\nexit"))


def test_verifier_rejects_uninitialized_read():
    with pytest.raises(VerifierError):
        verify(assemble("add r0, r5\nexit"))
    with pytest.raises(VerifierError):
        verify(assemble("ldxw r0, [r4+0]\nexit"))
    # exit returns r0, so r0 must be initialized on every path.
    with pytest.raises(VerifierError, match="exit reads uninitialized r0"):
        verify(assemble("exit"), {})


def test_verifier_tracks_helper_clobbers():
    # r2 is clobbered by the call; using it afterwards is rejected.
    source = """
        mov r0, 1
        stxw [r10-4], r0
        lddw r1, map:1
        mov r2, r10
        sub r2, 4
        call 1
        mov r0, r2
        exit
    """
    with pytest.raises(VerifierError):
        verify(assemble(source))


def test_verifier_rejects_out_of_range_jump():
    with pytest.raises(VerifierError):
        verify(assemble("mov r0, 1\nja 100\nexit"))


def test_verifier_rejects_jump_one_past_the_end():
    # Regression: the straight-line verifier bounds-checked targets with
    # ``target <= len(program)``, accepting a conditional jump to the
    # index one past the last instruction — a path that falls off the
    # end without ever reaching exit.
    from repro.xdp.vm import Insn

    program = [
        Insn("jeq.imm", dst=1, imm=0, off=2),  # target 3 == len(program)
        Insn("mov.imm", dst=0, imm=1),
        Insn("exit"),
    ]
    with pytest.raises(VerifierError, match="leaves the program|never reaches exit"):
        verify(program)


def test_verifier_rejects_one_armed_initialization_at_join():
    # Regression: the straight-line verifier scanned instructions in
    # program order, so a register initialized on only one branch arm
    # looked initialized after the join. The dataflow meet must reject
    # the read of r2 on the path that skipped ``mov r2, 7``.
    source = """
        mov r0, 1
        jeq r0, 0, skip
        mov r2, 7
    skip:
        add r0, r2
        exit
    """
    with pytest.raises(VerifierError, match="uninitialized r2"):
        verify(assemble(source))


def test_verifier_accepts_both_armed_initialization_at_join():
    # The sound dual: when every path initializes r2, the meet keeps it.
    source = """
        mov r0, 1
        jeq r0, 0, other
        mov r2, 7
        ja done
    other:
        mov r2, 9
    done:
        add r0, r2
        exit
    """
    assert verify(assemble(source))
