"""The proof-carrying check-eliding JIT: builtin parity, elision
statistics, fault semantics, and the adapter/env wire-through."""

import struct

import pytest

from repro.flextoe.module import ACTION_DROP, ACTION_PASS, ACTION_TX
from repro.proto import FLAG_ACK, FLAG_FIN, make_tcp_frame, str_to_ip
from repro.xdp import BpfVm, VmFault, XdpAdapter, assemble, compile_program, jit_enabled_default
from repro.xdp.builtins import ASM_BUILTINS, SpliceEntry, splice_key
from repro.xdp.builtins.firewall import BLACKLIST_FD, block_ip
from repro.xdp.builtins.splice import SPLICE_FD
from repro.xdp.jit import JitError, JitProgram

BAD_IP = str_to_ip("10.0.0.66")
GOOD_IP = str_to_ip("10.0.0.1")
DST_IP = str_to_ip("10.0.0.2")


def wire(src_ip, sport=1000, dport=2000, flags=FLAG_ACK, payload=b"x" * 10):
    frame = make_tcp_frame(0xA, 0xB, src_ip, DST_IP, sport, dport, flags=flags, payload=payload)
    return bytearray(frame.pack())


def _fresh(name):
    return ASM_BUILTINS[name]()


def test_all_builtins_compile_with_high_elision():
    for name, factory in sorted(ASM_BUILTINS.items()):
        program, maps = factory()
        jit = compile_program(program, maps)
        assert isinstance(jit, JitProgram)
        stats = jit.stats
        total = stats["mem_elided"] + stats["mem_retained"]
        if total:
            assert stats["mem_elided"] / total >= 0.8, (name, stats)


def test_jit_matches_interpreter_on_firewall():
    program, maps = _fresh("firewall")
    block_ip(maps[BLACKLIST_FD], BAD_IP)
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    for packet in (wire(BAD_IP), wire(GOOD_IP), wire(GOOD_IP)[:20], bytearray(b"\x00" * 14)):
        a, b = bytearray(packet), bytearray(packet)
        assert jit.run(a) == vm.run(b)
        assert a == b


def test_jit_packet_mutation_matches_interpreter():
    # The vlan builtin rewrites the packet in place (PCP clear).
    program, maps = _fresh("vlan")
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    frame = make_tcp_frame(0xA, 0xB, GOOD_IP, DST_IP, 1000, 2000, flags=FLAG_ACK, payload=b"z" * 8)
    frame.eth.vlan = 7
    frame.eth.vlan_pcp = 5
    packet = bytearray(frame.pack())
    a, b = bytearray(packet), bytearray(packet)
    assert jit.run(a) == vm.run(b)
    assert a == b
    assert a != packet  # the PCP bits were actually cleared


def test_jit_splice_rewrites_and_map_state():
    def loaded():
        program, maps = _fresh("splice")
        entry = SpliceEntry(
            remote_mac=0x0000020000000000 | 0xC,
            remote_ip=str_to_ip("10.0.0.9"),
            local_port=4000,
            remote_port=5000,
            seq_delta=100,
            ack_delta=(1 << 32) - 100,
        )
        maps[SPLICE_FD].update(splice_key(GOOD_IP, DST_IP, 1000, 2000), entry.pack())
        return program, maps

    pv, mv = loaded()
    pj, mj = loaded()
    vm = BpfVm(pv, mv)
    jit = compile_program(pj, mj)
    for flags in (FLAG_ACK, FLAG_ACK | FLAG_FIN, FLAG_ACK):
        packet = wire(GOOD_IP, flags=flags)
        a, b = bytearray(packet), bytearray(packet)
        assert jit.run(a) == vm.run(b)
        assert a == b
    # FIN removed the entry from both maps identically.
    assert mv[SPLICE_FD].lookup(splice_key(GOOD_IP, DST_IP, 1000, 2000)) is None
    assert mj[SPLICE_FD].lookup(splice_key(GOOD_IP, DST_IP, 1000, 2000)) is None


def test_executed_counts_match_interpreter():
    program, maps = _fresh("filter")
    vm = BpfVm(program, maps)
    jit = compile_program(program, maps)
    for packet in (wire(GOOD_IP, dport=80), wire(GOOD_IP, dport=9999), bytearray(b"\x00" * 10)):
        _, executed_jit = jit.run(bytearray(packet))
        _, executed_vm = vm.run(bytearray(packet))
        assert executed_jit == executed_vm


def test_retained_guard_still_faults():
    # A verified program whose packet access is proven, run through raw
    # compile: faults must still match VmFault semantics on the
    # interpreter for identical inputs (here: none — both succeed), and
    # an unverifiable program must not compile at all.
    bad = assemble("ldxdw r0, [r1+100]\nexit")
    with pytest.raises(Exception):
        compile_program(bad, {})


def test_division_by_zero_faults_identically():
    program = assemble(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov r4, r2
        add r4, 2
        jgt r4, r3, out
        ldxh r5, [r2+0]
        mov r0, 1000
        div r0, r5
        exit
    out:
        mov r0, 0
        exit
    """
    )
    vm = BpfVm(program, {})
    jit = compile_program(program, {})
    ok = bytearray(b"\x02\x00")  # halfword 2 -> 500
    assert jit.run(bytearray(ok)) == vm.run(bytearray(ok))
    zero = bytearray(b"\x00\x00")
    with pytest.raises(VmFault):
        vm.run(bytearray(zero))
    with pytest.raises(VmFault):
        jit.run(bytearray(zero))


def test_adapter_env_switch(monkeypatch):
    program, maps = _fresh("null")
    monkeypatch.delenv("REPRO_XDP_JIT", raising=False)
    assert jit_enabled_default() is True
    assert XdpAdapter(program=program, maps=maps).jit_enabled is True
    monkeypatch.setenv("REPRO_XDP_JIT", "0")
    assert jit_enabled_default() is False
    assert XdpAdapter(program=program, maps=maps).jit_enabled is False
    # Explicit argument beats the environment.
    assert XdpAdapter(program=program, maps=maps, jit=True).jit_enabled is True


def test_adapter_results_identical_across_backends():
    def run_all(jit):
        program, maps = _fresh("firewall")
        block_ip(maps[BLACKLIST_FD], BAD_IP)
        adapter = XdpAdapter(program=program, maps=maps, jit=jit)
        frames = [
            make_tcp_frame(0xA, 0xB, ip, DST_IP, 1000, 2000, flags=FLAG_ACK, payload=b"p")
            for ip in (BAD_IP, GOOD_IP, BAD_IP)
        ]
        actions = [adapter.handle(f, None) for f in frames]
        return actions, adapter.cost_cycles

    jit_actions, jit_cost = run_all(True)
    vm_actions, vm_cost = run_all(False)
    assert jit_actions == vm_actions == [ACTION_DROP, ACTION_PASS, ACTION_DROP]
    # Identical executed counts -> identical FPC cycle accounting.
    assert jit_cost == vm_cost


@pytest.mark.parametrize("jit", [True, False])
def test_adapter_unknown_return_code_drops(jit):
    # Like Linux's XDP_ABORTED: an out-of-range action fails closed.
    adapter = XdpAdapter(program=assemble("mov r0, 9\nexit"), maps={}, jit=jit)
    frame = make_tcp_frame(0xA, 0xB, GOOD_IP, DST_IP, 1000, 2000, flags=FLAG_ACK, payload=b"p")
    assert adapter.handle(frame, None) == ACTION_DROP
    assert adapter.results[9] == 1
    assert adapter.invocations == 1


def test_jit_run_counters():
    program, maps = _fresh("null")
    jit = compile_program(program, maps)
    assert jit.runs == 0
    jit.run(bytearray(b"\x00" * 20))
    jit.run(bytearray(b"\x00" * 20))
    assert jit.runs == 2
    assert jit.total_instructions == 2 * 2  # mov + exit per run


def test_compile_rejects_tampered_certificate():
    from repro.analysis.certificate import ProofTable, export_certificate

    program, maps = _fresh("firewall")
    cert = export_certificate(program, maps)
    doc = cert.to_jsonable()
    doc["states"][5]["pkt_valid"] = (doc["states"][5]["pkt_valid"] or 0) + 64
    with pytest.raises(Exception):
        compile_program(program, maps, cert=ProofTable.from_jsonable(doc))
