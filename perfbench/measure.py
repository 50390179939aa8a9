"""Timed and traced measurement of one workload.

Simulated time advances in fixed slices. The first ``window_slices``
slices after warm-up, extended until the workload's ``window_ops`` round
trips have been recorded, are the *window*: every simulated metric and
modelled count is taken over it alone, so they are exact for a seed and
are digested. Host-time throughput keeps sampling further slices until the
requested host seconds have passed. Host times are in calibrated
reference seconds (see :mod:`perfbench.calibrate`).
"""

import gc
import resource

from repro.sim.clock import CYCLES_800MHZ

from perfbench.calibrate import CalibratedClock
from perfbench.metrics import CYCLE_CATEGORIES
from perfbench.stats import digest, median, tail_percentile
from perfbench.tracing import BENCH, LAYERS, Tracer

#: An untraced run sets up in two batches, one before the window (it keeps
#: the last set-up for the run) and one after the timed slices, so that
#: its set-ups sample two phases of a shared machine's speed. Each batch
#: sets up at least SETUP_MIN times and until SETUP_MIN_S raw seconds of
#: set-up have been timed (at most SETUP_MAX times); ``setup_s`` is the
#: median over both batches.
SETUP_MIN = 10
SETUP_MIN_S = 1.5
SETUP_MAX = 30
#: A window still short of its ops stops at this multiple of its length.
MAX_WINDOW_FACTOR = 4

def peak_rss_mb():
    """The process's peak resident set so far (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def simulated_outcome(bench, before, after, window_ns):
    """Simulated metrics and modelled counts over one window.

    ``before``/``after`` are :meth:`Bench.counters` snapshots taken at
    the edges of a window ``window_ns`` of simulated time long. Returns
    ``(sim_metrics, modelled, tail_info)``.
    """
    d = {key: after[key] - before.get(key, 0) for key in after}
    ops = d["verified"]
    rtts = bench.log.rtts
    if rtts:
        tail, label, beyond = tail_percentile(rtts)
        p50 = median(rtts)
    else:
        tail, label, beyond, p50 = 0, "none", 0, 0
    cycles = {cat: d.get("host_cycles." + cat, 0) for cat in CYCLE_CATEGORIES}
    sim = {
        "sim_ops_per_s": ops * 1e9 / window_ns,
        "sim_goodput_gbps": d["payload_bytes"] * 8 / window_ns,
        "sim_rtt_p50_us": p50 / 1000,
        "sim_rtt_tail_us": tail / 1000,
        "host_cycles_per_op": _ratio(sum(cycles.values()), ops),
    }
    lookups = d["lmem_hits"] + d["cls_hits"] + d["emem_misses"]
    fpc_cycles = after["n_fpcs"] * CYCLES_800MHZ.ns_to_cycles(window_ns)
    connects = bench.log.connect_ns
    modelled = {
        "sim.events_per_op": _ratio(d["events"], ops),
        "flextoe.lmem_hit_frac": _ratio(d["lmem_hits"], lookups),
        "flextoe.cls_hit_frac": _ratio(d["cls_hits"], lookups),
        "flextoe.emem_miss_frac": _ratio(d["emem_misses"], lookups),
        "flextoe.lookup_misses": d["lookup_misses"],
        "flextoe.fast_retransmits": d["fast_retransmits"],
        "nfp.fpc_busy_frac": _ratio(d["fpc_busy_cycles"], fpc_cycles),
        "nfp.dma_ops_per_op": _ratio(d["dma_ops"], ops),
        "nfp.dma_bytes_per_op": _ratio(d["dma_bytes"], ops),
        # Connections are opened at set-up, so handshakes and connect
        # times count from the build, not from the window's start.
        "control.handshakes": after["handshakes"],
        "control.retransmits": d["cp_retransmits"],
        "control.connect_sim_us_p50": median(connects) / 1000 if connects else 0.0,
        "net.switch_drops": d["switch_drops"],
        "net.queue_depth_max": after["queue_peak_bytes"],
        "net.wire_bytes_per_payload_byte": _ratio(d["wire_bytes"], d["payload_bytes"]),
        "faults.injections": d["injections"],
        "xdp.runs_per_op": _ratio(d["xdp_runs"], ops),
        "xdp.drop_frac": _ratio(d["xdp_drops"], d["xdp_runs"]),
        "libtoe.bytes_per_recv": _ratio(d["recv_bytes"], d["recv_calls"]),
        "apps.kv_get_hit_frac": _ratio(d["kv_hits"], d["kv_gets"]),
        "baselines.retransmitted_bytes": d["retransmitted_bytes"],
    }
    for cat in CYCLE_CATEGORIES:
        modelled["host.cycles_per_op." + cat] = _ratio(cycles[cat], ops)
    tail_info = {"percentile": label, "beyond": beyond, "samples": len(rtts)}
    return sim, modelled, tail_info


def outcome_digest(workload, seed, sim, modelled, tail_info, failed):
    """The digest a speed-only change must leave unchanged."""
    return digest(
        {
            "workload": workload.name,
            "seed": seed,
            "sim": sim,
            "modelled": modelled,
            "tail": tail_info,
            "window_failed": failed,
        }
    )


def run_window(workload, seed, bench=None, tracer=None, slices=None):
    """Warm up and run the digested window once.

    Builds the workload unless ``bench`` (built, not yet started) is
    given. The window is ``workload.window_slices`` slices, extended a
    slice at a time until ``workload.window_ops`` round trips have been
    recorded (up to ``MAX_WINDOW_FACTOR`` times its length); ``slices``
    fixes its length instead. With ``tracer`` the caller must already
    have installed it; spans are recorded only inside the window.

    Returns a dict with the simulated outcome and its digest, the
    window's host time (reference and raw seconds), op accounting, and
    the ``clock`` and ``before`` counter snapshot a caller needs to go
    on timing slices after the window.
    """
    if bench is None:
        bench = workload.build(seed)
    bench.start(tracer=tracer)
    bench.advance(workload.slice_ns * workload.warmup_slices)
    log = bench.log
    length = slices or workload.window_slices
    min_ops = 0 if slices else workload.window_ops
    before = bench.counters()
    log.recording = True
    clock = CalibratedClock()
    if tracer is not None:
        tracer.active = True
    n_slices = 0
    while n_slices < length or (len(log.rtts) < min_ops and n_slices < MAX_WINDOW_FACTOR * length):
        clock.call(bench.advance, workload.slice_ns)
        n_slices += 1
    if tracer is not None:
        tracer.active = False
    log.recording = False
    after = bench.counters()
    sim, modelled, tail_info = simulated_outcome(bench, before, after, workload.slice_ns * n_slices)
    failed = after["failed"] - before["failed"] + log.overdue()
    return {
        "sim": sim,
        "modelled": modelled,
        "tail": tail_info,
        "digest": outcome_digest(workload, seed, sim, modelled, tail_info, failed),
        "slices": n_slices,
        "host_s": clock.reference_s,
        "raw_s": clock.raw_s,
        "attempted": after["verified"] - before["verified"] + failed,
        "failed": failed,
        "wrong": log.wrong,
        "clock": clock,
        "before": before,
    }


def time_setups(workload, seed, setups):
    """One batch of timed set-ups; appends their reference seconds to
    ``setups`` and returns the last one built."""
    clock = CalibratedClock()
    bench = None
    for count in range(1, SETUP_MAX + 1):
        bench = None
        gc.collect()
        bench, reference = clock.call(workload.build, seed)
        setups.append(reference)
        if count >= SETUP_MIN and clock.raw_s >= SETUP_MIN_S:
            break
    return bench


def measure(workload, seed, seconds, slices=None):
    """The untraced run: end-to-end metrics for one workload and seed.

    Times a batch of set-ups, runs the digested window on the last one,
    keeps timing slices until ``seconds`` of host time have been
    measured, then times a second batch of set-ups. ``slices`` shortens
    the window (tests only).
    """
    setups = []
    bench = time_setups(workload, seed, setups)
    window = run_window(workload, seed, bench=bench, slices=slices)
    rss = peak_rss_mb()
    clock, before = window["clock"], window["before"]
    n_slices = window["slices"]
    while clock.raw_s < seconds:
        clock.call(bench.advance, workload.slice_ns)
        n_slices += 1
    log = bench.log
    ops = log.verified - before["verified"]
    payload = log.payload_bytes - before["payload_bytes"]
    failed = log.failed - before["failed"] + log.overdue()
    attempted = ops + failed
    wrong = log.wrong
    bench = log = None
    time_setups(workload, seed, setups)
    end_to_end = {
        "ops_per_s": ops / clock.reference_s,
        "payload_mb_per_s": payload / 1e6 / clock.reference_s,
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "verified_frac": _ratio(ops, attempted),
    }
    end_to_end.update(window["sim"])
    return {
        "metrics": end_to_end,
        "modelled": window["modelled"],
        "tail": window["tail"],
        "digest": window["digest"],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "setups_s": setups,
        "slices": n_slices,
        "window_slices": window["slices"],
        "host_s": clock.reference_s,
        "raw_s": clock.raw_s,
        "raw_ops_per_s": ops / clock.raw_s,
    }


def traced(workload, seed, slices=None):
    """Per-layer run: the untraced window, then the same span traced.

    The modelled counts come from the untraced window. The traced span
    is the whole window, or its first ``workload.trace_slices`` slices
    when the workload sets them (an untraced run of that prefix then
    gives the digest and host time the traced run is compared with).
    Returns the per-layer metrics, the runs' results and the tracer
    (for its spans). ``slices`` shortens every run (tests only).
    """
    plain = run_window(workload, seed, slices=slices)
    span = slices or workload.trace_slices
    untraced = plain if span in (None, plain["slices"]) else run_window(workload, seed, slices=span)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = run_window(workload, seed, tracer=tracer, slices=span)
    finally:
        tracer.uninstall()
    # Self times in reference seconds, like every other host time.
    scale = with_trace["host_s"] / with_trace["raw_s"] / 1e9
    per_layer = {}
    for layer in LAYERS + (BENCH,):
        per_layer[layer + ".self_s"] = tracer.self_ns[layer] * scale
        per_layer[layer + ".calls"] = tracer.calls[layer]
    per_layer["trace.overhead"] = with_trace["host_s"] / untraced["host_s"]
    per_layer.update(plain["modelled"])
    return {
        "metrics": per_layer,
        "plain": plain,
        "untraced": untraced,
        "traced": with_trace,
        "tracer": tracer,
    }
