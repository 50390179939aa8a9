"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: host-time throughput,
set-up time and memory, plus the simulated outcome of the workload's
fixed window. ``--trace 1`` reports the per-layer metrics: host self
time and calls per layer from a traced rerun of that window, and the
modelled per-layer counts. Human-readable lines come first; the last
line of standard output is the JSON result.

The simulated numbers come from an unvalidated model: the repository
holds no measurements of real FlexTOE hardware, so no accuracy error is
reported.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Spans of traced runs are written here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The seed reserved for confirming a claimed gain after the change was
#: written (never used while tuning).
HELD_OUT_SEED = 7919

def git_sha():
    """HEAD's commit id, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "model": "unvalidated: no reference hardware measurements, no accuracy error reported",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.measure import measure, traced
    from perfbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload {!r}; known: {}".format(args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    meta = metadata(args)
    print("perfbench {} seed={} trace={}".format(args.workload, args.seed, args.trace))
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        result = traced(workload, args.seed)
        plain, untraced, with_trace = result["plain"], result["untraced"], result["traced"]
        correct = untraced["digest"] == with_trace["digest"] and not any(
            run["wrong"] for run in (plain, untraced, with_trace)
        )
        attempted, failed = with_trace["attempted"], with_trace["failed"]
        metrics = {name: (result["metrics"][name], unit) for name, unit in PER_LAYER_UNITS.items()}
        tail = plain["tail"]
        print("digest {} (window, untraced)".format(plain["digest"]))
        print(
            "digest {} (first {} slices, untraced) {} (traced)".format(
                untraced["digest"], with_trace["slices"], with_trace["digest"]
            )
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-{}-seed{}.jsonl".format(args.workload, args.seed))
        result["tracer"].write_spans(path, meta)
        print("spans {}".format(os.path.relpath(path, ROOT)))
    else:
        result = measure(workload, args.seed, args.seconds)
        correct = not result["wrong"]
        attempted, failed = result["attempted"], result["failed"]
        metrics = {name: (result["metrics"][name], unit) for name, unit in END_TO_END_UNITS.items()}
        tail = result["tail"]
        print("digest {}".format(result["digest"]))
        setups = result["setups_s"]
        print(
            "measured {} slices ({} in the window) in {:.2f} reference s ({:.2f} raw s, raw ops_per_s {:.6g}); "
            "{} set-ups, {:.4f}-{:.4f} reference s".format(
                result["slices"],
                result["window_slices"],
                result["host_s"],
                result["raw_s"],
                result["raw_ops_per_s"],
                len(setups),
                min(setups),
                max(setups),
            )
        )
    print(
        "sim_rtt_tail_us is {} over {} samples ({} beyond)".format(
            tail["percentile"], tail["samples"], tail["beyond"]
        )
    )
    print("attempted {} failed {} ({:.4f})".format(attempted, failed, failed / attempted if attempted else 0.0))
    for name, (value, unit) in metrics.items():
        print("  {:<36} {:>16.6g} {}".format(name, value, unit))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
