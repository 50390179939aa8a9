"""``python -m repro lint`` / ``repro-lint``: run all analysis passes.

Five passes over the tree, one exit code:

1. **xdp-verifier** — every builtin XDP assembly program must pass the
   CFG dataflow verifier (:mod:`repro.analysis.verifier`);
2. **xdp-deadcode** — no refinement-unreachable instructions or
   never-observed stack stores in the builtins
   (:mod:`repro.analysis.deadcode`);
3. **stage-race** — the data-path stage modules must respect the
   connection-state ownership partition, including writes reached
   through helper calls (:mod:`repro.analysis.stagelint`);
4. **atomicity** — read-modify-writes by replicated stage instances
   must be declared commutative atomic-add counters
   (:func:`repro.analysis.stagelint.lint_atomicity`);
5. **sim-process** — no wall-clock time, global RNG, or non-event
   yields in simulation code (:mod:`repro.analysis.simlint`).

Exit status 0 when clean, 1 when any pass reports findings, so CI can
gate on it directly. ``--json`` (or ``--format=json``) emits the stable
machine-readable report from :mod:`repro.analysis.report`;
``--format=github`` prints GitHub Actions ``::warning`` annotations;
``--baseline report.json`` compares against a stored report and fails
only on *new* findings. ``--certify`` additionally exports each builtin
program's proof-carrying compilation certificate
(:mod:`repro.analysis.certificate`) into the JSON report.
"""

import argparse
import sys

from repro.analysis.report import (
    PASS_ATOMIC,
    PASS_DEADCODE,
    PASS_HB,
    PASS_ORDER,
    PASS_XDP,
    Finding,
    diff_findings,
    finding_sort_key,
    load_report,
    render_github,
    render_json,
    render_text,
)


def _builtin_factories():
    from repro.xdp.builtins import ASM_BUILTINS

    return sorted(ASM_BUILTINS.items())


def _verify_builtins():
    """Run the CFG verifier over the builtin assembly programs."""
    from repro.analysis.verifier import VerifierError, verify

    factories = _builtin_factories()
    findings = []
    for name, factory in factories:
        program, maps = factory()
        try:
            verify(program, maps)
        except VerifierError as exc:
            findings.append(
                Finding(
                    PASS_XDP,
                    "repro/xdp/builtins/{}".format(name),
                    0,
                    "verifier-reject",
                    str(exc),
                )
            )
    return findings, len(factories)


def _deadcode_builtins():
    """Dead-code/dead-store lint over the builtin assembly programs."""
    from repro.analysis import deadcode

    findings = []
    factories = _builtin_factories()
    for name, factory in factories:
        program, maps = factory()
        for code, index, message in deadcode.lint_program(name, program, maps):
            findings.append(
                Finding(PASS_DEADCODE, "repro/xdp/builtins/{}".format(name), index, code, message)
            )
    return findings, len(factories)


def certify_builtins():
    """Export + re-check a certificate per builtin; returns
    ``(findings, {name: certificate jsonable})``."""
    from repro.analysis.certificate import CertificateError, check_certificate, export_certificate
    from repro.analysis.verifier import VerifierError

    findings = []
    certificates = {}
    for name, factory in _builtin_factories():
        program, maps = factory()
        try:
            cert = export_certificate(program, maps)
            check_certificate(program, cert, maps)
        except (VerifierError, CertificateError) as exc:
            findings.append(
                Finding(
                    PASS_XDP,
                    "repro/xdp/builtins/{}".format(name),
                    0,
                    "certify-fail",
                    str(exc),
                )
            )
            continue
        certificates[name] = cert.to_jsonable()
    return findings, certificates


#: Key the pipeline commutability certificate is exported under; not a
#: builtin XDP program, so the per-builtin stat lines skip it.
COMMUTE_CERT_KEY = "pipeline-commute"


def certify_pipeline():
    """Export + re-check the pipeline commutability certificate."""
    from repro.analysis.hbcert import (
        CommuteCertError,
        check_commute_certificate,
        export_commute_certificate,
    )

    findings = []
    cert = None
    try:
        cert = export_commute_certificate()
        check_commute_certificate(cert)
    except CommuteCertError as exc:
        findings.append(
            Finding(PASS_ORDER, "repro/flextoe/stages.py", 0, "certify-fail", str(exc))
        )
    return findings, cert


def run_all(root=None):
    """Run every pass; returns ``(findings, checked)``."""
    from repro.analysis import simlint, stagelint

    findings, n_programs = _verify_builtins()
    checked = {PASS_XDP: n_programs}

    dead_findings, n_dead = _deadcode_builtins()
    findings.extend(dead_findings)
    checked[PASS_DEADCODE] = n_dead

    stage_paths = stagelint.default_paths()
    findings.extend(stagelint.lint_stages(stage_paths))
    checked["stage-race"] = len(stage_paths)

    findings.extend(stagelint.lint_atomicity(stage_paths))
    checked[PASS_ATOMIC] = len(stage_paths)

    from repro.analysis import hblint

    hb_model, hb_verdicts = hblint.field_verdicts(stage_paths)
    findings.extend(hblint.lint_hb(verdicts=hb_verdicts))
    checked[PASS_HB] = len(hb_verdicts)

    findings.extend(hblint.lint_ordering(stage_paths))
    checked[PASS_ORDER] = len(hb_model.stages)

    sim_findings = simlint.lint_tree(root)
    findings.extend(sim_findings)
    checked["sim-process"] = _count_py_files(root)
    return findings, checked


def _count_py_files(root):
    import os

    if root is None:
        import repro

        root = os.path.dirname(repro.__file__)
    count = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        count += sum(1 for f in filenames if f.endswith(".py"))
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Data-path safety analyzer: XDP verifier, stage race lint, "
            "replicated-state atomicity lint, sim-process lint."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON report (same as --format=json)"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default=None,
        dest="fmt",
        help="output format: text (default), json, or github workflow annotations",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "export + re-check a proof-carrying compilation certificate per "
            "builtin XDP program; embedded in the JSON report"
        ),
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory tree for the sim-process pass (default: the installed repro package)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="REPORT_JSON",
        help="fail only on findings not present in this stored JSON report",
    )
    args = parser.parse_args(argv)
    fmt = args.fmt or ("json" if args.json else "text")

    findings, checked = run_all(args.root)
    certificates = None
    if args.certify:
        cert_findings, certificates = certify_builtins()
        findings.extend(cert_findings)
        commute_findings, commute_cert = certify_pipeline()
        findings.extend(commute_findings)
        if commute_cert is not None:
            certificates[COMMUTE_CERT_KEY] = commute_cert
    findings.sort(key=finding_sort_key)
    gating = findings
    if args.baseline is not None:
        gating = diff_findings(findings, load_report(args.baseline))
        gating.sort(key=finding_sort_key)
    if fmt == "json":
        print(render_json(findings, checked, certificates=certificates))
    elif fmt == "github":
        print(render_github(gating))
        if args.certify and certificates is not None:
            for name in sorted(certificates):
                if name == COMMUTE_CERT_KEY:
                    cert = certificates[name]
                    print(
                        "::notice title=hb-certify::pipeline: {}/{} stage pairs, "
                        "{}/{} HC-op pairs proven commutable".format(
                            sum(1 for p in cert["stage_pairs"] if p["commute"]),
                            len(cert["stage_pairs"]),
                            sum(1 for p in cert["hc_pairs"] if p["commute"]),
                            len(cert["hc_pairs"]),
                        )
                    )
                    continue
                stats = certificates[name].get("stats", {})
                print(
                    "::notice title=xdp-certify::{}: {} insns, {}/{} memory guards elided".format(
                        name,
                        stats.get("insns", 0),
                        stats.get("mem_elided", 0),
                        stats.get("mem_elided", 0) + stats.get("mem_retained", 0),
                    )
                )
    else:
        print(render_text(gating))
        if args.baseline is not None and len(findings) != len(gating):
            print(
                "repro lint: {} baseline-accepted finding{} suppressed".format(
                    len(findings) - len(gating), "" if len(findings) - len(gating) == 1 else "s"
                )
            )
        if args.certify and certificates is not None:
            for name in sorted(certificates):
                if name == COMMUTE_CERT_KEY:
                    cert = certificates[name]
                    print(
                        "certified pipeline: {}/{} stage pairs and {}/{} HC-op "
                        "pairs commutable, {} fields judged".format(
                            sum(1 for p in cert["stage_pairs"] if p["commute"]),
                            len(cert["stage_pairs"]),
                            sum(1 for p in cert["hc_pairs"] if p["commute"]),
                            len(cert["hc_pairs"]),
                            len(cert["fields"]),
                        )
                    )
                    continue
                stats = certificates[name].get("stats", {})
                total = stats.get("mem_elided", 0) + stats.get("mem_retained", 0)
                print(
                    "certified {}: {} insns, {}/{} memory guards elided, "
                    "{}/{} division guards elided".format(
                        name,
                        stats.get("insns", 0),
                        stats.get("mem_elided", 0),
                        total,
                        stats.get("div_elided", 0),
                        stats.get("div_elided", 0) + stats.get("div_retained", 0),
                    )
                )
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
