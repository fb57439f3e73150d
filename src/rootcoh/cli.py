"""Command line front end.

Exit codes: 0 success / verified, 1 a verification or certificate check
failed (a machine-readable failure record is printed to standard output),
2 usage error: input outside the contract (one ``usage error:`` line on
standard error) or a job refused because it would pass the exterior
engine's working-set cap or int64 multiplicities (one ``refused:`` line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .exterior import BudgetExceededError, ExteriorError, phi_sums
from .nonvanishing import CertificateError, build_certificate, e1_page
from .rootsys import (
    RootSystem,
    RootSystemError,
    Weight,
    column_classes,
    root_system,
    rs_to_json_dict,
    SCHEMA,
)
from .vanishing import VanishingError, check_theorem1, corollary_bound, prop2_threshold
from .verify import verify_all
from .weyl import WeylError, bwb

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _parse_lambda(rs: RootSystem, text: str | None) -> Weight:
    if text is None:
        raise UsageError("--lambda is required for this command")
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--lambda must be comma-separated integers, got {text!r}") from exc
    if len(coords) != rs.rank:
        raise UsageError(
            f"--lambda needs {rs.rank} coordinates for {rs.simple_type}, got {len(coords)}"
        )
    return Weight(coords)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _fail_record(command: str, **fields) -> None:
    record = {"schema": SCHEMA, "kind": "failure", "command": command}
    record.update(fields)
    print(json.dumps(record))


def _cmd_roots(args) -> int:
    rs = root_system(args.type)
    if args.format == "json":
        _emit(rs_to_json_dict(rs))
        return 0
    width = max(len(" ".join(str(c) for c in r.root_coords)) for r in rs.positive_roots)
    for r in rs.positive_roots:
        rc = " ".join(str(c) for c in r.root_coords)
        wc = " ".join(f"{c:3d}" for c in r.weight.coords)
        print(f"({rc:<{width}})  <->  ({wc})")
    return 0


def _cmd_coxeter(args) -> int:
    rs = root_system(args.type)
    h, per = rs.coxeter_number, rs.coxeter_per_root
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "coxeter",
                "type": str(rs.simple_type),
                "h": h,
                "h_per_root": list(per),
                "column_classes": list(column_classes(rs)),
            }
        )
        return 0
    print(f"{rs.simple_type}: h = {h}")
    for i, (v, cls) in enumerate(zip(per, column_classes(rs)), start=1):
        print(f"  h_alpha_{i} = {v:3d}  ({cls})")
    return 0


def _cmd_bwb(args) -> int:
    rs = root_system(args.type)
    lam = _parse_lambda(rs, args.lam)
    outcome = bwb(rs, lam)
    if args.format == "json":
        doc = {"schema": SCHEMA, "type": str(rs.simple_type), "lambda": list(lam.coords)}
        doc.update(outcome.to_json_dict())
        _emit(doc)
        return 0
    if outcome.is_singular:
        print(f"{rs.simple_type} lambda={lam}: singular, all cohomology vanishes")
    else:
        print(
            f"{rs.simple_type} lambda={lam}: degree {outcome.degree}, "
            f"dominant {outcome.dominant}, dim {outcome.dim}"
        )
    return 0


def _cmd_phi(args) -> int:
    rs = root_system(args.type)
    if args.p is None:
        raise UsageError("-p is required for phi")
    ms = phi_sums(rs, args.p, args.sign)
    if args.format == "json":
        doc = ms.to_json_dict()
        doc["type"] = str(rs.simple_type)
        doc["sign"] = args.sign
        _emit(doc)
        return 0
    print(
        f"{rs.simple_type} sums of {args.p} distinct "
        f"{'positive' if args.sign == '+' else 'negative'} roots: "
        f"{len(ms.entries)} distinct weights, total {ms.total}"
    )
    for w, m in ms.entries:
        print(f"  {w}  x{m}")
    return 0


def _cmd_e1(args) -> int:
    rs = root_system(args.type)
    if args.p is None:
        raise UsageError("-p is required for e1")
    lam = _parse_lambda(rs, args.lam)
    page = e1_page(rs, args.p, lam)
    if args.format == "json":
        _emit(page.to_json_dict())
        return 0
    print(f"{rs.simple_type} p={args.p} lambda={lam}:")
    if not page.buckets:
        print("  all weights singular; every degree vanishes")
    for q, v in page.buckets.items():
        print(f"  degree {q}: {v}")
    print(f"  euler characteristic: {page.euler}")
    print(f"  concentrated: {'yes' if page.concentrated else 'no'}")
    return 0


def _cmd_check_t1(args) -> int:
    rs = root_system(args.type)
    if args.p is None:
        raise UsageError("-p is required for check-t1")
    lam = _parse_lambda(rs, args.lam)
    report = check_theorem1(rs, args.p, lam)
    if args.format == "json":
        _emit(report.to_json_dict(include_witnesses=args.witnesses))
    else:
        print(
            f"{rs.simple_type} p={args.p} lambda={lam}: {report.verdict} "
            f"(dominant {report.num_dominant}, singular {report.num_singular}, "
            f"violations {report.num_violations})"
        )
        if args.witnesses:
            for w in report.witnesses():
                root = (
                    " via root " + str(w.singular_root.root_coords)
                    if w.singular_root
                    else ""
                )
                print(f"  {w.mu}: {w.kind}{root}")
    if report.passed:
        return 0
    if args.format != "json":
        _fail_record(
            "check-t1",
            type=str(rs.simple_type),
            p=args.p,
            verdict="fail",
            first_violation=list(report.first_violation.coords),
        )
    return 1


def _cmd_thresholds(args) -> int:
    rs = root_system(args.type)
    degrees = [args.p] if args.p is not None else list(range(rs.num_positive_roots + 1))
    rows = [{"p": p, "bounds": list(prop2_threshold(rs, p))} for p in degrees]
    per_root = list(corollary_bound(rs, "per_root"))
    glob = list(corollary_bound(rs, "global"))
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "thresholds",
                "type": str(rs.simple_type),
                "per_degree": rows,
                "all_degrees_per_root": per_root,
                "all_degrees_global": glob,
            }
        )
        return 0
    print(f"{rs.simple_type}: coordinate lower bounds for the vanishing hypothesis")
    for row in rows:
        print(f"  p={row['p']:3d}: {tuple(row['bounds'])}")
    print(f"  any p (per root): {tuple(per_root)}")
    print(f"  any p (global):   {tuple(glob)}")
    return 0


def _explain_certificate(cert) -> None:
    units = [r for r in cert.records if not r.outcome.is_singular]
    print("filtration splices (one short exact sequence per peeled lowest weight;")
    print("singular weights change nothing by the vanishing lemma):")
    for k, rec in enumerate(units):
        name = f"mu_{k + 1}"
        print(
            f"  0 -> H^0({name}) -> H^0(V_s) -> H^0(V_s+1) -> "
            f"H^1({name}) -> H^1(V_s) -> H^1(V_s+1) -> H^2({name}) -> ..."
        )
        print(
            f"     {name} = {rec.mu}, concentrated in degree "
            f"{rec.outcome.degree} with dimension {rec.outcome.dim}"
        )
    d1 = cert.degree_totals.get(1, 0)
    d0 = cert.degree_totals.get(0, 0)
    print(
        f"degree-1 total {d1} > degree-0 total {d0}, no other degree occurs, "
        f"so H^1 of the filtered module cannot vanish."
    )


def _cmd_certify(args) -> int:
    rs = root_system(args.type)
    cert = build_certificate(rs)
    if args.format == "json":
        _emit(cert.to_json_dict())
    else:
        print(f"{cert.type}: d = {cert.d}, lambda = {cert.lam} (strictly dominant, ample)")
        print(
            f"  weights: {cert.num_singular} singular, "
            f"{len(cert.exceptional)} contributing"
        )
        print(f"  degree totals: {dict(cert.degree_totals)}")
        print(f"  {cert.conclusion}")
        if cert.valid:
            print(
                "  consequently this flag variety is not a toric variety and does "
                "not degenerate to a smooth toric variety with ample cone "
                "going to ample cone."
            )
        if args.explain:
            _explain_certificate(cert)
    if cert.valid:
        return 0
    if args.format != "json":
        _fail_record("certify", type=cert.type, failure=cert.failure)
    return 1


def _cmd_verify_all(args) -> int:
    golden = Path(args.golden_dir) if args.golden_dir else None
    results = verify_all(golden_dir=golden)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "verification",
                "ok": all(r.ok for r in results),
                "criteria": [
                    {
                        "number": r.number,
                        "name": r.name,
                        "ok": r.ok,
                        "detail": r.detail,
                        "seconds": round(r.seconds, 3),
                        "limit_seconds": r.limit_seconds,
                    }
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            print(r.line)
    if all(r.ok for r in results):
        return 0
    if args.format != "json":
        failed = [r.name for r in results if not r.ok]
        _fail_record("verify-all", failed=failed)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootcoh",
        description=(
            "Exact root-system tables, cohomology-degree bookkeeping, vanishing "
            "checks and nonvanishing certificates for complete flag varieties."
        ),
    )
    parser.add_argument("--version", action="version", version=f"rootcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_p=False, needs_lambda=False):
        p.add_argument("type", help="simple type, e.g. A3, B4, E8, G2")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if needs_p:
            p.add_argument("-p", type=int, default=None, help="exterior degree")
        if needs_lambda:
            p.add_argument(
                "--lambda",
                dest="lam",
                default=None,
                help="weight as comma-separated integers, one per node",
            )

    common(sub.add_parser("roots", help="positive-root table in both coordinates"))
    common(sub.add_parser("coxeter", help="Coxeter number and per-root numbers"))
    common(sub.add_parser("bwb", help="regularize one weight"), needs_lambda=True)
    p_phi = sub.add_parser("phi", help="sums of p distinct roots")
    common(p_phi, needs_p=True)
    p_phi.add_argument("--sign", choices=("+", "-"), default="-")
    p_e1 = sub.add_parser("e1", help="per-degree totals of a twisted exterior power")
    common(p_e1, needs_p=True, needs_lambda=True)
    p_t1 = sub.add_parser("check-t1", help="dominance-or-singularity hypothesis check")
    common(p_t1, needs_p=True, needs_lambda=True)
    p_t1.add_argument("--witnesses", action="store_true", help="print per-weight records")
    common(
        sub.add_parser("thresholds", help="closed-form sufficient lower bounds"),
        needs_p=True,
    )
    p_cert = sub.add_parser("certify", help="nonvanishing certificate for H^{d-1,1}")
    common(p_cert)
    p_cert.add_argument(
        "--explain",
        action="store_true",
        help="print the spliced exact sequences schematically",
    )
    p_all = sub.add_parser("verify-all", help="run the full verification suite")
    p_all.add_argument("--format", choices=("table", "json"), default="table")
    p_all.add_argument(
        "--golden-dir",
        default=None,
        help="directory of golden tables (default tests/golden)",
    )
    return parser


_HANDLERS = {
    "roots": _cmd_roots,
    "coxeter": _cmd_coxeter,
    "bwb": _cmd_bwb,
    "phi": _cmd_phi,
    "e1": _cmd_e1,
    "check-t1": _cmd_check_t1,
    "thresholds": _cmd_thresholds,
    "certify": _cmd_certify,
    "verify-all": _cmd_verify_all,
}


def _join_lambda(argv: list[str]) -> list[str]:
    """Fold '--lambda -2,1' into '--lambda=-2,1' so negatives parse."""
    out = []
    it = iter(argv)
    for token in it:
        if token == "--lambda":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--lambda={value}")
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_lambda(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (
        UsageError,
        ExteriorError,
        VanishingError,
        WeylError,
        RootSystemError,
        CertificateError,
    ) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
