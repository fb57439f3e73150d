"""Command line front end, and the one writer of its output format.

The library returns plain data; this module alone turns it into table lines
and JSON documents.  Each JSON document is one object whose ``schema`` is
:data:`SCHEMA` and whose ``kind`` names it: ``root_system`` (``roots``),
``coxeter``, ``singular`` or ``concentrated`` (``bwb``), ``weight_multiset``
(``phi``), ``e1_page`` (``e1``), ``vanishing_report`` (``check-t1``, with a
``witnesses`` list under ``--witnesses``), ``thresholds``,
``nonvanishing_certificate`` (``certify``), ``verification``
(``verify-all``), and ``failure``, the record that ends a failed table run.

Exit codes: 0 success / verified, 1 a verification or certificate check
failed (in table format the last line of standard output is a
machine-readable failure record; in JSON format standard output is the one
document, whose ``verdict``, ``valid`` or ``ok`` field shows the failure),
2 usage error: input outside the contract (one ``usage error:`` line on
standard error) or a job refused because it would pass the exterior
engine's working-set cap or int64 multiplicities (one ``refused:`` line).

The ``rootcoh`` script, :func:`entry`, restores the default ``SIGPIPE``
action where there is one, so a reader that closes the pipe early, such as
``head``, ends it quietly like other filters; :func:`main` leaves it alone.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from pathlib import Path

from . import __version__
from .exterior import BudgetExceededError, ExteriorError, phi_sums
from .nonvanishing import (
    CertificateError,
    E1Page,
    NonvanishingCertificate,
    build_certificate,
    e1_page,
)
from .rootsys import RootSystem, RootSystemError, Weight, column_classes, root_system
from .vanishing import (
    VanishingError,
    VanishingReport,
    check_theorem1,
    corollary_bound,
    prop2_threshold,
)
from .verify import CriterionResult, verify_all
from .weyl import BwbOutcome, WeylError, bwb, weyl_dim

USAGE_ERROR = 2

#: The format version that every JSON document carries as its ``schema``.
SCHEMA = "rootcoh/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises :class:`UsageError` instead of printing
    a usage block and exiting; subparsers inherit the class."""

    def error(self, message: str):
        raise UsageError(message)


def _strict_int(text: str) -> int:
    """An integer in ASCII digits with an optional sign, spaces around it
    allowed; ``int`` alone would also take underscores and other scripts'
    digits.  Raises :class:`argparse.ArgumentTypeError` in ``int``'s words,
    so argparse reports ``invalid int value: ...`` for ``-p``.
    """
    try:
        if re.fullmatch(r"[+-]?[0-9]+", text.strip()):
            return int(text)
    except ValueError:  # past the interpreter's limit on digits
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_lambda(rs: RootSystem, text: str | None) -> Weight:
    if text is None:
        raise UsageError("--lambda is required for this command")
    try:
        coords = tuple(_strict_int(x) for x in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--lambda must be comma-separated integers, got {text!r}") from exc
    if len(coords) != rs.rank:
        raise UsageError(
            f"--lambda needs {rs.rank} coordinates for {rs.simple_type}, got {len(coords)}"
        )
    return Weight(coords)


def _emit(doc: dict) -> None:
    """Write ``doc`` to standard output, the same bytes as
    ``print(json.dumps(doc, indent=2))``, so the whole text is never held as
    one string.  The encoder's chunks go out joined 4096 at a time: one write
    per chunk would be one system call per chunk on an unbuffered stream."""
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while text := "".join(itertools.islice(chunks, 4096)):
        sys.stdout.write(text)
    sys.stdout.write("\n")


def _root_system_doc(rs: RootSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "root_system",
        "type": str(rs.simple_type),
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "half_norms": list(rs.half_norms),
        "h": rs.coxeter_number,
        "h_per_root": list(rs.coxeter_per_root),
        "roots": [
            {
                "root": list(r.root_coords),
                "weight": list(r.weight.coords),
                "coroot": list(r.coroot_coords),
                "half_norm": r.half_norm,
                "height": r.height,
            }
            for r in rs.positive_roots
        ],
    }


def _cmd_roots(args, rs: RootSystem, lam: None) -> None:
    if args.format == "json":
        _emit(_root_system_doc(rs))
        return
    width = max(len(" ".join(str(c) for c in r.root_coords)) for r in rs.positive_roots)
    for r in rs.positive_roots:
        rc = " ".join(str(c) for c in r.root_coords)
        wc = " ".join(f"{c:3d}" for c in r.weight.coords)
        print(f"({rc:<{width}})  <->  ({wc})")


def _cmd_coxeter(args, rs: RootSystem, lam: None) -> None:
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
        return
    print(f"{rs.simple_type}: h = {h}")
    for i, (v, cls) in enumerate(zip(per, column_classes(rs)), start=1):
        print(f"  h_alpha_{i} = {v:3d}  ({cls})")


def _outcome_doc(rs: RootSystem, outcome: BwbOutcome) -> dict:
    if outcome.is_singular:
        return {"kind": "singular"}
    return {
        "kind": "concentrated",
        "degree": outcome.degree,
        "dominant": list(outcome.dominant.coords),
        "dim": str(weyl_dim(rs, outcome.dominant)),
    }


def _cmd_bwb(args, rs: RootSystem, lam: Weight) -> None:
    outcome = bwb(rs, lam)
    if args.format == "json":
        _emit({"schema": SCHEMA, "type": str(rs.simple_type), "lambda": list(lam.coords),
               **_outcome_doc(rs, outcome)})
    elif outcome.is_singular:
        print(f"{rs.simple_type} lambda={lam}: singular, all cohomology vanishes")
    else:
        print(
            f"{rs.simple_type} lambda={lam}: degree {outcome.degree}, "
            f"dominant {outcome.dominant}, dim {weyl_dim(rs, outcome.dominant)}"
        )


def _cmd_phi(args, rs: RootSystem, lam: None) -> None:
    vecs, counts = phi_sums(rs, args.p)
    if args.sign == "+":
        vecs, counts = -vecs[::-1], counts[::-1]
    weights, mults = vecs.tolist(), counts.tolist()
    total = sum(mults)
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "kind": "weight_multiset",
                "p": args.p,
                "total": str(total),
                "entries": [
                    {"weight": w, "mult": str(m)} for w, m in zip(weights, mults)
                ],
                "type": str(rs.simple_type),
                "sign": args.sign,
            }
        )
        return
    print(
        f"{rs.simple_type} sums of {args.p} distinct "
        f"{'positive' if args.sign == '+' else 'negative'} roots: "
        f"{len(weights)} distinct weights, total {total}"
    )
    for w, m in zip(weights, mults):
        print(f"  {Weight(tuple(w))}  x{m}")


def _page_doc(page: E1Page) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "e1_page",
        "type": page.type,
        "p": page.p,
        "lambda": list(page.lam.coords),
        "buckets": {str(k): str(v) for k, v in page.buckets.items()},
        "euler": str(page.euler),
        "concentrated": page.concentrated,
    }


def _cmd_e1(args, rs: RootSystem, lam: Weight) -> None:
    page = e1_page(rs, args.p, lam)
    if args.format == "json":
        _emit(_page_doc(page))
        return
    print(f"{rs.simple_type} p={args.p} lambda={lam}:")
    if not page.buckets:
        print("  all weights singular; every degree vanishes")
    for q, v in page.buckets.items():
        print(f"  degree {q}: {v}")
    print(f"  euler characteristic: {page.euler}")
    print(f"  concentrated: {'yes' if page.concentrated else 'no'}")


def _report_doc(report: VanishingReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "vanishing_report",
        "type": report.type,
        "p": report.p,
        "lambda": list(report.lam.coords),
        "verdict": report.verdict,
        "counts": {
            "dominant": report.num_dominant,
            "singular": report.num_singular,
            "violation": report.num_violations,
        },
        "first_violation": (
            list(report.first_violation.coords) if report.first_violation else None
        ),
        "conclusion": (
            "H^{p,q} = 0 for all q >= 1 at this (p, lambda)"
            if report.passed
            else "hypothesis not satisfied; no vanishing conclusion"
        ),
    }


def _cmd_check_t1(args, rs: RootSystem, lam: Weight) -> dict | None:
    report = check_theorem1(rs, args.p, lam)
    if args.format == "json":
        doc = _report_doc(report)
        if args.witnesses:
            doc["witnesses"] = [
                {
                    "mu": list(w.mu.coords),
                    "kind": w.kind,
                    "singular_root": (
                        list(w.singular_root.root_coords) if w.singular_root else None
                    ),
                }
                for w in report.witnesses()
            ]
        _emit(doc)
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
    if not report.passed:
        return {
            "type": str(rs.simple_type),
            "p": args.p,
            "verdict": "fail",
            "first_violation": list(report.first_violation.coords),
        }


def _cmd_thresholds(args, rs: RootSystem, lam: None) -> None:
    degrees = [args.p] if args.p is not None else list(range(rs.num_positive_roots + 1))
    rows = [{"p": p, "bounds": list(prop2_threshold(rs, p))} for p in degrees]
    per_root = list(corollary_bound(rs))
    glob = [rs.coxeter_number - 1] * rs.rank
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
        return
    print(f"{rs.simple_type}: coordinate lower bounds for the vanishing hypothesis")
    for row in rows:
        print(f"  p={row['p']:3d}: {tuple(row['bounds'])}")
    print(f"  any p (per root): {tuple(per_root)}")
    print(f"  any p (global):   {tuple(glob)}")


def _conclusion(cert: NonvanishingCertificate) -> str:
    if not cert.valid:
        return f"invalid certificate: {cert.failure}"
    return f"H^{{{cert.d - 1},1}}(G/B, L({cert.lam})) != 0; Bott vanishing fails"


def _certificate_doc(rs: RootSystem, cert: NonvanishingCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "nonvanishing_certificate",
        "type": cert.type,
        "d": cert.d,
        "lambda": list(cert.lam.coords),
        "beta_indices": list(cert.beta_indices),
        "valid": cert.valid,
        "failure": cert.failure,
        "degree_totals": {str(k): str(v) for k, v in cert.degree_totals.items()},
        "conclusion": _conclusion(cert),
        "weights": [
            {
                "source_root": list(r.source.root_coords),
                "mu": list(r.mu.coords),
                "kind": r.kind,
                "nu": list(r.nu.root_coords) if r.nu else None,
                "outcome": _outcome_doc(rs, r.outcome),
            }
            for r in cert.records
        ],
    }


def _explain_certificate(rs: RootSystem, cert: NonvanishingCertificate) -> None:
    print("filtration splices (one short exact sequence per peeled lowest weight;")
    print("singular weights change nothing by the vanishing lemma):")
    for k, rec in enumerate(cert.exceptional):
        name = f"mu_{k + 1}"
        print(
            f"  0 -> H^0({name}) -> H^0(V_s) -> H^0(V_s+1) -> "
            f"H^1({name}) -> H^1(V_s) -> H^1(V_s+1) -> H^2({name}) -> ..."
        )
        print(
            f"     {name} = {rec.mu}, concentrated in degree "
            f"{rec.outcome.degree} with dimension {weyl_dim(rs, rec.outcome.dominant)}"
        )
    d1 = cert.degree_totals.get(1, 0)
    d0 = cert.degree_totals.get(0, 0)
    print(
        f"degree-1 total {d1} > degree-0 total {d0}, no other degree occurs, "
        f"so H^1 of the filtered module cannot vanish."
    )


def _cmd_certify(args, rs: RootSystem, lam: None) -> dict | None:
    cert = build_certificate(rs)
    if args.format == "json":
        _emit(_certificate_doc(rs, cert))
    else:
        print(f"{cert.type}: d = {cert.d}, lambda = {cert.lam} (strictly dominant, ample)")
        print(
            f"  weights: {cert.num_singular} singular, "
            f"{len(cert.exceptional)} contributing"
        )
        print(f"  degree totals: {dict(cert.degree_totals)}")
        print(f"  {_conclusion(cert)}")
        if cert.valid:
            print(
                "  consequently this flag variety is not a toric variety and does "
                "not degenerate to a smooth toric variety with ample cone "
                "going to ample cone."
            )
        if args.explain:
            _explain_certificate(rs, cert)
    if not cert.valid:
        return {"type": cert.type, "failure": cert.failure}


def _criterion_line(r: CriterionResult) -> str:
    status = "PASS" if r.ok else "FAIL"
    limit = f" (limit {r.limit_seconds:.0f}s)" if r.limit_seconds else ""
    return f"{status}  {r.number}. {r.name}: {r.detail} [{r.seconds:.2f}s{limit}]"


def _cmd_verify_all(args, rs: None, lam: None) -> dict | None:
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
            print(_criterion_line(r))
    if not all(r.ok for r in results):
        return {"failed": [r.name for r in results if not r.ok]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use.

    Each subcommand is declared once, by ``command``, which binds its
    handler; parsing keeps no state on the parser, so every :func:`main`
    call shares it.
    """
    parser = _Parser(
        prog="rootcoh",
        description=(
            "Exact root-system tables, cohomology-degree bookkeeping, vanishing "
            "checks and nonvanishing certificates for complete flag varieties."
        ),
    )
    parser.add_argument("--version", action="version", version=f"rootcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, typed=True, needs_p=False, needs_lambda=False):
        p = sub.add_parser(name, help=summary)
        if typed:
            p.add_argument("type", help="simple type, e.g. A3, B4, E8, G2")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if needs_p:
            p.add_argument("-p", type=_strict_int, default=None, help="exterior degree")
        if needs_lambda:
            p.add_argument("--lambda", dest="lam", default=None,
                           help="weight as comma-separated integers, one per node")
        p.set_defaults(handler=handler, needs_p=needs_p)
        return p

    command("roots", _cmd_roots, "positive-root table in both coordinates")
    command("coxeter", _cmd_coxeter, "Coxeter number and per-root numbers")
    command("bwb", _cmd_bwb, "regularize one weight", needs_lambda=True)
    phi = command("phi", _cmd_phi, "sums of p distinct roots", needs_p=True)
    phi.add_argument("--sign", choices=("+", "-"), default="-")
    command("e1", _cmd_e1, "per-degree totals of a twisted exterior power",
            needs_p=True, needs_lambda=True)
    t1 = command("check-t1", _cmd_check_t1, "dominance-or-singularity hypothesis check",
                 needs_p=True, needs_lambda=True)
    t1.add_argument("--witnesses", action="store_true", help="print per-weight records")
    # -p is optional here: without it every degree is listed
    thresholds = command("thresholds", _cmd_thresholds, "closed-form sufficient lower bounds")
    thresholds.add_argument("-p", type=_strict_int, default=None, help="exterior degree")
    cert = command("certify", _cmd_certify, "nonvanishing certificate for H^{d-1,1}")
    cert.add_argument("--explain", action="store_true",
                      help="print the spliced exact sequences schematically")
    every = command("verify-all", _cmd_verify_all, "run the full verification suite",
                    typed=False)
    every.add_argument("--golden-dir", default=None,
                       help="directory of golden tables (default tests/golden)")
    return parser


def _join_lambda(argv: list[str]) -> list[str]:
    """Fold '--lambda -2,1' into '--lambda=-2,1' so negatives parse, and so
    every prefix that argparse takes for '--lambda', such as '--lam -2,1'."""
    out = []
    it = iter(argv)
    for token in it:
        folds = len(token) > 2 and "--lambda".startswith(token)
        value = next(it, None) if folds else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.  The inputs that handlers
    share are resolved here, in this order: the catalogue of ``type``, a
    required ``-p``, then ``--lambda``.  A handler prints its output and
    returns ``None`` or the fields of its failure record."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_lambda(list(argv))
    try:
        args = build_parser().parse_args(argv)
        rs = root_system(args.type) if "type" in args else None
        if args.needs_p and args.p is None:
            raise UsageError(f"-p is required for {args.command}")
        lam = _parse_lambda(rs, args.lam) if "lam" in args else None
        # the parser keeps the limit on digits; an exact answer may pass it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            failure = args.handler(args, rs, lam)
        finally:
            sys.set_int_max_str_digits(limit)
    except SystemExit as exc:  # from parse_args: -h and --version
        return USAGE_ERROR if exc.code not in (0, None) else 0
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
    if failure is None:
        return 0
    if args.format != "json":
        print(json.dumps({"schema": SCHEMA, "kind": "failure", "command": args.command,
                          **failure}))
    return 1


def entry() -> None:
    import signal  # here, so importing the module does no more work
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
