"""Command-line front end: radix, table, theorem, ratio, search, verify.

All results go to standard output; diagnostics and progress notes go to
standard error.  Exit codes: 0 success or valid, 1 domain-level
negative (a false conclusion, an invalid certificate), 2 usage or input
error, 3 budget exhausted.  json output is canonical (sorted keys, two
space indent) so that parsing and re-rendering reproduces it byte for
byte.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bounds, radix, ratio, search
from ._engine import ENGINES
from .registry import Registry
from .search import STATUS_EXACT, SearchBudget

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _dump_csv(rows: list[dict]) -> str:
    """Rows share a schema; a list prints space-separated, a rational as n/d."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(
            [
                " ".join(str(x) for x in v) if isinstance(v, list)
                else f"{v['numerator']}/{v['denominator']}" if isinstance(v, dict)
                else v
                for v in row.values()
            ]
        )
    return out.getvalue()


def _emit(args, payload, text: str, rows: list[dict] | None = None) -> None:
    """Write payload as json, rows (by default [payload]) as csv, else text."""
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    elif args.format == "csv":
        sys.stdout.write(_dump_csv([payload] if rows is None else rows))
    else:
        sys.stdout.write(text)


def _registry_from(args) -> Registry:
    reg = Registry()
    path = getattr(args, "registry_file", None)
    if path:
        reg.load_extension(path)
    return reg


def _fraction_text(d: dict) -> str:
    return f"{d['numerator']}/{d['denominator']} = {d['decimal']}"


def cmd_radix(args) -> int:
    rep = radix.to_radix(args.value, args.base)
    digits = " ".join(str(d) for d in rep.digits)
    terms = " + ".join(
        f"{d}*{rep.base}^{rep.exponent - i}" for i, d in enumerate(rep.digits)
    )
    _emit(
        args,
        rep.as_dict(),
        f"value {rep.value} base {rep.base}\n"
        f"digits {digits}\n"
        f"exponent {rep.exponent}\n"
        f"{rep.value} = {terms}\n",
    )
    return EXIT_OK


def cmd_table(args) -> int:
    reg = _registry_from(args)
    if args.which == 1:
        rows = [row.as_dict() for row in bounds.table1(reg, places=args.places)]
    else:
        rows = [row.as_dict() for row in bounds.table2(reg)]
    headers = list(rows[0])
    widths = [max(len(h), *(len(str(row[h])) for row in rows)) for h in headers]
    lines = [headers] + [[str(row[h]) for h in headers] for row in rows]
    text = "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )
    _emit(args, rows, text, rows)
    return EXIT_OK


def cmd_theorem(args) -> int:
    reg = _registry_from(args)
    report = bounds.check_theorem(args.r, args.k, args.k_prime, registry=reg)

    def tri(flag):
        return "not-evaluated" if flag is None else str(flag).lower()

    lines = [
        f"W({report.r}, {report.k}) = {report.w}  n = {report.n}",
        f"condition1 (larger value, larger k): {tri(report.condition1)}",
        f"condition2 (smaller floor log): {tri(report.condition2)}",
        f"condition3 (k' in [3, sqrt(n+1))): {report.condition3_display}",
        f"conclusion W < {report.r}^{report.n + 1} <= "
        f"{report.r}^{report.k * report.k}: {str(report.conclusion_holds).lower()}",
    ]
    _emit(args, report.as_dict(), "\n".join(lines) + "\n")
    return EXIT_OK if report.conclusion_holds else EXIT_NEGATIVE


def cmd_ratio(args) -> int:
    reg = _registry_from(args)
    analysis = ratio.analyze(args.r, args.k, registry=reg)
    # identity and expansion checks assert internally; run them so a
    # broken invariant can never print quietly
    ratio.exact_identity_rhs(args.r, args.k, registry=reg)
    if analysis.gap >= 1:
        ratio.binomial_expansion_estimate(args.r, args.k, registry=reg)
    payload = analysis.as_dict()
    a = analysis.alpha
    lines = [
        f"W({analysis.r}, {analysis.k + 1}) / W({analysis.r}, {analysis.k}) "
        f"= {_fraction_text(payload['exact'])}",
        f"exponents m_lo {analysis.m_lo}  m_hi {analysis.m_hi}  gap {analysis.gap}",
        f"leading digits {analysis.c_lead_lo} -> {analysis.c_lead_hi}",
        f"alpha decomposition: k = r {a.sign} {a.alpha}",
        f"leading estimate {_fraction_text(payload['leading_estimate'])}",
        f"residual {_fraction_text(payload['residual'])}",
    ]
    _emit(args, payload, "\n".join(lines) + "\n", [dict(payload, alpha=f"{a.sign}{a.alpha}")])
    return EXIT_OK


def cmd_search(args) -> int:
    budget = SearchBudget(max_seconds=args.max_seconds, max_nodes=args.max_nodes)
    outcome = search.compute_vdw(
        args.r,
        args.k,
        budget,
        mode=args.mode,
        workers=args.workers,
        max_length=args.max_length,
        engine=args.engine,
    )
    if args.cert:
        search.write_certificate(outcome.certificate, args.cert)
        print(f"certificate written to {args.cert}", file=sys.stderr)
    relation = "=" if outcome.status == STATUS_EXACT else ">="
    stats = outcome.stats
    _emit(
        args,
        outcome.as_dict(),
        f"W({outcome.r}, {outcome.k}) {relation} {outcome.value} "
        f"({outcome.status})\n"
        f"certificate length {outcome.certificate.length}\n"
        f"nodes {stats.nodes}  elapsed {stats.elapsed:.3f}s  "
        f"max depth {stats.max_depth}\n",
    )
    return EXIT_OK if outcome.status == STATUS_EXACT else EXIT_BUDGET


def cmd_verify(args) -> int:
    cert = search.read_certificate(args.certificate)
    problems = search.certificate_problems(cert)
    valid = not problems
    payload = {
        "valid": valid,
        "r": cert.r,
        "k": cert.k,
        "length": cert.length,
        "problems": problems,
    }
    if valid:
        text = f"valid certificate: W({cert.r}, {cert.k}) > {cert.length}\n"
    else:
        text = "invalid certificate: " + "; ".join(problems) + "\n"
    _emit(args, payload, text)
    return EXIT_OK if valid else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdw",
        description="Exact arithmetic and exhaustive search around "
        "van der Waerden numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json", "csv")):
        p.add_argument("--format", choices=choices, default="text")

    def add_registry_file(p):
        p.add_argument(
            "--registry-file",
            metavar="PATH",
            help="extension file with extra 'r k value tag' records",
        )

    p = sub.add_parser("radix", help="digit expansion of a value in a base")
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--base", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_radix)

    p = sub.add_parser("table", help="regenerate summary table 1 or 2")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument(
        "--places",
        type=int,
        default=5,
        help="decimal places for table 1 exponents (default 5)",
    )
    add_registry_file(p)
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("theorem", help="evaluate the bound conditions for (r, k)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--k-prime", dest="k_prime", type=int, default=None)
    add_registry_file(p)
    add_format(p)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("ratio", help="exact ratio analysis of W(r,k+1)/W(r,k)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_registry_file(p)
    add_format(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("search", help="derive W(r, k) by exhaustive search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock budget; when it runs out the result is a lower "
        "bound with status budget-exhausted (default: none)",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="cap on search decisions, never exceeded; when it runs out "
        "the result is a lower bound with status budget-exhausted "
        "(default: none)",
    )
    p.add_argument(
        "--max-length",
        type=int,
        default=None,
        help="stop the climb at this length and report a lower bound with "
        "status lower-bound-only (default: none)",
    )
    p.add_argument(
        "--mode",
        choices=search.MODES,
        default=search.MODE_WITNESS_PROOF,
        help="witness-proof (default): the pair's stored start coloring "
        "(k-1 zeros when none is stored), then one exhaustive proof; "
        "canonical: lexicographically least certificates from a climb that "
        "starts at length k-1",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="search threads, the calling thread included (default: the "
        "CPU count); the python engine always runs on one",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="jit: the C kernel, compiled on first use (the default; falls "
        "back to python with a warning when no compiler works); python: "
        "the pure-Python reference kernel",
    )
    p.add_argument("--cert", metavar="PATH", help="write the certificate here")
    add_format(p, choices=("text", "json"))
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("certificate", metavar="PATH")
    add_format(p, choices=("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
