"""Command-line front end.

Four subcommands: ``solve`` routes an instance file and prints a
certificate; ``verify`` checks a certificate against its instance (an
``infeasible`` claim by max flow where the instance is one flow problem,
else by re-solving); ``lemma`` runs one lemma's verification campaign;
``pairability`` runs the 4-pair campaign on the full grid.  Exit codes:
0 feasible/conforming, 1 infeasible or defective, 2 usage or parse errors
(a ``--report`` path that cannot be written among them, caught before the
campaign runs), 130 interrupted.

Reports are stable ``key: value`` text.  For fixed inputs and flags every
byte is reproducible except the final ``elapsed_seconds`` line, which is
wall-clock time and is explicitly excluded from comparisons.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from typing import Optional, Sequence

from .fileio import ParseError, parse_certificate, parse_instance, serialize_certificate
from .flow import escape_flow
from .routing import ESCAPE, Infeasible, Instance, solve, verify
from .verifier import (
    LEMMA_IDS,
    STRATEGIES,
    Campaign,
    format_report,
    report_body,  # unused here; callers import the report vocabulary from gridlink.cli
    report_conforms,
    run_campaign,
)


# placements a pairability run draws when --samples is not given
_PAIRABILITY_SAMPLES = 100000


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror or exc}") from None


@contextmanager
def _open_report(path: str):
    """Open ``path`` for the report before the campaign runs.

    A path that cannot be written fails here, before any work.  The file is
    opened in append mode, so a campaign that does not finish leaves an
    earlier report as it was, and removes a file that this call created.
    """
    created = not os.path.exists(path)
    try:
        out = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write report {path}: {exc.strerror or exc}") from None
    try:
        with out:
            yield out
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(path)
        raise


def cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance), args.instance)
    result = solve(inst)
    sys.stdout.write(serialize_certificate(result))
    return 0 if result else 1


def _decide_infeasible(inst: Instance) -> tuple[bool, str]:
    """Is the instance infeasible?  Also names the route that decided it.

    Escapes that share one exit set and one distinct group (or all have
    none) are a max-flow problem, decided by ``escape_flow`` independently
    of the solver.  Any other instance is re-solved.
    """
    ds = inst.demands
    if (
        ds
        and all(d.kind == ESCAPE and d.exits == ds[0].exits for d in ds)
        and len({d.distinct_group for d in ds}) == 1
    ):
        got = escape_flow(
            inst.graph,
            [d.source for d in ds],
            ds[0].exits,
            distinct=ds[0].distinct_group is not None,
            forbidden=inst.forbidden_edges,
        )
        return got is Infeasible, "max-flow"
    return solve(inst) is Infeasible, "re-solved"


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance), args.instance)
    cert = parse_certificate(_read(args.certificate), args.certificate)
    if cert is Infeasible:
        infeasible, route = _decide_infeasible(inst)
        if infeasible:
            print(f"ok: instance is infeasible ({route})")
            return 0
        print(
            "invalid: certificate claims infeasible, but the instance is solvable"
            f" ({route})"
        )
        return 1
    got = verify(inst, cert)
    if got:
        print("ok: certificate verifies")
        return 0
    print(f"invalid: {got.violation}")
    return 1


def cmd_campaign(args: argparse.Namespace) -> int:
    samples = args.samples
    if samples is None and args.strategy == "random":
        samples = args.random_samples
    campaign = Campaign(
        lemma_id=args.lemma_id,
        strategy=args.strategy,
        samples=samples,
        seed=args.seed,
        workers=args.workers,
    )
    with _open_report(args.report) if args.report else nullcontext() as out:
        report = run_campaign(campaign)
        text = format_report(report)
        sys.stdout.write(text)
        if out is not None:
            out.truncate(0)
            out.write(text)
    return 0 if report_conforms(report) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlink",
        description="Edge-disjoint path routing on grids: solve, verify, and run lemma campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file, print a certificate")
    p_solve.add_argument("instance", help="instance file path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a certificate against an instance")
    p_verify.add_argument("instance", help="instance file path")
    p_verify.add_argument("certificate", help="certificate file path")
    p_verify.set_defaults(func=cmd_verify)

    p_lemma = sub.add_parser("lemma", help="run one lemma's verification campaign")
    p_lemma.add_argument("lemma_id", choices=list(LEMMA_IDS), metavar="lemma_id")
    p_lemma.add_argument("--strategy", choices=list(STRATEGIES), default="exhaustive")
    p_lemma.add_argument("--samples", type=int, default=None)
    p_lemma.add_argument("--seed", type=int, default=None)
    p_lemma.add_argument("--workers", type=int, default=1)
    p_lemma.add_argument("--report", metavar="PATH", help="also write the report here")
    p_lemma.set_defaults(func=cmd_campaign, random_samples=None)

    p_pair = sub.add_parser("pairability", help="run the 4-pair campaign on the 6x6 grid")
    p_pair.add_argument(
        "--samples",
        type=int,
        default=None,
        help=f"random draws (default {_PAIRABILITY_SAMPLES})",
    )
    p_pair.add_argument("--seed", type=int, default=None)
    p_pair.add_argument(
        "--exhaustive-reduced",
        action="store_const",
        const="reduced",
        dest="strategy",
        help="sweep all symmetry-reduced placements (very long-running)",
    )
    p_pair.add_argument("--workers", type=int, default=1)
    p_pair.add_argument("--report", metavar="PATH", help="also write the report here")
    p_pair.set_defaults(
        func=cmd_campaign,
        lemma_id="pairability",
        strategy="random",
        random_samples=_PAIRABILITY_SAMPLES,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a campaign's worker pool is closed by its context manager on the way out
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
