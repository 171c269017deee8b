"""Command-line front end.

Four subcommands: ``solve`` routes an instance file and prints a
certificate; ``verify`` checks a certificate against its instance (an
``infeasible`` claim by max flow where the instance is one flow problem,
else by re-solving); ``lemma`` runs one lemma's verification campaign;
``pairability`` runs the 4-pair campaign on the full grid.  Exit codes:
0 feasible/conforming, 1 infeasible or defective, 2 usage or parse errors
(a ``--report`` path that cannot be opened among them, caught before the
campaign runs, and one that cannot be written once it has run), 3 a worker
process died before the campaign finished, 130 interrupted.

Reports are stable ``key: value`` text.  For fixed inputs and flags every
byte is reproducible except the final ``elapsed_seconds`` line, which is
wall-clock time and is explicitly excluded from comparisons.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from typing import Optional, Sequence

from .fileio import ParseError, parse_certificate, parse_instance, serialize_certificate
from .flow import escape_flow
from .routing import ESCAPE, Infeasible, Instance, solve, verify
from .verifier import (
    LEMMA_IDS,
    PAIRABILITY_SAMPLES,
    Campaign,
    WorkerDied,
    format_report,
    report_body,  # unused here; callers import the report vocabulary from gridlink.cli
    report_conforms,
    run_campaign,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror or exc}") from None


def _unwritable(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write report {path}: {exc.strerror or exc}")


@contextmanager
def _open_report(path: str):
    """Open a temporary file beside ``path`` before the campaign runs, and
    yield a function that writes the report to it and moves it over ``path``.

    A path that is not a writable regular file, or whose directory cannot be
    written, fails here.  A campaign that does not finish, or a write that
    fails (a full disk), leaves an earlier report whole and creates no file.
    The report replaces a symlink's target and keeps the old file's mode,
    but not its owner or hard links.
    """
    target = os.path.realpath(path)
    try:
        if os.path.exists(target):
            mode = os.stat(target).st_mode
            if not stat.S_ISREG(mode):
                raise ValueError(f"cannot write report {path}: not a regular file")
            open(target, "a", encoding="utf-8").close()  # refuse a report we may not write
        else:
            os.umask(mask := os.umask(0))  # read the umask: a new report gets open()'s mode
            mode = 0o666 & ~mask
        fd, tmp = tempfile.mkstemp(prefix=".report-", dir=os.path.dirname(target))
    except OSError as exc:
        raise _unwritable(path, exc) from None
    out = open(fd, "w", encoding="utf-8")

    def save(text: str) -> None:
        try:
            with out:
                out.write(text)
                out.flush()
                os.fsync(out.fileno())
            os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except OSError as exc:
            raise _unwritable(path, exc) from None

    try:
        yield save
    finally:
        out.close()  # already closed once saved
        with suppress(FileNotFoundError):
            os.remove(tmp)  # gone once it has replaced the report


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
    campaign = Campaign(args.lemma_id, args.samples, args.seed, args.workers)
    with _open_report(args.report) if args.report else nullcontext() as save:
        report = run_campaign(campaign)
        text = format_report(report)
        sys.stdout.write(text)
        if save:
            save(text)
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
    p_lemma.add_argument("--workers", type=int, default=1)
    p_lemma.add_argument("--report", metavar="PATH", help="also write the report here")
    p_lemma.set_defaults(func=cmd_campaign, samples=None, seed=None)

    p_pair = sub.add_parser("pairability", help="run the 4-pair campaign on the 6x6 grid")
    slice_of = p_pair.add_mutually_exclusive_group()
    slice_of.add_argument(
        "--samples",
        type=int,
        default=PAIRABILITY_SAMPLES,
        help=f"random draws (default {PAIRABILITY_SAMPLES})",
    )
    slice_of.add_argument(
        "--exhaustive-reduced",
        action="store_const",
        const=None,
        dest="samples",
        # argparse counts a flag as given only if its value is not its default
        default=argparse.SUPPRESS,
        help="sweep all symmetry-reduced placements (very long-running)",
    )
    p_pair.add_argument("--seed", type=int, default=None)
    p_pair.add_argument("--workers", type=int, default=1)
    p_pair.add_argument("--report", metavar="PATH", help="also write the report here")
    p_pair.set_defaults(func=cmd_campaign, lemma_id="pairability")
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
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # a campaign's worker pool is shut down by verifier._pooled on the way out
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
