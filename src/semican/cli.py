"""Command-line entry points: orbit tables, separation reports, and the
report of `semican.verify`.  This module parses arguments, writes the JSON
and maps outcomes to exit codes: 0 all checks pass, 2 a check failed, 1 usage
or input error, 141 when the reader closed stdout early.  Exact values are
emitted as rational strings; reports are JSON with a schema_version field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .core import (DimVector, dual_orbit, enumerate_orbits, orbit_dim,
                   sign_parity)
from .separation import (MAX_RANK_BOUND, NormalFormY, SeparationError,
                         matchings, report_texts)
from .verify import SCHEMA_VERSION, run_verify


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# subcommands

def _require_nonempty(dim: DimVector) -> None:
    """Reject d1 + d2 < 1; main reports the ValueError and exits 1.

    Each command builds `dim` first, so a negative dimension is reported as
    such; `verify` calls this after its --max-dim bound.
    """
    if dim.total < 1:
        raise ValueError("d1 + d2 must be at least 1")


def _require_rank_bound(dim: DimVector) -> None:
    """Reject min(d1, d2) above separation.MAX_RANK_BOUND, which the packed
    kernel's exponent fields cannot hold; main exits 1 with the message."""
    if dim.rank_bound > MAX_RANK_BOUND:
        raise ValueError(f"min(d1, d2) = {dim.rank_bound} is above "
                         f"{MAX_RANK_BOUND}, the largest the separation's "
                         f"exponent fields hold")


def _orbit_rows(dim: DimVector):
    rows = []
    for o in enumerate_orbits(dim):
        rows.append({
            "r": o.r,
            "orbit_dim": orbit_dim(o),
            "dual_rank": dual_orbit(o).r,
            "parity_defect": sign_parity(o),
        })
    return rows


def cmd_orbits(args) -> int:
    dim = DimVector(args.d1, args.d2)
    _require_nonempty(dim)
    rows = _orbit_rows(dim)
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "dim": [dim.d1, dim.d2], "orbits": rows},
                         indent=2))
    elif args.format == "csv":
        cols = ["r", "orbit_dim", "dual_rank", "parity_defect"]
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    else:
        print(f"orbits for dim ({dim.d1}, {dim.d2})")
        print(f"{'r':>3} {'dim':>5} {'dual':>5} {'parity':>7}")
        for row in rows:
            print(f"{row['r']:>3} {row['orbit_dim']:>5} "
                  f"{row['dual_rank']:>5} {row['parity_defect']:>7}")
    return 0


def cmd_verify(args) -> int:
    dim = DimVector(args.d1, args.d2)
    dim_bound = args.max_dim
    if dim.d1 > dim_bound or dim.d2 > dim_bound:
        print(f"error: dimensions above {dim_bound} need --max-dim",
              file=sys.stderr)
        return 1
    _require_nonempty(dim)
    _require_rank_bound(dim)
    report = run_verify(args.d1, args.d2, seed=args.seed,
                        skip_wreg=args.skip_wreg)
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        print(text)
    if report["failed_checks"]:
        print(f"FAILED: {report['failed_checks'][0]}", file=sys.stderr)
        return 2
    return 0


def _parse_y0(spec: str) -> NormalFormY:
    spec = spec.strip()
    if not spec:
        return NormalFormY.of()
    positions = []
    for chunk in spec.split(","):
        i, _, j = chunk.partition(":")
        try:
            positions.append((int(i), int(j)))
        except ValueError:
            raise ValueError(
                f"bad y0 entry {chunk!r} (expected i:j)") from None
    return NormalFormY.of(*positions)


def cmd_separate(args) -> int:
    dim = DimVector(args.d1, args.d2)
    _require_nonempty(dim)
    _require_rank_bound(dim)
    try:
        comp = tuple(int(v) for v in args.comp.split(","))
    except ValueError:
        print(f"error: bad composition {args.comp!r}", file=sys.stderr)
        return 1
    if any(v not in (1, 2) for v in comp):
        print(f"error: composition letters must be 1 or 2: {args.comp}",
              file=sys.stderr)
        return 1
    d1, d2 = comp.count(1), comp.count(2)
    if (d1, d2) != dim:
        print(f"error: composition {args.comp} has content ({d1}, {d2}), "
              f"expected ({args.d1}, {args.d2})", file=sys.stderr)
        return 1
    # a bad --y0 raises ValueError, from _parse_y0 or from the validation
    # in the construction, and main reports it
    try:
        if args.all:
            # every composition has the empty matching: never an empty list
            parts = [f'{{\n  "schema_version": {SCHEMA_VERSION},'
                     '\n  "reports": [\n    ']
            parts += report_texts(comp, matchings(comp), depth=2)
            parts.append("\n  ]\n}")
            out = "".join(parts)
        else:
            report = "".join(report_texts(comp, [_parse_y0(args.y0)]))
            # schema_version is the last key, before the closing "\n}"
            out = (report[:-2] + ',\n  "schema_version": '
                   f'{SCHEMA_VERSION}\n}}')
    except SeparationError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semican",
                     description="Exact checks of the canonical vs "
                                 "semicanonical multiplicity identity "
                                 "for the two-vertex quiver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="list orbits with invariants")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--skip-wreg", action="store_true",
                   help="skip the exact w-regularity rank checks of the "
                        "orbit stratification")
    p.add_argument("--max-dim", type=int, default=6,
                   help="largest vertex dimension accepted")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("separate", help="separation report for one chart")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--comp", required=True,
                   help="comma-separated vertex letters, e.g. 1,2,2,1")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--y0", help="matching as i:j pairs, e.g. 1:1,2:3; "
                                    "empty string for the empty matching")
    group.add_argument("--all", action="store_true",
                       help="one report per admissible matching")
    p.set_defaults(func=cmd_separate)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parse_args keeps
    # no state between calls
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader is gone (`| head`): send what is still buffered
        # to devnull, so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
