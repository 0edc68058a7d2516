"""Command-line entry points: orbit tables, separation reports, and the
end-to-end verify pipeline.

Exit codes: 0 all checks pass, 2 a check failed, 1 usage or input error.
All exact values are emitted as rational strings; reports are JSON with a
schema_version field.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bases import (SpanningError, m_coefficients, monomial_matrix_E,
                    monomial_matrix_Pi, sign_twist, spanning_words,
                    transfer_matrix)
from .core import (DimVector, Orbit, PiModClass, dual_orbit, enumerate_orbits,
                   orbit_dim, sign_parity)
from .geom import (GenericityError, PairPoint, hessian_rank_check,
                   w_regularity_sample)
from .separation import (NormalFormY, SeparationError, back_substitute,
                         build_and_separate, enumerate_instances,
                         enumerate_matchings, flag_shape, validate_matching)

SCHEMA_VERSION = 2
# largest vertex dimension at which verify separates every instance
EXHAUSTIVE_SEP_BOUND = 3


def _fr(x) -> str:
    return str(Fraction(x))


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# verify pipeline

def run_verify(d1: int, d2: int, seed: int = 1, skip_wreg: bool = False,
               sep_samples: int = 500) -> dict:
    """Run every check for one dimension vector and assemble the report."""
    dim = DimVector(d1, d2)
    timings: dict[str, float] = {}
    failed: list[str] = []

    def stage(name):
        timings[name] = time.perf_counter()

    def done(name):
        timings[name] = round((time.perf_counter() - timings[name]) * 1000.0, 3)

    stage("monomial_matrices")
    words = spanning_words(dim)
    mats = (monomial_matrix_E(dim, words), monomial_matrix_Pi(dim, words))
    done("monomial_matrices")

    stage("section_kernel")
    section_ok = kernel_ok = False
    try:
        transfer = transfer_matrix(dim, words, mats)
    except SpanningError as exc:
        transfer = None
        failed.append(f"spanning (missing ranks {exc.missing})")
    else:
        bad_sections = transfer.section_failures()
        section_ok = not bad_sections
        failed.extend(f"section_identity (r={r})" for r in bad_sections)
        kernel_ok = transfer.mismatch is None
        if not kernel_ok:
            failed.append(f"kernel_invariance ({transfer.mismatch})")
    done("section_kernel")

    stage("m_n_matrices")
    m_entries = n_entries = ()
    if transfer is not None:
        m = m_coefficients(dim, transfer=transfer)
        n = sign_twist(dim, m)
        for name, mat, bad in (
                ("m_structure", m, m.first_bad_entry()),
                ("n_structure", n, n.first_bad_entry(nonnegative=True))):
            if bad is not None:
                failed.append(
                    f"{name} (entry {bad}: {_fr(mat.entry(*bad))})")
        m_entries, n_entries = m.entries, n.entries
    done("m_n_matrices")

    stage("parity")
    parity_ok = all(sign_parity(o) % 2 == 0 for o in enumerate_orbits(dim))
    if not parity_ok:
        failed.append("sign_parity")
    done("parity")

    stage("separation")
    instances = list(enumerate_instances(dim))
    sampled = max(d1, d2) > EXHAUSTIVE_SEP_BOUND
    if sampled:
        rng = random.Random(seed)
        instances = rng.sample(instances, min(sep_samples, len(instances)))
    bilinear_fail = subst_fail = None  # first witness of each kind
    for a, y0 in instances:
        try:
            rep = build_and_separate(a, y0)
        except SeparationError as exc:
            bilinear_fail = bilinear_fail or str(exc)
            continue
        if subst_fail is None and back_substitute(rep) != rep.trace:
            subst_fail = f"composition {a}, y0 {list(rep.y0)}"
    separation = {
        "instances": len(instances),
        "sampled": sampled,
        "bilinear_ok": bilinear_fail is None,
        "substitution_ok": subst_fail is None,
    }
    if bilinear_fail:
        failed.append(f"separation_bilinear_ok ({bilinear_fail})")
    if subst_fail:
        failed.append(f"separation_substitution_ok ({subst_fail})")
    done("separation")

    stage("appendix_b")
    hessian_ok = conormal_ok = True
    for r in range(dim.rank_bound + 1):
        p = PairPoint.from_class(PiModClass(dim, r, dim.rank_bound - r))
        try:
            rank_ok = hessian_rank_check(p)
        except GenericityError as exc:
            conormal_ok = False
            failed.append(f"conormal_dimension (r={r}: {exc})")
            continue
        if not rank_ok:
            hessian_ok = False
            failed.append(f"hessian_rank (r={r})")
    done("appendix_b")

    wreg_status = "SKIPPED"
    wreg_reports = []
    if not skip_wreg:
        stage("wreg")
        n_failed = len(failed)
        for ri in range(dim.rank_bound + 1):
            for rj in range(ri + 1, dim.rank_bound + 1):
                try:
                    rep = w_regularity_sample(
                        Orbit(dim, ri), Orbit(dim, rj), n_samples=6, seed=seed
                    )
                except ArithmeticError as exc:
                    failed.append(
                        f"w_regularity (inner {ri}, outer {rj}: {exc})")
                    continue
                wreg_reports.append(rep.to_dict())
        if not all(rep["passed"] for rep in wreg_reports):
            failed.append("w_regularity")
        wreg_status = "PASS" if len(failed) == n_failed else "FAIL"
        done("wreg")

    report = {
        "schema_version": SCHEMA_VERSION,
        "dim": [d1, d2],
        "seed": seed,
        "m_matrix": [[_fr(v) for v in row] for row in m_entries],
        "n_matrix": [[_fr(v) for v in row] for row in n_entries],
        "section_ok": section_ok,
        "kernel_ok": kernel_ok,
        "parity_ok": parity_ok,
        "separation": separation,
        "geometry": {
            "hessian_ok": hessian_ok,
            "conormal_ok": conormal_ok,
            "wreg": wreg_status,
            "wreg_reports": wreg_reports,
        },
        "timings": timings,
        "failed_checks": failed,
        "verdict": "PASS" if not failed else "FAIL",
    }
    return report


# ---------------------------------------------------------------------------
# subcommands

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
    if dim.total < 1:
        print("error: d1 + d2 must be at least 1", file=sys.stderr)
        return 1
    rows = _orbit_rows(dim)
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "dim": [dim.d1, dim.d2], "orbits": rows}, indent=2))
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
    dim_bound = args.max_dim
    if args.d1 > dim_bound or args.d2 > dim_bound:
        print(f"error: dimensions above {dim_bound} need --max-dim",
              file=sys.stderr)
        return 1
    if args.d1 + args.d2 < 1:
        print("error: d1 + d2 must be at least 1", file=sys.stderr)
        return 1
    report = run_verify(
        args.d1, args.d2, seed=args.seed, skip_wreg=args.skip_wreg,
        sep_samples=args.sep_samples,
    )
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
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
        positions.append((int(i), int(j)))
    return NormalFormY.of(*positions)


def cmd_separate(args) -> int:
    try:
        comp = tuple(int(v) for v in args.comp.split(","))
    except ValueError:
        print(f"error: bad composition {args.comp!r}", file=sys.stderr)
        return 1
    d1 = sum(1 for v in comp if v == 1)
    d2 = sum(1 for v in comp if v == 2)
    if (d1, d2) != (args.d1, args.d2) or len(comp) != d1 + d2:
        print(f"error: composition {args.comp} has content ({d1}, {d2}), "
              f"expected ({args.d1}, {args.d2})", file=sys.stderr)
        return 1
    shape = flag_shape(comp)
    if not args.all:
        try:
            y0 = _parse_y0(args.y0)
            validate_matching(shape, y0)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        if args.all:
            out = {"schema_version": SCHEMA_VERSION,
                   "reports": [build_and_separate(comp, m).to_dict()
                               for m in enumerate_matchings(shape)]}
        else:
            out = {**build_and_separate(comp, y0).to_dict(),
                   "schema_version": SCHEMA_VERSION}
    except SeparationError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semican",
                     description="Exact checks of the canonical vs "
                                 "semicanonical multiplicity identity "
                                 "for the two-vertex quiver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", parents=[], help="list orbits with invariants")
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
                   help="skip the floating-point stratification probe")
    p.add_argument("--sep-samples", type=int, default=500,
                   help="instance sample size above the exhaustive bound")
    p.add_argument("--max-dim", type=int, default=4,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
