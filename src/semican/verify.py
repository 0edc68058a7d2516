"""The end-to-end verify pipeline: every check for one dimension vector,
each as a timed stage, and the JSON-ready report.  A failed check adds its
witness to `failed_checks`; an exception that escapes a stage becomes the
failed check `<stage> (<ExcType>: <message>)`, so every run ends in a report.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from .bases import (SpanningError, lift_failures, m_coefficients,
                    resolution_rows, sign_twist, structure_failures,
                    transfer_matrix)
from .core import (ConormalComponent, DimVector, Orbit, enumerate_orbits,
                   sign_parity)
from .geom import (GenericityError, PairPoint, hessian_rank_check,
                   w_regularity)
from .separation import (SeparationError, certify, count_instances,
                         instances_at)

SCHEMA_VERSION = 3
# separation checks every instance when there are at most this many, and a
# seeded sample of this many otherwise
SEP_SAMPLES = 500


def run_verify(d1: int, d2: int, seed: int = 1,
               skip_wreg: bool = False) -> dict:
    """Run every check for one dimension vector and assemble the report."""
    dim = DimVector(d1, d2)
    timings: dict[str, float] = {}
    failed: list[str] = []

    @contextmanager
    def stage(name):
        start = time.perf_counter()
        try:
            yield
        except Exception as exc:
            failed.append(f"{name} ({type(exc).__name__}: {exc})")
        finally:
            timings[name] = round((time.perf_counter() - start) * 1000.0, 3)

    rows = None
    with stage("monomial_matrices"):
        rows = resolution_rows(dim)

    transfer = None
    section_ok = kernel_ok = False
    with stage("section_kernel"):
        if rows is not None:
            try:
                transfer = transfer_matrix(dim, rows)
            except SpanningError as exc:
                failed.append(f"spanning (dim ({exc.dim.d1},{exc.dim.d2}), "
                              f"missing ranks {exc.missing})")
            else:
                failed.extend(lift_failures(transfer))
                section_ok = not transfer.section_failures()
                kernel_ok = transfer.mismatch is None

    m_entries = n_entries = ()
    with stage("m_n_matrices"):
        if transfer is not None:
            m = m_coefficients(dim, transfer=transfer, rows=rows)
            n = sign_twist(dim, m)
            failed.extend(structure_failures(m, n))
            m_entries, n_entries = m.entries, n.entries

    parity_ok = False
    with stage("parity"):
        parity_ok = all(sign_parity(o) % 2 == 0 for o in enumerate_orbits(dim))
        if not parity_ok:
            failed.append("sign_parity")

    separation = {"instances": 0, "sampled": False,
                  "bilinear_ok": False, "substitution_ok": False}
    with stage("separation"):
        total = count_instances(dim)
        sampled = total > SEP_SAMPLES
        # `sample` picks the same positions from a range as from a list of
        # its length: these are the instances a sample of the list would be
        indices = (random.Random(seed).sample(range(total), SEP_SAMPLES)
                   if sampled else range(total))
        instances = instances_at(dim, indices)
        bilinear_fail = subst_fail = None  # first witness of each kind
        for a, y0 in instances:
            try:
                restored = certify(a, y0)
            except SeparationError as exc:
                bilinear_fail = bilinear_fail or str(exc)
                continue
            if subst_fail is None and not restored:
                subst_fail = f"composition {a}, y0 {y0.sorted_entries()}"
        if bilinear_fail:
            failed.append(f"separation_bilinear_ok ({bilinear_fail})")
        if subst_fail:
            failed.append(f"separation_substitution_ok ({subst_fail})")
        separation.update(instances=len(indices),
                          sampled=sampled,
                          bilinear_ok=bilinear_fail is None,
                          substitution_ok=subst_fail is None)

    hessian_ok = conormal_ok = False
    with stage("appendix_b"):
        ranks_ok = smooth_ok = True
        for r in range(dim.rank_bound + 1):
            generic = ConormalComponent(Orbit(dim, r)).generic_class
            try:
                rank_ok = hessian_rank_check(PairPoint.from_class(generic))
            except GenericityError as exc:
                smooth_ok = False
                failed.append(f"conormal_dimension (r={r}: {exc})")
                continue
            if not rank_ok:
                ranks_ok = False
                failed.append(f"hessian_rank (r={r})")
        hessian_ok, conormal_ok = ranks_ok, smooth_ok

    wreg_status, wreg_reports = "SKIPPED", []
    if not skip_wreg:
        wreg_status = "FAIL"
        with stage("wreg"):
            wreg_reports, wreg_failed = w_regularity(dim)
            failed.extend(wreg_failed)
            wreg_status = "FAIL" if wreg_failed else "PASS"

    return {
        "schema_version": SCHEMA_VERSION,
        "dim": [d1, d2],
        "seed": seed,
        "m_matrix": [[str(v) for v in row] for row in m_entries],
        "n_matrix": [[str(v) for v in row] for row in n_entries],
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
