"""One run of one workload, in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED MODE RESULT [SPANS]

MODE is ``probe`` (workload imports only, to time set-up), ``run`` (the
workload, untraced) or ``trace`` (the workload with every layer's public
functions wrapped, spans written to SPANS).  The result, a JSON object, goes
to RESULT.  Outputs are only extracted here; ``run.py`` checks them against
the stored reference.

Only ``sys`` and ``time`` are imported before the workload's own imports, so
``t_ready`` marks interpreter start plus exactly what the workload needs.
"""

import sys
import time

_WORKLOAD, _SEED, _MODE = sys.argv[1], int(sys.argv[2]), sys.argv[3]

if _WORKLOAD == "multiplicities-6x6":
    import semican.bases
    import semican.core
else:
    import semican.cli

T_READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import combinations  # noqa: E402


def _rational(v) -> str:
    return str(Fraction(str(v)))


def _matrix(rows) -> list:
    return [[_rational(v) for v in row] for row in rows]


class _Clock:
    """Sums wall and CPU time over the timed calls only."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    @contextlib.contextmanager
    def timed(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c


def _cli(argv: list, clock: _Clock):
    """semican's console entry point with stdout captured, as a user runs it."""
    buf = io.StringIO()
    with clock.timed(), contextlib.redirect_stdout(buf):
        code = semican.cli.main(argv)
    return code, buf.getvalue()


def run_verify(seed: int, clock: _Clock, out: dict) -> dict:
    code, text = _cli(["verify", "--d1", "4", "--d2", "4", "--skip-wreg",
                       "--seed", str(seed)], clock)
    out["output_bytes"] = len(text.encode())
    report = json.loads(text)
    out["stage_ms"] = report.get("timings", {})
    return {"exit": code, "verdict": report.get("verdict"),
            "m_matrix": _matrix(report["m_matrix"]),
            "n_matrix": _matrix(report["n_matrix"])}


def run_multiplicities(seed: int, clock: _Clock, out: dict) -> dict:
    with clock.timed():
        n = semican.bases.cc_multiplicities(semican.core.DimVector(6, 6))
    return {"n": _matrix(n.entries)}


def compositions_4x4(seed: int) -> list:
    """The 70 words with four 1s and four 2s, in a seed-given order."""
    comps = [",".join("1" if i in ones else "2" for i in range(8))
             for ones in combinations(range(8), 4)]
    random.Random(seed).shuffle(comps)
    return comps


def run_separate(seed: int, clock: _Clock, out: dict) -> dict:
    summary = {}
    out["output_bytes"] = 0
    for comp in compositions_4x4(seed):
        code, text = _cli(["separate", "--d1", "4", "--d2", "4",
                           "--comp", comp, "--all"], clock)
        out["output_bytes"] += len(text.encode())
        reports = json.loads(text)["reports"] if code == 0 else []
        summary[comp] = {"exit": code, "reports": sorted(
            [[list(map(list, r["y0"])), list(r["b_shape"])] for r in reports])}
    return dict(sorted(summary.items()))


WORKLOADS = {
    "verify-4x4": run_verify,
    "multiplicities-6x6": run_multiplicities,
    "separate-4x4": run_separate,
}


def main() -> int:
    result = {"t_ready": T_READY, "semican_file": semican.__file__}
    if _MODE != "probe":
        run = WORKLOADS[_WORKLOAD]
        clock = _Clock()
        if _MODE == "trace":
            import tracer
            tr = tracer.Tracer(f"{_WORKLOAD}-{_SEED}-{os.getpid()}")
            result["absent"] = tr.install()
            with tr.root():
                result["outputs"] = run(_SEED, clock, result)
            tr.write(sys.argv[5])
        else:
            result["outputs"] = run(_SEED, clock, result)
        result["wall_s"], result["cpu_s"] = clock.wall, clock.cpu
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(sys.argv[4], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
