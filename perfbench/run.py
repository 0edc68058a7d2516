"""semican benchmark: one workload, run for a fixed time, from the repo root.

    python3 perfbench/run.py --workload verify-4x4 --seed 1 --seconds 44 --trace 0

Every run of the workload is a fresh interpreter (``child.py``), started one
after another from this process, because the ``qcount`` memo and the
on-disk matrix cache would otherwise make later runs cheaper than any user's.
Each child gets a fresh, empty ``SEMICAN_CACHE_DIR``.  The package is taken
from ``src/`` of this checkout; the run fails if it is missing.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics.  Each
metric is printed by name with its unit; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (stamp, samples, absent names) and the traced spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify-4x4", "multiplicities-6x6", "separate-4x4")
# Stage names of the verify report at the time the benchmark was written.
STAGES = ("monomial_matrices", "m_n_matrices", "section_kernel", "parity",
          "separation", "appendix_b")
SETUP_PROBES = 5      # import-only children per run, for setup_s
MIN_SAMPLES = 3       # untraced workload children per --trace 0 run
CHILD_TIMEOUT = 150.0
DEADLINE = 170.0      # no child may end later than this after the start


def end_to_end_spec() -> list:
    return [("wall_s", "s", "lower"), ("setup_s", "s", "lower"),
            ("peak_rss_mb", "MB", "lower")]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer, names in tracer.TARGETS.items():
        for name in names:
            spec += [(f"{layer}.{name}.calls", "count", "lower"),
                     (f"{layer}.{name}.self_s", "s", "lower"),
                     (f"{layer}.{name}.errors", "count", "lower")]
        spec += [(f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.share", "ratio", "lower")]
    spec += [("qcount.eval_word.distinct_ratio", "ratio", "higher"),
             ("ratlin.cells", "count", "lower"),
             ("separation.instances", "count", "higher"),
             ("cli.output_bytes", "B", "lower")]
    spec += [(f"cli.stage.{s}_ms", "ms", "lower") for s in STAGES]
    spec += [("proc.cpu_s", "s", "lower"), ("proc.wait_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return spec


def run_stamp() -> dict:
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "loadavg_before": os.getloadavg()}


class Runner:
    """Starts children one after another and checks what they report."""

    def __init__(self, workload: str, seed: int, tmp: Path, reference):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.reference = reference
        self.start = time.monotonic()
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32),
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path
                                                else ""))

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str) -> dict:
        """One child run; returns its sample with ``ok`` and ``why``."""
        self.count += 1
        result = self.tmp / f"result-{self.count}.json"
        spans = OUT / f"spans-{self.workload}-seed{self.seed}-{self.count}.json.gz"
        cache = self.tmp / f"cache-{self.count}"
        env = dict(self.env, SEMICAN_CACHE_DIR=str(cache))
        argv = [sys.executable, str(HERE / "child.py"), self.workload,
                str(self.seed), mode, str(result)]
        if mode == "trace":
            argv.append(str(spans))
        timeout = min(CHILD_TIMEOUT, DEADLINE - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return {"ok": False, "why": f"timeout after {timeout:.0f} s"}
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"ok": False, "why": f"exit {proc.returncode}: "
                                        + " | ".join(tail)}
        sample = json.loads(result.read_text())
        sample["setup_s"] = sample.pop("t_ready") - spawned
        sample["ok"], sample["why"] = True, ""
        if not Path(sample["semican_file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"semican imported from {sample['semican_file']}, "
                             f"not from {SRC}")
        if mode == "probe":
            return sample
        witness = first_difference(sample.pop("outputs"), self.reference)
        if witness:
            sample["ok"], sample["why"] = False, f"output differs at {witness}"
        if mode == "trace":
            sample["trace"] = tracer.self_times(str(spans))
        return sample


def first_difference(got, want, path="") -> str:
    """Path of the first place where two JSON values differ, or ''."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                return f"{path}/{key} (missing)"
            found = first_difference(got[key], want[key], f"{path}/{key}")
            if found:
                return found
        return ""
    if isinstance(want, list) and isinstance(got, list) \
            and len(want) == len(got):
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_difference(g, w, f"{path}/{i}")
            if found:
                return found
        return ""
    return "" if got == want else f"{path or '/'}: {got!r} != {want!r}"


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(samples: list, setups: list) -> dict:
    return {"wall_s": median([s["wall_s"] for s in samples]),
            "setup_s": median(setups),
            "peak_rss_mb": median([s["maxrss_kb"] * 1024 / 1e6
                                   for s in samples])}


def layer_metrics(traced: dict, wall: float) -> dict:
    """Per-layer metrics of one traced child, from its derived self times."""
    spans, counts = traced["spans"], traced["counts"]
    none = {"calls": 0, "self_s": 0.0, "errors": 0}
    m = {}
    for layer, names in tracer.TARGETS.items():
        layer_self = 0.0
        for name in names:
            entry = spans.get(f"{layer}.{name}", none)
            for key in ("calls", "self_s", "errors"):
                m[f"{layer}.{name}.{key}"] = entry[key]
            layer_self += entry["self_s"]
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.share"] = layer_self / wall if wall else 0.0
    calls = spans.get("qcount.eval_word", none)["calls"]
    m["qcount.eval_word.distinct_ratio"] = (
        counts["qcount.eval_word.distinct"] / calls if calls else 0.0)
    m["ratlin.cells"] = counts["ratlin.cells"]
    m["separation.instances"] = counts["separation.instances"]
    return m


def per_layer_metrics(untraced: list, traced: list) -> dict:
    per_child = [dict(layer_metrics(s["trace"], s["wall_s"]),
                      **{"cli.output_bytes": s.get("output_bytes", 0)})
                 for s in traced]
    # median_low keeps counts whole and every value one that was measured.
    m = {name: statistics.median_low([c[name] for c in per_child])
         for name in per_child[0]} if per_child else {}
    for stage in STAGES:
        m[f"cli.stage.{stage}_ms"] = median(
            [s["stage_ms"][stage] for s in untraced
             if stage in s.get("stage_ms", {})])
    m["proc.cpu_s"] = median([s["cpu_s"] for s in untraced])
    m["proc.wait_s"] = median([s["wall_s"] - s["cpu_s"] for s in untraced])
    m["trace.overhead_s"] = (median([s["wall_s"] for s in traced])
                             - median([s["wall_s"] for s in untraced])
                             if traced and untraced else 0.0)
    return m


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def measure(args, runner: Runner) -> tuple:
    """All children of one run: set-up probes, then the workload.

    Workload rounds (one untraced child, plus one traced child under
    --trace 1) repeat while the next one is expected to end within
    --seconds, after a minimum number of rounds.
    """
    setups = []
    for i in range(SETUP_PROBES + 1):
        probe = runner.child("probe")
        if not probe["ok"]:
            raise SystemExit(f"set-up probe failed: {probe['why']}")
        if i:  # the first probe only warms the page cache
            setups.append(probe["setup_s"])
    modes = ("run", "trace") if args.trace else ("run",)
    min_rounds = 1 if args.trace else MIN_SAMPLES
    runs, rounds, last = [], 0, 0.0
    while True:
        began = runner.elapsed()
        if rounds >= min_rounds and began + last > args.seconds:
            break
        if rounds and began + last > DEADLINE:
            break
        for mode in modes:
            runs.append(dict(runner.child(mode), mode=mode))
        rounds += 1
        last = runner.elapsed() - began
    return setups, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semican" / "__init__.py").is_file():
        print(f"error: no semican package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    stamp = run_stamp()
    # Children import from bytecode, as from an installed package, even where
    # PYTHONDONTWRITEBYTECODE keeps them from writing it themselves.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "semican")], check=True,
                   stdout=subprocess.DEVNULL)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        runner = Runner(args.workload, args.seed, tmp, reference)
        setups, runs = measure(args, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stamp["loadavg_after"] = os.getloadavg()

    failed = [s for s in runs if not s["ok"]]
    for s in failed:
        print(f"FAILED run: {s['why']}", file=sys.stderr)
    ok = [s for s in runs if s["ok"]]
    untraced = [s for s in ok if s["mode"] == "run"]
    traced = [s for s in ok if s["mode"] == "trace"]
    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        spec = per_layer_spec()
    else:
        metrics = end_to_end_metrics(
            untraced, setups + [s["setup_s"] for s in untraced])
        spec = end_to_end_spec()
    metrics = {name: {"value": metrics.get(name, 0), "unit": unit}
               for name, unit, _ in spec}

    walls = [s["wall_s"] for s in untraced]
    absent = sorted({n for s in traced for n in s.get("absent", [])}
                    | {f"cli.stage.{n}" for s in untraced if "stage_ms" in s
                       for n in STAGES if n not in s["stage_ms"]})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
              "setup_samples": setups, "wall_samples": walls,
              "wall_tail": tail_percentile(walls), "absent": absent,
              "stage_ms": [s.get("stage_ms") for s in untraced],
              "failures": [s["why"] for s in failed], "metrics": metrics}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("stamp " + json.dumps(stamp))
    print(f"wall samples {len(walls)}, tail percentile "
          f"{record['wall_tail'] or 'n/a (fewer than 11 samples)'}")
    print(f"fail_ratio {len(failed)}/{len(runs)}")
    if absent:
        print("absent " + " ".join(absent))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    correct = not failed and bool(untraced) and bool(traced or not args.trace)
    print(json.dumps({"correct": correct,
                      "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
