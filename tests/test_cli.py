import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semican.bases as bases
import semican.cli as cli
import semican.geom as geom
import semican.packed as packed
import semican.ratlin as ratlin
import semican.separation as separation
import semican.verify as verify
from semican.bases import ExpansionMatrix
from semican.core import DimVector, compositions
from semican.sympoly import BilinearityError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbits_table(capsys):
    code, out, _ = run(capsys, "orbits", "--d1", "2", "--d2", "2")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip()
            and line.lstrip()[0].isdigit()]
    assert len(rows) == 3


def test_orbits_single_row(capsys):
    code, out, _ = run(capsys, "orbits", "--d1", "0", "--d2", "1")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip()
            and line.lstrip()[0].isdigit()]
    assert len(rows) == 1


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--d1", "2", "--d2", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, indent=2) + "\n"
    assert len(data["orbits"]) == 3
    assert data["schema_version"] == 3


def test_orbits_csv(capsys):
    code, out, _ = run(capsys, "orbits", "--d1", "2", "--d2", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,")
    assert len(lines) == 4


def test_verify_small_dims(capsys):
    for d1, d2 in [(1, 1), (2, 1)]:
        code, out, _ = run(capsys, "verify", "--d1", str(d1), "--d2", str(d2))
        assert code == 0
        report = json.loads(out)
        # float timings, bools and wreg_reports, as json.dumps writes them
        assert out == json.dumps(report, indent=2) + "\n"
        assert report["geometry"]["wreg_reports"]
        assert report["verdict"] == "PASS"
        n = len(report["m_matrix"])
        assert report["m_matrix"] == [
            ["1" if i == j else "0" for j in range(n)] for i in range(n)
        ]
        assert report["section_ok"] and report["kernel_ok"]
        assert report["separation"]["bilinear_ok"]
        assert report["geometry"]["wreg"] == "PASS"


def test_verify_degenerate_dimension(capsys):
    code, out, _ = run(capsys, "verify", "--d1", "0", "--d2", "2",
                       "--skip-wreg")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["m_matrix"] == [["1"]]


def test_verify_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--d1", "1", "--d2", "1",
                       "--skip-wreg", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] == "PASS"
    assert report["geometry"]["wreg"] == "SKIPPED"


def test_verify_unwritable_out_is_input_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1",
                         "--skip-wreg", "--out", str(out_file))
    assert code == 1 and out == ""
    assert err == (f"error: cannot write {out_file}: "
                   "No such file or directory\n")


def _normalized(report_text: str) -> str:
    data = json.loads(report_text)
    data["timings"] = {}
    return json.dumps(data, indent=2)


def test_verify_matches_golden_file(capsys):
    golden = Path(__file__).parent / "golden" / "verify_1_1.json"
    code, out, _ = run(capsys, "verify", "--d1", "1", "--d2", "1",
                       "--seed", "1", "--skip-wreg")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert _normalized(out) + "\n" == golden.read_text()


@pytest.mark.parametrize("comp", ["1,2,2,1,1,2,2,1", "2,1,2,1,2,1,2,1"])
def test_separate_all_matches_golden_file(capsys, comp):
    golden = Path(__file__).parent / "golden" / f"separate_4x4_{comp}.json"
    code, out, _ = run(capsys, "separate", "--d1", "4", "--d2", "4",
                       "--comp", comp, "--all")
    assert code == 0
    assert out == golden.read_text()


def test_separate_all_matches_non_square_golden_file(capsys):
    comp = "1,2,2,1,2,2,1,2"
    golden = Path(__file__).parent / "golden" / f"separate_3x5_{comp}.json"
    code, out, _ = run(capsys, "separate", "--d1", "3", "--d2", "5",
                       "--comp", comp, "--all")
    assert code == 0
    assert out == golden.read_text()


def test_separate_all_golden_with_warm_caches(capsys):
    # shapes and variables memoised by earlier runs in the process change
    # no byte of a later report
    first, second = "1,2,2,1,1,2,2,1", "2,1,2,1,2,1,2,1"
    for comp in (first, second, first):
        golden = Path(__file__).parent / "golden" / f"separate_4x4_{comp}.json"
        code, out, _ = run(capsys, "separate", "--d1", "4", "--d2", "4",
                           "--comp", comp, "--all")
        assert code == 0
        assert out == golden.read_text()


@pytest.mark.parametrize("comp", ["1,2,2,1,1,2,2,1", "2,1,2,1,2,1,2,1"])
def test_separate_y0_matches_all_report(capsys, comp):
    # each --y0 report is its --all report plus schema_version, in the same
    # key order and byte for byte
    golden = Path(__file__).parent / "golden" / f"separate_4x4_{comp}.json"
    reports = json.loads(golden.read_text())["reports"]
    assert len(reports) == len(
        separation.matchings(map(int, comp.split(","))))
    for report in reports:
        spec = ",".join(f"{i}:{j}" for i, j in report["y0"])
        code, out, _ = run(capsys, "separate", "--d1", "4", "--d2", "4",
                           "--comp", comp, "--y0", spec)
        assert code == 0
        expected = {**report, "schema_version": cli.SCHEMA_VERSION}
        assert out == json.dumps(expected, indent=2) + "\n", spec


def test_separate_y0_matches_golden_file(capsys):
    comp, spec = "1,2,2,1,1,2,2,1", "1:2,3:3,2:4"
    golden = Path(__file__).parent / "golden" / f"separate_4x4_{comp}_y0.json"
    code, out, _ = run(capsys, "separate", "--d1", "4", "--d2", "4",
                       "--comp", comp, "--y0", spec)
    assert code == 0
    assert out == golden.read_text()


def test_separate_text_is_json_dumps_of_its_reports(capsys):
    # the report texts are written without a dict in between: they must be
    # the bytes json.dumps writes of what they parse to, at every depth
    for d1 in range(8):
        for d2 in range(8 - d1):
            for a in compositions(d1, d2) if d1 + d2 else ():
                comp = ",".join(map(str, a))
                code, out, _ = run(capsys, "separate", "--d1", str(d1),
                                   "--d2", str(d2), "--comp", comp, "--all")
                assert code == 0
                data = json.loads(out)
                assert out == json.dumps(data, indent=2) + "\n", comp
                assert separation.report_dicts(
                    a, separation.matchings(a)) == data["reports"], comp
                if (d1, d2) != (3, 3):
                    continue
                for report in data["reports"]:
                    spec = ",".join(f"{i}:{j}" for i, j in report["y0"])
                    code, out, _ = run(capsys, "separate", "--d1", "3",
                                       "--d2", "3", "--comp", comp,
                                       "--y0", spec)
                    assert code == 0
                    expected = {**report, "schema_version": cli.SCHEMA_VERSION}
                    assert out == json.dumps(expected, indent=2) + "\n", spec


def test_verify_reports_byte_stable(capsys):
    code, first, _ = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--seed", "7", "--skip-wreg")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--d1", "2", "--d2", "2",
                          "--seed", "7", "--skip-wreg")
    assert code == 0
    assert _normalized(first) == _normalized(second)


def test_verify_dimension_bound(capsys):
    code, _, err = run(capsys, "verify", "--d1", "9", "--d2", "1")
    assert code == 1
    assert "max-dim" in err


def test_verify_6x6_by_default_in_bounded_memory():
    # the separation sample is drawn by index, so no instance list of the
    # 845691 instances of (6, 6) is built
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "semican.cli", "verify", "--d1", "6", "--d2",
         "6", "--skip-wreg"], env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    assert proc.returncode == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["separation"]["instances"] == 500
    assert usage.ru_maxrss < 100 * 1024  # KiB on Linux


def test_verify_reports_failure_with_exit_2(capsys, monkeypatch):
    def fake_verify(*args, **kwargs):
        return {"schema_version": 1, "failed_checks": ["section_identity"],
                "verdict": "FAIL", "timings": {}}

    monkeypatch.setattr(cli, "run_verify", fake_verify)
    code, _, err = run(capsys, "verify", "--d1", "1", "--d2", "1")
    assert code == 2
    assert "section_identity" in err


def test_verify_lift_failure_names_word(capsys, monkeypatch):
    # a corrupted pair-side count of the letter 2^1 at class (0, 0) of the
    # diagonal (2, 2), which T_(2,2) is solved from: the identities there
    # no longer fit one T, and the witness names the dimension, the
    # letter, the orbit and the class
    dim = DimVector(2, 2)
    real = bases.step_matrix

    def corrupted(sub, vertex, side):
        steps = real(sub, vertex, side)
        if (sub, vertex, side) != (dim, 2, "Pi"):
            return steps
        (child, n), *rest = steps[0]
        return (((child, n + 1), *rest),) + steps[1:]

    monkeypatch.setattr(bases, "step_matrix", corrupted)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL" and not report["kernel_ok"]
    assert report["section_ok"]
    assert report["failed_checks"] == [
        "kernel_invariance (dim (2,2), letter 2^1, orbit 0, class (0,0): "
        "3 != 2)"]
    witness = report["failed_checks"][0]
    assert re.fullmatch(r"kernel_invariance \(dim \(2,2\), letter [12]\^\d, "
                        r"orbit \d, class \(\d,\d\): \S+ != \S+\)", witness)
    assert f"FAILED: {witness}" in err
    assert "Traceback" not in err


def test_verify_corrupted_step_matrix_exits_2(capsys, monkeypatch):
    # every pair-side step matrix off by one in its first count: T is solved
    # from them, so its (0, 0) column is no longer the unit vector, and the
    # first identity, at (0, 1), fails
    real = bases.step_matrix

    def corrupted(dim, vertex, side):
        steps = real(dim, vertex, side)
        if side != "Pi":
            return steps
        (child, n), *rest = steps[0]
        return (((child, n + 1), *rest),) + steps[1:]

    monkeypatch.setattr(bases, "step_matrix", corrupted)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert not report["section_ok"] and not report["kernel_ok"]
    assert report["failed_checks"] == [
        "section_identity (r=0)",
        "kernel_invariance (dim (0,1), letter 2^1, orbit 0, class (0,0): "
        "2 != 1)"]
    assert "FAILED: section_identity (r=0)" in err


def _patched_entry(real, row, col, value):
    def patched(*args, **kwargs):
        mat = real(*args, **kwargs)
        entries = [list(r) for r in mat.entries]
        entries[row][col] = Fraction(value)
        return ExpansionMatrix(mat.dim, tuple(map(tuple, entries)))
    return patched


def test_verify_m_structure_failure_names_entry(capsys, monkeypatch):
    monkeypatch.setattr(verify, "m_coefficients",
                        _patched_entry(verify.m_coefficients, 2, 1, "1/2"))
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    witness = json.loads(out)["failed_checks"][0]
    assert witness == "m_structure (entry (2, 1): 1/2)"
    assert f"FAILED: {witness}" in err


def test_verify_n_structure_failure_names_entry(capsys, monkeypatch):
    monkeypatch.setattr(verify, "sign_twist",
                        _patched_entry(verify.sign_twist, 0, 2, -3))
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    witness = json.loads(out)["failed_checks"][0]
    assert witness == "n_structure (entry (0, 2): -3)"
    assert f"FAILED: {witness}" in err


def test_verify_spanning_failure(capsys, monkeypatch):
    real = bases.resolution_words
    monkeypatch.setattr(bases, "resolution_words", lambda dim: real(dim)[:1])
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    witness = "spanning (dim (1,1), missing ranks [1])"
    assert report["failed_checks"][0] == witness
    assert not report["section_ok"] and not report["kernel_ok"]
    assert f"FAILED: {witness}" in err


def test_verify_conormal_failure_names_class(capsys, monkeypatch):
    monkeypatch.setattr(geom, "conormal_dimension", lambda p: 0)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["geometry"]["conormal_ok"] is False
    witness = report["failed_checks"][0]
    assert witness == ("conormal_dimension (r=0: pair is not a smooth point "
                       "of one component)")
    assert witness in err
    assert "Traceback" not in err


def test_verify_wreg_failure_names_orbit_and_pair(capsys, monkeypatch):
    # a zero tangent rank fails the premise of orbit 1 and of the pair whose
    # line runs through it; orbit 0 has tangent rank 0 anyway
    monkeypatch.setattr(geom, "action_rank", lambda z: 0)
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["geometry"]["wreg"] == "FAIL"
    assert "wreg" in report["timings"]
    assert report["failed_checks"] == [
        "w_regularity (orbit 1: tangent rank 0, expected 1)",
        "w_regularity (inner 0, outer 1: tangent rank 0 at t = 1, "
        "expected 1)"]
    assert report["geometry"]["wreg_reports"] == [
        {"inner_rank": 0, "outer_rank": 1, "inner_tangent_rank": 0,
         "line_ranks": [1, 1, 1], "outer_tangent_ranks": [0, 0, 0],
         "passed": False}]
    assert f"FAILED: {report['failed_checks'][0]}" in err
    assert "Traceback" not in err


def test_verify_wreg_frontier_failure_names_pair(capsys, monkeypatch):
    # at t = 0 the line is at the inner representative, of the wrong rank
    monkeypatch.setattr(geom, "LINE_STEPS", (1, 0))
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2")
    assert code == 2
    report = json.loads(out)
    assert report["failed_checks"] == [
        f"w_regularity (inner {ri}, outer {rj}: rank {ri} at t = 0, "
        f"expected {rj})" for ri, rj in [(0, 1), (0, 2), (1, 2)]]
    assert f"FAILED: {report['failed_checks'][0]}" in err
    assert "Traceback" not in err


def test_verify_refuses_dimensions_the_exponent_fields_cannot_hold(capsys):
    code, out, err = run(capsys, "verify", "--d1", "11", "--d2", "12",
                         "--max-dim", "12", "--skip-wreg")
    assert code == 1 and out == ""
    assert err == ("error: min(d1, d2) = 11 is above 10, the largest the "
                   "separation's exponent fields hold\n")


def test_separate_refuses_dimensions_the_exponent_fields_cannot_hold(capsys):
    # the same message as verify, before the kernel's own degree-bound error
    comp = ",".join(["1"] * 11 + ["2"] * 11)
    code, out, err = run(capsys, "separate", "--d1", "11", "--d2", "11",
                         "--comp", comp, "--y0", "1:1")
    assert code == 1 and out == ""
    assert err == ("error: min(d1, d2) = 11 is above 10, the largest the "
                   "separation's exponent fields hold\n")


def test_verify_stage_exception_becomes_failed_check(capsys, monkeypatch):
    def singular(basis, n):
        raise ratlin.InconsistentSystem(0)

    monkeypatch.setattr(ratlin, "read_off", singular)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    witness = report["failed_checks"][0]
    assert witness.startswith("section_kernel (InconsistentSystem: ")
    assert list(report["timings"]) == [
        "monomial_matrices", "section_kernel", "m_n_matrices", "parity",
        "separation", "appendix_b"]
    assert f"FAILED: {witness}" in err
    assert "Traceback" not in err


def test_verify_non_value_error_in_stage_exits_2(capsys, monkeypatch):
    def dividing(dim, m):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(verify, "sign_twist", dividing)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["failed_checks"] == [
        "m_n_matrices (ZeroDivisionError: division by zero)"]
    assert report["m_matrix"] == [] and "m_n_matrices" in report["timings"]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--d1", "-1", "--d2", "1", "--skip-wreg"],
    ["verify", "--d1", "5", "--d2", "-5", "--skip-wreg"],
    ["separate", "--d1", "-1", "--d2", "3", "--comp", "2,2", "--all"],
    ["orbits", "--d1", "-1", "--d2", "1"],
])
def test_verify_negative_dimension_is_usage_error(capsys, argv):
    # every command reports a negative dimension before any other check
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: negative dimension in ({argv[2]}, {argv[4]})\n"


def test_verify_sep_samples_option_is_gone(capsys):
    code, out, err = run(capsys, "verify", "--d1", "4", "--d2", "4",
                         "--skip-wreg", "--sep-samples", "0")
    assert code == 1
    assert out == ""
    assert "--sep-samples" in err


@pytest.mark.parametrize("d1, d2, instances, sampled", [
    (4, 1, 15, False),   # every instance, though a dimension exceeds 3
    (4, 4, 500, True),   # 500 of 2835
])
def test_verify_samples_only_above_sep_samples(capsys, d1, d2, instances,
                                               sampled):
    code, out, _ = run(capsys, "verify", "--d1", str(d1), "--d2", str(d2),
                       "--skip-wreg")
    assert code == 0
    separation = json.loads(out)["separation"]
    assert separation["instances"] == instances
    assert separation["sampled"] is sampled


def test_verify_sampled_iff_fewer_instances_checked(monkeypatch):
    # (4,1) has 15 instances
    for bound, instances, sampled in [(15, 15, False), (14, 14, True)]:
        monkeypatch.setattr(verify, "SEP_SAMPLES", bound)
        separation = verify.run_verify(4, 1, skip_wreg=True)["separation"]
        assert (separation["instances"], separation["sampled"]) == \
            (instances, sampled)


def test_cli_import_does_not_load_numpy():
    # the library is exact end to end: neither the command line nor
    # `separate` nor `verify`, with or without its wreg stage, loads numpy.
    # Nor do they, or the library modules, load dataclasses or the inspect
    # module it imports, which together cost every process about 20 ms of
    # set-up.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('numpy', 'dataclasses', 'inspect'))\n"
        "import semican.bases, semican.core\n"
        "print(loaded())\n"
        "from semican.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['separate', '--d1', '2', '--d2', '2',"
        " '--comp', '1,2,2,1', '--all']) == 0\n"
        "    assert main(['verify', '--d1', '2', '--d2', '2',"
        " '--skip-wreg']) == 0\n"
        "    assert main(['verify', '--d1', '2', '--d2', '2']) == 0\n"
        "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n") == ["[]", "[]", ""]


def test_separate_single(capsys):
    code, out, _ = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2,2,1", "--y0", "1:1")
    assert code == 0
    data = json.loads(out)
    assert data["trace_poly"] == "M(2,1)*X(1,2)"


def test_separate_empty_y0(capsys):
    code, out, _ = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2,2,1", "--y0", "")
    assert code == 0
    data = json.loads(out)
    assert data["y0"] == []


def test_separate_all(capsys):
    code, out, _ = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2,2,1", "--all")
    assert code == 0
    data = json.loads(out)
    expected = len(separation.matchings((1, 2, 2, 1)))
    assert len(data["reports"]) == expected


def _broken(*args, **kwargs):
    raise BilinearityError("X(1,2)^2")


def test_separate_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(packed, "check_bilinear", _broken)
    code, out, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                         "--comp", "1,2,2,1", "--y0", "1:1")
    assert code == 2
    assert out == ""
    assert err.startswith("FAILED: ") and "X(1,2)^2" in err


def test_separate_into_a_closed_pipe_exits_141():
    # `separate ... --all | head -1`: the reader takes 10 bytes of the
    # 100 KB of reports and closes the pipe; no traceback, and not the
    # usage-error code
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "semican.cli", "separate", "--d1", "4",
         "--d2", "4", "--comp", "1,2,1,2,1,2,1,2", "--all"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
def test_separate_into_a_closed_pipe_closes_what_it_opens(monkeypatch):
    # in one process, each exit 141 leaves the number of open descriptors
    # as it was; the handler points the pipe's descriptor at devnull, so
    # each call gets a new pipe
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            assert cli.main(["separate", "--d1", "3", "--d2", "3", "--comp",
                             "1,2,1,2,1,2", "--all"]) == 141
            assert len(os.listdir("/proc/self/fd")) == before


def test_separate_all_failure_prints_no_report(capsys, monkeypatch):
    # the third instance of the composition fails: the two reports before
    # it are not printed either
    real, calls = packed.check_bilinear, []

    def third_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            _broken()
        real(*args)

    monkeypatch.setattr(packed, "check_bilinear", third_fails)
    code, out, err = run(capsys, "separate", "--d1", "4", "--d2", "4",
                         "--comp", "1,2,2,1,1,2,2,1", "--all")
    assert code == 2
    assert out == ""
    assert err.startswith("FAILED: ") and "X(1,2)^2" in err
    assert len(calls) == 3


def test_verify_separation_failure_names_instance(capsys, monkeypatch):
    monkeypatch.setattr(packed, "check_bilinear", _broken)
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["separation"]["bilinear_ok"] is False
    witness = report["failed_checks"][0]
    assert witness == ("separation_bilinear_ok (separation failed on (1, 2) "
                       "with y0 []: monomial X(1,2)^2 is not bilinear in "
                       "(W1, W2))")
    assert witness in err


def test_verify_substitution_failure_names_instance(capsys, monkeypatch):
    # nothing is coupled at (1, 1), so the separation substitutes nothing
    # and the one call is certify's back substitution
    monkeypatch.setattr(packed, "substitute", lambda p, mapping: {0: 1})
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["separation"]["substitution_ok"] is False
    witness = report["failed_checks"][0]
    assert witness == "separation_substitution_ok (composition (1, 2), y0 [])"
    assert witness in err


def test_separate_inadmissible_y0(capsys):
    code, _, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2,2,1", "--y0", "2:1")
    assert code == 1
    assert "flag stability" in err
    code, out, err = run(capsys, "separate", "--d1", "1", "--d2", "1",
                         "--comp", "1,2", "--y0", "0:1")
    assert code == 1 and out == ""
    assert err == "error: y0 entry (0,1) out of range for (1, 1)\n"


@pytest.mark.parametrize("spec", ["1", "1:x", "1:2:3"])
def test_separate_malformed_y0_names_entry(capsys, spec):
    code, out, err = run(capsys, "separate", "--d1", "1", "--d2", "1",
                         "--comp", "1,2", "--y0", spec)
    assert code == 1 and out == ""
    assert err == f"error: bad y0 entry '{spec}' (expected i:j)\n"


def test_separate_repeated_y0_entry(capsys):
    code, out, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                         "--comp", "1,2,2,1", "--y0", "1:1,1:1")
    assert code == 1 and out == ""
    assert err == "error: repeated row or column in [(1, 1), (1, 1)]\n"


def test_separate_content_mismatch(capsys):
    code, _, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2", "--y0", "")
    assert code == 1
    assert "content" in err


@pytest.mark.parametrize("comp", ["1,3", "0,1,2"])
@pytest.mark.parametrize("mode", [["--all"], ["--y0", ""]])
def test_separate_composition_letters(capsys, comp, mode):
    # a bad letter is named as such, not as a content mismatch
    code, out, err = run(capsys, "separate", "--d1", "1", "--d2", "1",
                         "--comp", comp, *mode)
    assert code == 1 and out == ""
    assert err == f"error: composition letters must be 1 or 2: {comp}\n"


@pytest.mark.parametrize("argv", [
    ["orbits", "--d1", "0", "--d2", "0"],
    ["verify", "--d1", "0", "--d2", "0", "--skip-wreg"],
    ["separate", "--d1", "0", "--d2", "0", "--comp", "", "--all"],
    ["separate", "--d1", "0", "--d2", "0", "--comp", "", "--y0", ""],
])
def test_empty_dimension_vector_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: d1 + d2 must be at least 1\n"


def test_usage_error_exit_code(capsys):
    assert run(capsys, "orbits", "--d1", "2")[0] == 1  # missing --d2
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1


def test_successive_main_calls_match_fresh_runs(capsys):
    # main builds its parser once and reuses it: a sequence of calls in one
    # process, across subcommands and after usage errors, gives each call
    # the output of a fresh interpreter
    calls = [
        ["orbits", "--d1", "2", "--d2", "2", "--format", "csv"],
        ["separate", "--d1", "2", "--d2", "2", "--comp", "1,2,2,1", "--all"],
        ["orbits", "--d1", "2"],
        ["orbits", "--d1", "2", "--d2", "1"],
        ["separate", "--d1", "2", "--d2", "2", "--comp", "1,2,2,1",
         "--y0", "1:1", "--all"],
        ["separate", "--d1", "2", "--d2", "2", "--comp", "1,2,2,1",
         "--y0", "1:1"],
        ["verify", "--d1", "1", "--d2", "2", "--skip-wreg"],
        ["nonsense"],
        ["verify", "--d1", "2", "--d2", "1", "--skip-wreg", "--seed", "3"],
    ]

    def untimed(out):
        # a verify report's timings differ from run to run
        if '"timings"' not in out:
            return out
        report = json.loads(out)
        del report["timings"]
        return report

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    codes = []
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "semican.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (code, untimed(out), err) == \
            (fresh.returncode, untimed(fresh.stdout), fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 1, 0, 1, 0, 0, 1, 0]
    assert cli._parser() is cli._parser()
