import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semican.cli as cli
import semican.geom as geom
import semican.separation as separation
import semican.wreg as wreg
from semican.bases import ExpansionMatrix, spanning_words
from semican.core import DimVector
from semican.separation import enumerate_matchings, flag_shape
from semican.sympoly import BilinearityError, MultiPoly, VarId


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
    assert len(data["orbits"]) == 3
    assert data["schema_version"] == 2


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


def _normalized(report_text: str) -> str:
    data = json.loads(report_text)
    data["timings"] = {}
    return json.dumps(data, indent=2)


def test_verify_matches_golden_file(capsys):
    golden = Path(__file__).parent / "golden" / "verify_1_1.json"
    code, out, _ = run(capsys, "verify", "--d1", "1", "--d2", "1",
                       "--seed", "1", "--skip-wreg")
    assert code == 0
    assert _normalized(out) + "\n" == golden.read_text()


@pytest.mark.parametrize("comp", ["1,2,2,1,1,2,2,1", "2,1,2,1,2,1,2,1"])
def test_separate_all_matches_golden_file(capsys, comp):
    golden = Path(__file__).parent / "golden" / f"separate_4x4_{comp}.json"
    code, out, _ = run(capsys, "separate", "--d1", "4", "--d2", "4",
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


class _Key(str):
    pass


@pytest.mark.parametrize("obj", [
    [], {}, (), "", 0, -12, 1.5, None, True,
    {"a": [], "b": {}, "c": [[], {}], "d": [[[]]]},
    "caf\u00e9 \u2603 \U0001f600 \"quoted\" \\ \n\t\x00",
    {"\u00e9": ["\u2603", 1, True, None, 2.5, float("inf"), float("nan")]},
    [1, True, 0, False], [(1, 2), ("a", "b"), ()],
    {"n": {1: "int key", None: [1, {"x": 2}]}, "v": [VarId("X", 1, 2)]},
    {_Key("sub"): _Key("str"), "deep": [{"k": [1e-300, -0.0, 10 ** 30]}]},
])
def test_dumps_matches_json(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_matches_json_on_reports():
    comp = (1, 2, 1, 2, 2, 1)
    reports = [
        cli.run_verify(2, 2, seed=3),  # float timings, wreg floats, bools
        {"schema_version": cli.SCHEMA_VERSION, "dim": [3, 4],
         "orbits": cli._orbit_rows(DimVector(3, 4))},
        {"schema_version": cli.SCHEMA_VERSION,
         "reports": [separation.build_and_separate(comp, m).to_dict()
                     for m in enumerate_matchings(flag_shape(comp))]},
    ]
    assert reports[0]["geometry"]["wreg_reports"]
    for report in reports:
        assert cli._dumps(report) == json.dumps(report, indent=2)


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


def test_verify_reports_failure_with_exit_2(capsys, monkeypatch):
    def fake_verify(*args, **kwargs):
        return {"schema_version": 1, "failed_checks": ["section_identity"],
                "verdict": "FAIL", "timings": {}}

    monkeypatch.setattr(cli, "run_verify", fake_verify)
    code, _, err = run(capsys, "verify", "--d1", "1", "--d2", "1")
    assert code == 2
    assert "section_identity" in err


def test_verify_lift_failure_names_word(capsys, monkeypatch):
    words = spanning_words(DimVector(2, 2))
    real = cli.monomial_matrix_Pi

    def corrupted(dim, ws):
        mat = real(dim, ws)
        mat[-1][-1] += 1
        return mat

    monkeypatch.setattr(cli, "monomial_matrix_Pi", corrupted)
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL" and not report["kernel_ok"]
    witness = report["failed_checks"][0]
    assert witness.startswith(f"kernel_invariance (word {words[-1]}, class ")
    assert witness in err
    assert "Traceback" not in err


def _patched_entry(real, row, col, value):
    def patched(*args, **kwargs):
        mat = real(*args, **kwargs)
        entries = [list(r) for r in mat.entries]
        entries[row][col] = Fraction(value)
        return ExpansionMatrix(mat.dim, tuple(map(tuple, entries)))
    return patched


def test_verify_m_structure_failure_names_entry(capsys, monkeypatch):
    monkeypatch.setattr(cli, "m_coefficients",
                        _patched_entry(cli.m_coefficients, 2, 1, "1/2"))
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    witness = json.loads(out)["failed_checks"][0]
    assert witness == "m_structure (entry (2, 1): 1/2)"
    assert f"FAILED: {witness}" in err


def test_verify_n_structure_failure_names_entry(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sign_twist",
                        _patched_entry(cli.sign_twist, 0, 2, -3))
    code, out, err = run(capsys, "verify", "--d1", "2", "--d2", "2",
                         "--skip-wreg")
    assert code == 2
    witness = json.loads(out)["failed_checks"][0]
    assert witness == "n_structure (entry (0, 2): -3)"
    assert f"FAILED: {witness}" in err


def test_verify_spanning_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "spanning_words",
                        lambda dim: spanning_words(dim)[:1])
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1",
                         "--skip-wreg")
    assert code == 2
    report = json.loads(out)
    assert report["failed_checks"][0] == "spanning (missing ranks [1])"
    assert not report["section_ok"] and not report["kernel_ok"]
    assert "spanning (missing ranks [1])" in err


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


def test_verify_wreg_probe_failure_names_orbits(capsys, monkeypatch):
    def failing_probe(inner, outer, **kwargs):
        raise ArithmeticError("could not draw a nondegenerate sample")

    monkeypatch.setattr(wreg, "w_regularity_sample", failing_probe)
    code, out, err = run(capsys, "verify", "--d1", "1", "--d2", "1")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    assert report["geometry"]["wreg"] == "FAIL"
    assert "wreg" in report["timings"]
    witness = ("w_regularity (inner 0, outer 1: could not draw a "
               "nondegenerate sample)")
    assert report["failed_checks"] == [witness]
    assert witness in err
    assert "Traceback" not in err


def test_cli_import_does_not_load_numpy():
    # numpy is imported by the wreg stage only, not by the command line
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, semican.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    expected = len(enumerate_matchings(flag_shape((1, 2, 2, 1))))
    assert len(data["reports"]) == expected


def _break_bilinearity(monkeypatch):
    def broken(*args, **kwargs):
        raise BilinearityError("X(1,2)^2")

    monkeypatch.setattr(separation, "bilinear_decompose", broken)


def test_separate_failure_exits_2(capsys, monkeypatch):
    _break_bilinearity(monkeypatch)
    code, out, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                         "--comp", "1,2,2,1", "--y0", "1:1")
    assert code == 2
    assert out == ""
    assert err.startswith("FAILED: ") and "X(1,2)^2" in err


def test_verify_separation_failure_names_instance(capsys, monkeypatch):
    _break_bilinearity(monkeypatch)
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
    monkeypatch.setattr(cli, "back_substitute",
                        lambda rep: MultiPoly.const(1))
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


def test_separate_content_mismatch(capsys):
    code, _, err = run(capsys, "separate", "--d1", "2", "--d2", "2",
                       "--comp", "1,2", "--y0", "")
    assert code == 1
    assert "content" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "orbits", "--d1", "2")[0] == 1  # missing --d2
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys)[0] == 1
