"""Every report pinned byte for byte.

`golden/verify_reports.json` holds the `verify --skip-wreg` report, timings
removed, of every dimension vector (d1, d2) with 1 <= d1 + d2 and
d1, d2 <= 4, keyed by "d1,d2"; `golden/verify_5_5.json` holds the one of
(5, 5), which samples 500 of its 45297 separation instances.
SEPARATE_4X4_SHA256 is the sha256 of the `separate --d1 4 --d2 4 --comp <c>
--all` outputs of all 70 compositions, concatenated in `compositions(4, 4)`
order, and SEPARATE_3X5_SHA256 the same of the 56 compositions of (3, 5).
`tests/test_cli.py` compares more pins with the command line:
`golden/verify_1_1.json`, the `verify --d1 1 --d2 1 --skip-wreg` report
with empty timings, the `separate --all` output of two compositions of
(4, 4) in `golden/separate_4x4_<c>.json` and of one of (3, 5) in
`golden/separate_3x5_<c>.json`, and the `separate --y0` output of one
instance of (4, 4) in `golden/separate_4x4_<c>_y0.json`.  A change that
alters a report on purpose regenerates all of them with `python
tests/test_golden.py`, which prints the new SEPARATE_4X4_SHA256 and
SEPARATE_3X5_SHA256, and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import semican.cli as cli
from semican.core import compositions
from semican.separation import matchings, report_dicts
from semican.verify import run_verify

GOLDEN = Path(__file__).parent / "golden"
VERIFY_REPORTS = GOLDEN / "verify_reports.json"
VERIFY_5_5 = GOLDEN / "verify_5_5.json"
VERIFY_1_1 = GOLDEN / "verify_1_1.json"
SEPARATE_4X4_PINNED = ("1,2,2,1,1,2,2,1", "2,1,2,1,2,1,2,1")
SEPARATE_4X4_SHA256 = (
    "1d1e754d2d4380a87904b347a86bab677dab2c6883bbf47ef8de553cc49f5a2e")
SEPARATE_3X5_PINNED = "1,2,2,1,2,2,1,2"
SEPARATE_3X5_SHA256 = (
    "444d46c6abc3f858af66234c30e6cf2d34cefaa26990546e049efd4e21e6161c")
SEPARATE_4X4_Y0_PINNED = ("1,2,2,1,1,2,2,1", "1:2,3:3,2:4")


def verify_reports() -> dict:
    out = {}
    for d1 in range(5):
        for d2 in range(5):
            if d1 + d2:
                report = run_verify(d1, d2, skip_wreg=True)
                del report["timings"]
                out[f"{d1},{d2}"] = report
    return out


def verify_5_5_report() -> dict:
    report = run_verify(5, 5, skip_wreg=True)
    del report["timings"]
    return report


def cli_output(*argv: str) -> str:
    """The stdout of one command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def separate_all(d1: int, d2: int, comp: str) -> str:
    return cli_output("separate", "--d1", str(d1), "--d2", str(d2),
                      "--comp", comp, "--all")


def separate_sha256(d1: int, d2: int) -> str:
    digest = hashlib.sha256()
    for comp in compositions(d1, d2):
        digest.update(separate_all(d1, d2, ",".join(map(str, comp))).encode())
    return digest.hexdigest()


def _assert_plain(obj):
    # json writes any tuple subclass (a namedtuple value type) as a list, so
    # one reaching a report would pass unseen
    if isinstance(obj, dict):
        for v in obj.values():
            _assert_plain(v)
    elif isinstance(obj, (list, tuple)):
        assert type(obj) in (list, tuple), repr(obj)
        for v in obj:
            _assert_plain(v)


def test_verify_reports_match_golden():
    reports = verify_reports()
    _assert_plain(reports)
    assert json.dumps(reports, indent=2) + "\n" == VERIFY_REPORTS.read_text()


def test_verify_5_5_report_matches_golden():
    report = verify_5_5_report()
    _assert_plain(report)
    assert json.dumps(report, indent=2) + "\n" == VERIFY_5_5.read_text()


def test_separate_4x4_outputs_match_pinned_sha256():
    assert separate_sha256(4, 4) == SEPARATE_4X4_SHA256


def test_separate_3x5_outputs_match_pinned_sha256():
    assert separate_sha256(3, 5) == SEPARATE_3X5_SHA256


def test_separation_reports_hold_no_value_types():
    comp = (1, 2, 2, 1, 1, 2, 2, 1)
    _assert_plain(report_dicts(comp, matchings(comp)))


if __name__ == "__main__":
    VERIFY_REPORTS.write_text(json.dumps(verify_reports(), indent=2) + "\n")
    VERIFY_5_5.write_text(json.dumps(verify_5_5_report(), indent=2) + "\n")
    report = json.loads(cli_output("verify", "--d1", "1", "--d2", "1",
                                   "--seed", "1", "--skip-wreg"))
    report["timings"] = {}
    VERIFY_1_1.write_text(json.dumps(report, indent=2) + "\n")
    for comp in SEPARATE_4X4_PINNED:
        (GOLDEN / f"separate_4x4_{comp}.json").write_text(
            separate_all(4, 4, comp))
    (GOLDEN / f"separate_3x5_{SEPARATE_3X5_PINNED}.json").write_text(
        separate_all(3, 5, SEPARATE_3X5_PINNED))
    comp, spec = SEPARATE_4X4_Y0_PINNED
    (GOLDEN / f"separate_4x4_{comp}_y0.json").write_text(
        cli_output("separate", "--d1", "4", "--d2", "4", "--comp", comp,
                   "--y0", spec))
    print(separate_sha256(4, 4))
    print(separate_sha256(3, 5))
