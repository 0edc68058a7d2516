"""Every report pinned byte for byte.

`golden/verify_reports.json` holds the `verify --skip-wreg` report, timings
removed, of every dimension vector (d1, d2) with 1 <= d1 + d2 and
d1, d2 <= 4, keyed by "d1,d2"; `golden/verify_5_5.json` holds the one of
(5, 5), which samples 500 of its 45297 separation instances.
SEPARATE_4X4_SHA256 is the sha256 of the `separate --d1 4 --d2 4 --comp <c>
--all` outputs of all 70 compositions, concatenated in `compositions(4, 4)`
order.  A change that alters a report on purpose regenerates them with
`python tests/test_golden.py` and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import semican.cli as cli
from semican.core import compositions
from semican.separation import enumerate_matchings, flag_shape, report_dicts
from semican.verify import run_verify

VERIFY_REPORTS = Path(__file__).parent / "golden" / "verify_reports.json"
VERIFY_5_5 = Path(__file__).parent / "golden" / "verify_5_5.json"
SEPARATE_4X4_SHA256 = (
    "57423c72f04a8954e7369ac6c7f9b555928506b072a9cfc5700559d9a895fa2e")


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


def separate_4x4_sha256() -> str:
    digest = hashlib.sha256()
    for comp in compositions(4, 4):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["separate", "--d1", "4", "--d2", "4", "--comp",
                             ",".join(map(str, comp)), "--all"])
        assert code == 0, comp
        digest.update(out.getvalue().encode())
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
    assert separate_4x4_sha256() == SEPARATE_4X4_SHA256


def test_separation_reports_hold_no_value_types():
    comp = (1, 2, 2, 1, 1, 2, 2, 1)
    _assert_plain(report_dicts(comp, enumerate_matchings(flag_shape(comp))))


if __name__ == "__main__":
    VERIFY_REPORTS.write_text(json.dumps(verify_reports(), indent=2) + "\n")
    VERIFY_5_5.write_text(json.dumps(verify_5_5_report(), indent=2) + "\n")
    print(separate_4x4_sha256())
