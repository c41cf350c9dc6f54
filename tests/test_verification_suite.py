import importlib.util
import warnings
from pathlib import Path

import pytest

from dhankel import cli

SUITE = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_suite.py"


@pytest.fixture(scope="module")
def suite():
    spec = importlib.util.spec_from_file_location("run_verification_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_reports_are_the_cli_reports(suite, tmp_path, capsys):
    # every cell's report has the bytes `dhankel titchmarsh <its arguments>
    # --format json` writes; a cell without a report is a precondition exit
    outdir = tmp_path / "suite"
    assert suite.main(["--outdir", str(outdir)]) == 0
    names, reported = set(), set()
    for name, args in suite.cells(8192.0):
        names.add(name)
        report = tmp_path / f"{name}.json"
        code = cli.main(["titchmarsh", *args, "--format", "json",
                         "--output", str(report)])
        assert code in (0, 2), name
        if code == 0:
            reported.add(name)
            assert report.read_bytes() == (outdir / report.name).read_bytes(), name
    assert len(names) == 42
    assert {p.stem for p in outdir.iterdir()} == reported


def test_menu_digest_comparison_names_every_moved_outcome():
    # ops whose report bytes alone moved are counted, constants moved within
    # the relative gate too; a moved exit, verdict, precondition or
    # constant, a route agreement over its gate and an op in one output
    # only are named
    spec = importlib.util.spec_from_file_location(
        "menu_digests", SUITE.parent / "menu_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    op = {"exit": 0, "verdict": "bounded", "condition": None, "constant": 2.0,
          "route_agreement": 1e-9, "digest": "a", "error": None}
    failed = {**op, "exit": 2, "verdict": None, "condition": "Z0", "constant": None}
    old = {"same": op, "bytes": op, "tiny": op, "verdict": op, "constant": op,
           "route": op, "gone": op, "failed": failed, "condition": failed}
    new = {"same": op, "bytes": {**op, "digest": "b"},
           "tiny": {**op, "constant": 2.0 + 4e-12, "digest": "b"},
           "verdict": {**op, "verdict": "unbounded"}, "constant": {**op, "constant": 2.1},
           "route": {**op, "route_agreement": 2e-6}, "added": op, "failed": failed,
           "condition": {**failed, "condition": "Z1"}}
    named, bytes_only, largest = digests.compare(old, new, 1e-9, 1e-6)
    assert bytes_only == 2
    assert largest == pytest.approx(0.05)
    assert [line.split(":")[0] for line in named] == [
        "added", "condition", "constant", "gone", "route", "verdict"]


@pytest.mark.parametrize("radius", ["0", "nan", "2", "-5", "inf"])
def test_suite_bad_radius_is_one_line_usage_error(suite, radius, tmp_path, capsys):
    # 2 leaves no usable h; the rest are no grid radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = suite.main(["--outdir", str(tmp_path), "--radius-lambda", radius])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == "" and not any(tmp_path.iterdir())
