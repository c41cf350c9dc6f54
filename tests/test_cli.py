import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhankel
from dhankel import cli
from dhankel.cli import build_parser, main
from dhankel.modulus import FAMILIES
from dhankel.specfun import kernel_parts
from dhankel.titchmarsh import THEOREMS, restrict_h_grid


def test_indices_output(capsys):
    code = main(["indices", "--modulus", "power_log:gamma=0.5,theta=1.0"])
    out = capsys.readouterr().out
    assert code == 0
    m = float(out.split()[0].split("=")[1])
    big_m = float(out.split()[1].split("=")[1])
    assert abs(m - 0.5) <= 0.05
    assert abs(big_m - 0.5) <= 0.05


def test_modulus_check_divergent_exit_code(capsys):
    code = main(["modulus-check", "--modulus", "log_inverse:beta=2.0",
                 "--condition", "Z0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "precondition failed [Z0]: Z0=divergent\n"


def test_modulus_check_divergence_line_carries_every_constant(capsys):
    # as every exit 2: nothing on stdout, one precondition line
    assert main(["modulus-check", "--modulus", "log_inverse:beta=2.0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"precondition failed \[Z0\]: Z0=divergent, Z1=[0-9.]+\n", err)


def test_modulus_check_finite(capsys):
    code = main(["modulus-check", "--modulus", "power:gamma=0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("Z0=2")
    assert "Z1=1.99" in out


def test_usage_error_bad_modulus(capsys):
    code = main(["indices", "--modulus", "not-a-family"])
    err = capsys.readouterr().err
    assert code == 1
    # one line, which carries the grammar
    assert err.splitlines() == [
        "error: cannot parse modulus 'not-a-family'; expected `tag:name=value,...` "
        "with tag in power/power_log/power_loglog/log_inverse/power_logexponent"]


def test_readme_and_help_list_the_family_table(capsys):
    grammar = [f"{tag}:" + ",".join(f"{name}=" for name in names)
               for tag, (names, *_) in FAMILIES.items()]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    families = readme.split("\nModulus families:", 1)[1].split("\nTheorems:", 1)[0]
    assert re.findall(r"`([a-z_]+:[\w=,]+)`", families) == grammar
    assert main(["titchmarsh", "--help"]) == 0
    assert re.findall(r"\b[a-z_]+:(?:\w+=,?)+", capsys.readouterr().out) == grammar


def test_usage_error_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_main_uses_the_parser_built_at_import(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert main(["indices", "--modulus", "power_log:gamma=0.5,theta=1.0"]) == 0
    assert capsys.readouterr().out.startswith("m=")
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert main(["titchmarsh", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: dhankel titchmarsh")


def test_titchmarsh_matched_verdict(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code = main(["titchmarsh", "--theorem", "main1_part1",
                 "--modulus", "power:gamma=0.5", "--p", "2", "--alpha", "0.5",
                 "--synth", "matched", "--radius-lambda", "8192",
                 "--format", "json", "--output", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT=bounded" in out
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "bounded"
    assert payload["extra"]["config"]["modulus"] == "power:gamma=0.5"


def test_titchmarsh_precondition_exit(capsys):
    code = main(["titchmarsh", "--theorem", "main1_part1",
                 "--modulus", "log_inverse:beta=2.0", "--synth", "matched",
                 "--radius-lambda", "8192"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Z0" in err


def test_titchmarsh_deterministic_reports(tmp_path, capsys):
    args = ["titchmarsh", "--theorem", "equivalence",
            "--modulus", "power:gamma=0.5", "--synth", "matched",
            "--radius-lambda", "8192", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_synth_csv(tmp_path, capsys):
    out_file = tmp_path / "synth.csv"
    code = main(["synth", "--modulus", "power:gamma=0.5",
                 "--radius-lambda", "64", "--output", str(out_file)])
    capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "# alpha=0.5 radius=64.0"
    assert lines[1] == "lambda,value"
    lam, val = lines[2].split(",")
    float(lam), float(val)


def test_transform_csv(tmp_path, capsys):
    out_file = tmp_path / "spec.csv"
    code = main(["transform", "--function", "gauss", "--panels", "16",
                 "--order", "8", "--output", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert out_file.read_text().startswith("# alpha=0.5 radius=64.0")


def test_transform_kernel_over_the_byte_cap_is_one_line_usage_error(monkeypatch,
                                                                    capsys):
    # 1000 uniform panels of 16 nodes would need a 4.1 GB kernel strip; the
    # run is refused before any kernel entry is evaluated
    def untouched(*args, **kwargs):
        raise AssertionError("kernel evaluated past the byte cap")

    monkeypatch.setattr(dhankel.transform, "kernel_parts", untouched)
    assert main(["transform", "--panels", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the kernel of this grid pair would hold 4096000000 "
                   "bytes, over the cap of 1073741824; use fewer nodes\n")


TM = ("titchmarsh", "--modulus", "power:gamma=0.5")


@pytest.mark.parametrize("radius, h_min_exp, cap, wanted, peak_mb", [
    # an 898 x 340,768 multiplier, 2.28 GiB, against the real cap
    ("1e300", "900", 1 << 30, "898 h values would hold 2448077312 bytes, "
                              "over the cap of 1073741824", 32),
    # the 8 x 5120 multiplier (327,680 bytes) against a cap lowered to 64 KiB
    ("8192", "10", 1 << 16, "8 h values would hold 327680 bytes, "
                            "over the cap of 65536", 2),
])
def test_multiplier_over_the_byte_cap_is_one_line_usage_error(
        radius, h_min_exp, cap, wanted, peak_mb, monkeypatch, capsys):
    # refused before any kernel evaluation; the traced peak is the grid and
    # the synthesized data (19.5 MB at 1e300, 0.3 MB at 8192)
    def untouched(*args, **kwargs):
        raise AssertionError("kernel evaluated past the byte cap")

    monkeypatch.setattr(dhankel.transform, "_ENTRY_BYTES", cap)
    monkeypatch.setattr(dhankel.transform, "kernel_parts", untouched)
    tracemalloc.start()
    try:
        code = main([*TM, "--radius-lambda", radius, "--h-min-exp", h_min_exp])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: the multiplier of {wanted}; use fewer nodes\n"
    assert peak < peak_mb << 20


def test_tail_runs_evaluate_one_multiplier_per_process(tmp_path, monkeypatch,
                                                      capsys):
    # three tail-only runs on one modulus, alpha and radius read one h trace
    # each, all from one multiplier: the kernel parts (8 h on 2560 positive
    # nodes) are evaluated once, and every report is the one a run on an
    # emptied cache writes
    theorems = ("main1_part1", "equivalence", "inclusion_Womega")

    def report(theorem, name):
        path = tmp_path / name
        assert main([*TM, "--theorem", theorem, "--alpha", "0.7", "--radius-lambda",
                     "8192", "--format", "json", "--output", str(path)]) == 0
        return path.read_bytes()

    evaluated = []

    def counting(params, u):
        evaluated.append(np.shape(u))
        return kernel_parts(params, u)

    monkeypatch.setattr(dhankel.transform, "kernel_parts", counting)
    warm = [report(theorem, f"{theorem}.json") for theorem in theorems]
    assert evaluated == [(8, 2560)]
    for theorem, bytes_ in zip(theorems, warm):
        dhankel.transform._multiplier_cache.clear()
        assert report(theorem, f"{theorem}-cold.json") == bytes_
    assert evaluated == [(8, 2560)] * 4
    capsys.readouterr()


def test_fourier_Lnu_csv_rows_pair_radii_with_ratios(tmp_path, capsys):
    # its ratios are partial norms at the radii R/8 .. R; the JSON report
    # carries the same pairs as extra["radii"] and ratios
    argv = [*TM, "--theorem", "fourier_Lnu", "--nu", "1.5",
            "--radius-lambda", "8192"]
    csv_file, json_file = tmp_path / "rep.csv", tmp_path / "rep.json"
    assert main([*argv, "--output", str(csv_file)]) == 0
    assert main([*argv, "--format", "json", "--output", str(json_file)]) == 0
    capsys.readouterr()
    rep = json.loads(json_file.read_text())
    assert rep["extra"]["radii"] == [1024.0, 2048.0, 4096.0, 8192.0]
    rows = [ln for ln in csv_file.read_text().splitlines() if not ln.startswith("#")]
    assert rows == ["radius,ratio"] + [f"{r!r},{x!r}" for r, x in
                                       zip(rep["extra"]["radii"], rep["ratios"])]


def test_run_config_validation(capsys):
    # argparse, the float-range table and dyadic_h_grid reject bad settings
    for bad in (["--alpha", "0.2"], ["--p", "2.5"],
                ["--h-max-exp", "8", "--h-min-exp", "3"], ["--format", "xml"]):
        assert main([*TM, *bad]) == 1
        out, err = capsys.readouterr()
        assert "VERDICT" not in out
        assert err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [*TM, "--radius-lambda", "nan"],
    [*TM, "--radius-lambda", "inf"],
    [*TM, "--radius-lambda=-5"],
    [*TM, "--radius-lambda", "0"],
    [*TM, "--alpha", "inf"],
    [*TM, "--alpha", "nan"],
    [*TM, "--p", "nan"],
    [*TM, "--theorem", "fourier_Lnu", "--nu", "inf"],
    [*TM, "--route-check", "--radius-x", "nan"],
    [*TM, "--delta0", "nan"],
    ["synth", "--modulus", "power:gamma=0.5", "--radius-lambda", "inf"],
    ["transform", "--alpha", "inf"],
])
def test_bad_float_argument_is_one_line_usage_error(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "VERDICT" not in out
    assert err.startswith("error: --") and err.count("\n") == 1
    assert "Traceback" not in err


def test_titchmarsh_rejects_panels(capsys):
    # the titchmarsh grids take no panel count; transform keeps --panels
    assert main([*TM, "--panels", "3"]) == 1
    out, err = capsys.readouterr()
    assert "VERDICT" not in out
    assert "--panels" in err


CONFIG_KEYS = {"alpha", "radius_lambda", "lambda_nodes", "order",
               "modulus", "theorem", "h_max_exp", "h_min_exp", "synth"}

# the options among --p and --nu each theorem's verifier reads
READS = {"main1_part1": {"p"}, "main1_part2": set(), "equivalence": set(),
         "fourier_Lnu": {"p", "nu"}, "main2_part1": set(),
         "main2_part2": set(), "inclusion_Womega": {"p"}}


@pytest.mark.parametrize("route_check", [False, True])
@pytest.mark.parametrize("theorem", sorted(READS))
def test_titchmarsh_config_records_what_shaped_the_run(theorem, route_check,
                                                       tmp_path, capsys):
    import dhankel as dh
    out_file = tmp_path / "rep.json"
    argv = [*TM, "--theorem", theorem, "--nu", "1.5", "--format", "json",
            "--output", str(out_file)]
    # p != 2 needs x-space input, so the tail run keeps the default p = 2
    p = 1.5 if route_check else 2.0
    if route_check:
        argv += ["--route-check", "--synth", "function:gauss", "--p", "1.5"]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads(out_file.read_text())["extra"]
    config = report["config"]
    if route_check:
        xg, lg = dh.make_resolved_grids(0.5, 20.0, 64.0)
        assert set(config) == CONFIG_KEYS | READS[theorem] | {"radius_x", "x_nodes"}
        assert config["radius_x"] == 20.0
        assert config["x_nodes"] == xg.nodes.size
    else:
        lg = dh.make_tail_grid(0.5, 64.0)
        assert set(config) == CONFIG_KEYS | READS[theorem]
    assert config["lambda_nodes"] == lg.nodes.size
    # a recorded option is the value the verifier ran with
    for name in READS[theorem]:
        assert config[name] == report[name] == {"p": p, "nu": 1.5}[name]


def test_theorem_choices_are_the_table():
    tm = build_parser()._subparsers._group_actions[0].choices["titchmarsh"]
    theorem = next(a for a in tm._actions if a.dest == "theorem")
    assert list(theorem.choices) == list(THEOREMS)
    assert set(THEOREMS) == set(READS)


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_every_theorem_runs_through_the_cli(theorem, capsys):
    code = main([*TM, "--theorem", theorem, "--radius-lambda", "8192",
                 "--nu", "1.5"])
    out, err = capsys.readouterr()
    if code == 0:
        assert out.splitlines()[-1].startswith("VERDICT=")
    else:
        assert code == 2 and err.startswith("precondition failed [")


@pytest.mark.parametrize("theorem, radius, note", [
    ("main1_part1", "64", "7 h value(s) dropped (tail 1/h beyond "
                          "radius_lambda/4); the verdict rests on 1 ratio(s)"),
    ("main1_part1", "128", "6 h value(s) dropped (tail 1/h beyond "
                           "radius_lambda/4); the verdict rests on 2 ratio(s)"),
    ("main1_part1", "256", "5 h value(s) dropped (tail 1/h beyond "
                           "radius_lambda/4)"),
    # its verdict reads partial norms over four radii, not the h trace
    ("fourier_Lnu", "64", "7 h value(s) dropped (tail 1/h beyond "
                          "radius_lambda/4)"),
])
def test_note_says_how_many_ratios_remain(theorem, radius, note, capsys):
    # a verdict from fewer than three ratios is flagged on stderr; stdout
    # and the report are as before
    code = main(["titchmarsh", "--modulus", "power:gamma=0.5", "--synth",
                 "mismatched:power:gamma=0.2", "--theorem", theorem,
                 "--radius-lambda", radius])
    out, err = capsys.readouterr()
    assert code == 0 and out.startswith("VERDICT=")
    assert err == f"note: {note}\n"


def run_fresh(script: str, *args: str) -> str:
    """stdout of a fresh interpreter running script with this dhankel."""
    src = str(Path(dhankel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


NUMPY_ONLY_RUNS = """
import contextlib, io, json, os, sys
from dhankel.cli import main
os.chdir(sys.argv[1])
tm = ["titchmarsh", "--modulus", "power:gamma=0.5"]
runs = [["indices", "--modulus", "power_log:gamma=0.5,theta=1.0"],
        ["modulus-check", "--modulus", "power:gamma=0.5"],
        ["synth", "--modulus", "power:gamma=0.5", "--radius-lambda", "8192",
         "--profile", "smooth_tail", "--output", "g.csv"],
        ["transform", "--function", "gauss", "--output", "spec.csv"]]
for alpha in ("0.3", "0.5", "0.7"):
    runs += [[*tm, "--alpha", alpha, "--radius-lambda", "8192"],
             [*tm, "--alpha", alpha, "--theorem", "equivalence", "--route-check"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_load_no_scipy(tmp_path):
    # start-up cost: below alpha = 4.5 every order is at most 10, and no
    # command loads any scipy module (importing scipy.special and scipy.fft
    # took more than half of a tail-only run)
    done = json.loads(run_fresh(NUMPY_ONLY_RUNS, str(tmp_path)))
    assert done == {"codes": [0] * 10, "scipy": []}


ORDER_ABOVE_TEN = """
import contextlib, io, json, sys
import numpy as np
from dhankel.cli import main
from dhankel.specfun import KernelParams, kernel_parts
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(["titchmarsh", "--modulus", "power:gamma=0.5", "--alpha", "4.5",
                 "--radius-lambda", "8192", "--output", sys.argv[1]])
loaded = ["scipy.special" in sys.modules]
t = np.geomspace(0.5, 2e4, 40)
even, odd = kernel_parts(KernelParams(alpha=5.0), t)
loaded.append("scipy.special" in sys.modules)
print(json.dumps({"code": code, "loaded": loaded, "t": t.tolist(),
                  "even": even.tolist(), "odd": odd.tolist()}))
"""


def test_order_above_ten_alone_loads_scipy_special(tmp_path):
    # alpha = 4.5 (orders 8 and 10) runs without scipy; alpha = 5 takes
    # order 11, whose large arguments alone import jv, within the mpmath
    # bound of test_large_orders_stay_accurate
    import mpmath as mp

    def j_mp(nu, z):
        with mp.workdps(40):
            return float(mp.gamma(1 + nu) * (2 / mp.mpf(z)) ** nu * mp.besselj(nu, z))

    done = json.loads(run_fresh(ORDER_ABOVE_TEN, str(tmp_path / "report.csv")))
    assert done["code"] == 0 and done["loaded"] == [False, True]
    for t, even, odd in zip(done["t"], done["even"], done["odd"]):
        z = 2.0 * t ** 0.5
        assert abs(even - j_mp(9.0, z)) < 1e-12
        assert abs(odd * 110.0 / t - j_mp(11.0, z)) < 1e-12


WITHOUT_SCIPY = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(name)

sys.meta_path.insert(0, NoScipy())
from dhankel.cli import main
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    codes = [main(["titchmarsh", "--modulus", "power:gamma=0.5", "--alpha", alpha,
                   "--radius-lambda", "8192", "--output", sys.argv[1]])
             for alpha in ("0.5", "5")]
print(json.dumps({"codes": codes, "stderr": err.getvalue()}))
"""


def test_order_above_ten_without_scipy_is_one_line_error(tmp_path):
    # where scipy cannot be imported, alpha = 0.5 runs as ever and alpha = 5
    # ends with one usage line, not a traceback
    done = json.loads(run_fresh(WITHOUT_SCIPY, str(tmp_path / "report.csv")))
    assert done == {"codes": [0, 1], "stderr": "error: order 11.0 above 10 needs "
                                               "scipy, which is not installed\n"}


@pytest.mark.parametrize("order", ["1", "0", "-3"])
@pytest.mark.parametrize("route_check", [False, True])
def test_order_below_two_is_one_line_usage_error(order, route_check, capsys):
    # the tail grid and both resolved grids reject a rule of fewer than two
    # nodes with the same error
    argv = [*TM, "--order", order] + (["--route-check"] if route_check else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "VERDICT" not in out
    assert err == f"error: order must be >= 2, got {order}\n"


@pytest.mark.parametrize("order", ["65", "100000"])
@pytest.mark.parametrize("route_check", [False, True])
def test_order_above_limit_is_one_line_usage_error(order, route_check, capsys):
    # rejected before any rule is computed, so a huge order ends at once
    argv = [*TM, "--order", order] + (["--route-check"] if route_check else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "VERDICT" not in out
    assert err == f"error: order must be <= 64, got {order}\n"


@pytest.mark.parametrize("command", [TM, ("synth", "--modulus", "power:gamma=0.5"),
                                     ("transform",)])
def test_gamma_overflow_is_one_line_usage_error(command, capsys):
    # c_a = 1/(2 Gamma(2a)) overflows from alpha = 86 on
    assert main([*command, "--alpha", "86"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gamma(172.0) overflows a double\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route_check", [False, True])
def test_weight_underflow_is_one_line_usage_error(route_check, capsys):
    # at alpha = 85, c_a x^{2a-1} underflows to 0 near the origin; the grid
    # build rejects it before any data are synthesized
    argv = [*TM, "--alpha", "85"] + (["--route-check"] if route_check else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: alpha = 85.0 takes the quadrature weights out of "
                   "the range of doubles\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["--h-max-exp", "-1100"],
     "h exponents must lie in [-1000, 1000], got -1100 and 10"),
    (["--h-min-exp", "2000"], "h exponents must lie in [-1000, 1000], got 3 and 2000"),
    (["--delta0", "1e300", "--h-max-exp", "-1000"],
     "h grid delta0 * 2^-k leaves the range of doubles"),
    (["--delta0", "1e-200", "--h-min-exp", "1000"],
     "h grid delta0 * 2^-k leaves the range of doubles"),
])
def test_h_exponents_out_of_range_are_one_line_usage_errors(argv, message, capsys):
    # any numpy warning fails the test, so the error line is all of stderr
    assert main([*TM, *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


P_NEEDS_SAMPLES = "error: p != 2 needs x-space samples: the Plancherel route is p = 2 only\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theorem", ["main1_part1", "inclusion_Womega"])
def test_p_below_two_on_synthesized_data_is_one_line_usage_error(theorem, capsys):
    # synthesized data has no x-space samples, so no seminorm at p = 1.5
    # exists; no p = 2 value stands in for it
    argv = ["titchmarsh", "--modulus", "power:gamma=0.5", "--theorem", theorem,
            "--radius-lambda", "8192", "--p", "1.5"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == P_NEEDS_SAMPLES


@pytest.mark.filterwarnings("error")
def test_p_too_close_to_one_is_one_line_usage_error(capsys):
    # q = p/(p - 1) is about 1e7, so omega(h)^q underflows to 0 and every
    # ratio would be 0/0
    argv = ["titchmarsh", "--modulus", "power:gamma=0.5", "--p", "1.0000001",
            "--synth", "function:gauss", "--route-check", "--radius-lambda", "256"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if not line.startswith("note: ")]
    assert len(errors) == 1
    assert errors[0].startswith("error: omega(h)^q leaves the normal doubles "
                                "at p = 1.0000001")


ROUTE_NOTE = ("note: --route-check runs no second route for {}; "
              "the report has no route_agreement\n")


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_route_check_without_second_route_says_so(theorem, tmp_path, capsys):
    # stdout, the exit code and the report are those of the run without
    # the note; only the theorems with a second route report its agreement
    out_file = tmp_path / "rep.json"
    code = main([*TM, "--theorem", theorem, "--route-check", "--nu", "1.5",
                 "--radius-lambda", "256", "--format", "json",
                 "--output", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 0 and out.splitlines()[-1].startswith("VERDICT=")
    extra = json.loads(out_file.read_text())["extra"]
    noted = ROUTE_NOTE.format(theorem) in err
    assert noted == (theorem not in ("main1_part2", "equivalence", "main2_part2"))
    assert noted == (extra.get("route_agreement") is None)


def test_route_check_note_needs_a_finished_report(capsys):
    # the note is read off the report, so a run that fails a precondition
    # prints none
    assert main(["titchmarsh", "--modulus", "log_inverse:beta=2.0",
                 "--route-check", "--radius-lambda", "256"]) == 2
    err = capsys.readouterr().err
    assert "precondition failed [Z0]" in err
    assert "second route" not in err


ROUTE_CHECK_RSS = """
import resource, sys
from dhankel.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_route_check_past_the_dense_kernel_memory_wall(tmp_path):
    # at (40, 8192) the dense [E | O] blocks alone would take 1.21 GB; the
    # entry (edge strips and interior spectra) keeps a fresh CLI process
    # under 300 MB, with the two routes still in agreement
    src = str(Path(dhankel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = tmp_path / "equivalence.json"
    argv = ["titchmarsh", "--theorem", "equivalence", "--route-check",
            "--modulus", "power:gamma=0.5", "--alpha", "0.5", "--radius-x", "40",
            "--radius-lambda", "8192", "--format", "json", "--output", str(report)]
    done = subprocess.run([sys.executable, "-c", ROUTE_CHECK_RSS, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, maxrss_kb = map(int, done.stdout.split()[-2:])
    assert code == 0
    assert maxrss_kb <= 300 * 1024
    assert json.loads(report.read_text())["extra"]["route_agreement"] <= 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_h_beyond_delta0_is_one_line_usage_error(theorem, capsys):
    # --h-max-exp -2 puts h = 4 delta0 and 2 delta0 on the grid; every
    # theorem rejects them before any ratio is computed
    argv = ["titchmarsh", "--theorem", theorem, "--modulus",
            "power_log:gamma=0.5,theta=1.0", "--h-max-exp", "-2",
            "--radius-lambda", "8192"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: h grid must lie in (0, delta0]\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radii, product", [
    (("--radius-x", "1e-300"), "6.4e-299"),
    (("--radius-x", "1e-200", "--radius-lambda", "1e-200"), "0.0"),
])
def test_resolved_radius_product_too_small_is_one_line_usage_error(radii, product,
                                                                   capsys):
    # the panel ratio exp(10 / sqrt(R_x R_lambda)) would overflow, or divide
    # by a product that underflowed to 0
    assert main([*TM, "--route-check", *radii]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: radius_x * radius_lambda = {product} is too small")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", ["0.2", "0.25"])
def test_tail_grid_radius_at_its_first_panel_edge_is_one_line_usage_error(radius,
                                                                          capsys):
    # a tail grid's panels grow from 0.25 to the frequency radius: the error
    # names that rule and the option's value, not the builder's own inputs
    assert main([*TM, "--radius-lambda", radius]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the radius of a tail grid must exceed 0.25, its first "
                   f"panel edge, got {radius}\n")


@pytest.mark.filterwarnings("error")
def test_modulus_probe_overflow_is_a_usage_error_without_warnings(capsys):
    # log(e/t)^theta overflows on the vanishing probe of the modulus
    argv = ["titchmarsh", "--modulus", "power_log:gamma=0.5,theta=1e300"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: evaluator must be finite and positive on (0, delta0]"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("indices", "--modulus", "not-a-family"),                 # unparsable
    ("indices", "--modulus", "nope:gamma=0.5"),               # unknown family
    ("titchmarsh", "--modulus", "power:gamma=2"),             # out of range
    ("titchmarsh", "--modulus", "power:gamma=1e-300"),        # does not vanish at 0
    ("titchmarsh", "--modulus", "power_log:gamma=0.5,theta=1e300"),  # probe overflows
    (*TM, "--radius-lambda", "1e308"),                        # radius / 0.25 overflows
    ("synth", "--modulus", "power:gamma=0.5", "--radius-lambda", "1e308"),
    ("transform", "--radius-x", "1e308"),                     # panel midpoints overflow
    ("transform", "--radius-x", "1e307"),                     # lambda * x overflows
    # (2 sqrt(lambda x))^2 overflows on the Hankel path of a fractional order
    ("transform", "--alpha", "0.3", "--radius-x", "1e306", "--radius-lambda", "150"),
    # exp(-x * x) would overflow if sampled before the kernel is refused
    ("transform", "--function", "gauss", "--radius-x", "1e306"),
    # errors found after h values were dropped print no h note
    (*TM, "--h-max-exp", "-5"),
    (*TM, "--synth", "mismatched:nope"),
], ids=" ".join)
def test_bad_input_is_one_error_line(argv, capsys):
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("theorem, name", [
    ("main1_part1", "verify_main1_part1"), ("main1_part2", "verify_main1_part2"),
    ("equivalence", "verify_equivalence"), ("fourier_Lnu", "verify_fourier_Lnu"),
    ("main2_part1", "verify_main2"), ("main2_part2", "verify_main2"),
    ("inclusion_Womega", "verify_inclusion_Womega")])
def test_theorem_table_looks_verifiers_up_when_called(theorem, name, monkeypatch,
                                                      capsys):
    # perfbench/tracing.py times verifiers by patching module attributes; a
    # table that bound the functions at import would bypass the patch
    calls, real = [], getattr(dhankel.titchmarsh, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(dhankel.titchmarsh, name, spy)
    assert main([*TM, "--theorem", theorem, "--radius-lambda", "8192",
                 "--nu", "1.5"]) == 0
    capsys.readouterr()
    assert calls == [name]


# the verifiers with a second route, called from the library
LIBRARY_CALLS = {
    "main1_part2": lambda f, w, h, xg, lg: dhankel.verify_main1_part2(
        f, w, h, xgrid=xg, lgrid=lg),
    "equivalence": lambda f, w, h, xg, lg: dhankel.verify_equivalence(
        f, w, h, xgrid=xg, lgrid=lg),
    "main2_part2": lambda f, w, h, xg, lg: dhankel.verify_main2(
        f, w, "part2", h, xgrid=xg, lgrid=lg),
}


@pytest.mark.parametrize("theorem", sorted(LIBRARY_CALLS))
def test_library_function_input_gives_the_cli_report(theorem, tmp_path, capsys):
    # a function with both grids from the library reports what the CLI's
    # function: input does, apart from the CLI's record of its settings
    out_file = tmp_path / "rep.json"
    assert main([*TM, "--theorem", theorem, "--synth", "function:gauss",
                 "--route-check", "--radius-lambda", "256", "--format", "json",
                 "--output", str(out_file)]) == 0
    capsys.readouterr()
    cli_report = json.loads(out_file.read_text())
    del cli_report["extra"]["config"]
    xg, lg = dhankel.make_resolved_grids(0.5, 20.0, 256.0)
    w = dhankel.parse_family("power:gamma=0.5")
    h = restrict_h_grid(dhankel.dyadic_h_grid(w.delta0, 3, 10), lg)
    f = dhankel.FunctionSpec(evaluator=lambda x: np.exp(-x * x), support_radius=16.0)
    assert json.loads(LIBRARY_CALLS[theorem](f, w, h, xg, lg).to_json()) == cli_report


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("frobnicate",),                                # unknown subcommand
    (),                                             # no subcommand
    ("indices",),                                   # missing --modulus
    (*TM, "--alpha", "abc"),                        # not a number
    (*TM, "--theorem", "nope"),                     # unknown choice
    (*TM, "--order", "1.5"),                        # not an integer
    (*TM, "--panels", "3"),                         # unknown option
    (*TM, "--alpha"),                               # missing value
    ("transform", "--function", "nope"),
    ("synth", "--modulus", "power:gamma=0.5", "--radius-x", "3"),
], ids=lambda argv: " ".join(argv) or "empty")
def test_argparse_errors_are_one_error_line(argv, capsys):
    # argparse's own errors print no usage block: one line, as any bad input
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "argument " not in err


def test_parser_checks_the_float_ranges():
    # the range of a float option is checked where the option is parsed, so
    # callers of build_parser (the verification suite) get it too
    with pytest.raises(cli.DomainError, match=r"^--alpha: must be finite and > 1/4"):
        build_parser().parse_args([*TM, "--alpha", "0.25"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta0", ["1e-300", "4.4e-267"])
@pytest.mark.parametrize("command", [
    ("modulus-check", "--modulus", "power:gamma=0.5"),
    ("indices", "--modulus", "power:gamma=1.0"),
    ("synth", "--modulus", "power_logexponent:gamma=0.99,C=-5,lambda=0.5"),
    TM])
def test_delta0_below_the_normal_probe_is_one_line_usage_error(command, delta0,
                                                              capsys):
    # estimate_indices probes omega at delta0 * 5e-42; below the normal
    # doubles that gave nan constants or a wrong index with exit 0
    assert main([*command, "--delta0", delta0]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: delta0 must be at least 4.45e-267, got {float(delta0)!r}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius, product", [("1e17", "1e+34"),
                                             ("1e6", "1000000000000.0")])
def test_resolved_radius_product_too_large_is_one_line_usage_error(radius, product,
                                                                   capsys):
    # at 1e34 rho = exp(10 / sqrt(product)) rounds to 1; at 1e12 the grids
    # would need millions of panels
    assert main([*TM, "--route-check", "--radius-x", radius,
                 "--radius-lambda", radius]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: radius_x * radius_lambda = {product} is too large: "
                   "a grid would need 100000 panels or more\n")


def _floats(lo, hi, *typical):
    return st.one_of(st.sampled_from(typical), st.floats(lo, hi).map(repr))


FLOAT_JUNK = ["nan", "inf", "-inf", "abc", "", "1e400"]
# option -> (strategy of valid values, bad values).  Either kind may end in
# any of the three ways: a valid value can leave no usable h, and a bad one
# goes unread where the run ignores its option (--radius-x of a tail run)
MODULUS = (st.sampled_from(["power:gamma=0.5", "power:gamma=1.0",
                            "power_log:gamma=0.5,theta=1.0", "log_inverse:beta=2.0",
                            "power_logexponent:gamma=0.5,C=1.0,lambda=2.0",
                            "power_loglog:gamma=0.5,lambda=1.0"]),
           [None, "power:gamma=2", "nope:gamma=1", "not-a-family"])   # None: omitted
DELTA0 = (_floats(0.01, 0.3, "0.1"),
          ["0", "-1", "1e-300", "4.4e-267", "1e-200", *FLOAT_JUNK])
ALPHA = (_floats(0.26, 4.0, "0.3", "0.5", "1.5"),
         ["0.25", "0.1", "-1", "85", "86", *FLOAT_JUNK])
RADIUS = (_floats(1.0, 1e4, "20", "256", "8192"),
          ["0", "-5", "1e-300", "1e306", "1e308", *FLOAT_JUNK])
# from 64 on, a tail grid keeps some of the default h values
TAIL_RADIUS = (_floats(64.0, 1e4, "256", "8192"), RADIUS[1])
ORDER = (st.integers(2, 16).map(str), ["1", "-3", "65", "1.5", "x"])
SWEEP = {
    "transform": {"--function": (st.sampled_from(["gauss", "x2_gauss"]), ["nope"]),
                  "--alpha": ALPHA, "--radius-x": RADIUS, "--radius-lambda": RADIUS,
                  "--panels": (st.integers(2, 16).map(str), ["1", "1000", "1e3"]),
                  "--order": ORDER},
    "modulus-check": {"--modulus": MODULUS, "--delta0": DELTA0,
                      "--condition": (st.sampled_from(["Z0", "Z1", "both"]), ["Z2"])},
    "indices": {"--modulus": MODULUS, "--delta0": DELTA0},
    "synth": {"--modulus": MODULUS, "--delta0": DELTA0, "--alpha": ALPHA,
              "--radius-lambda": TAIL_RADIUS, "--order": ORDER,
              "--profile": (st.sampled_from(["sharp_tail", "smooth_tail"]), ["flat"])},
    "titchmarsh": {"--modulus": MODULUS, "--delta0": DELTA0, "--alpha": ALPHA,
                   "--theorem": (st.sampled_from(list(THEOREMS)), ["nope"]),
                   "--p": (st.sampled_from(["2", "1.5"]), ["1", "2.5", *FLOAT_JUNK]),
                   "--nu": (_floats(1.0, 3.0, "1.5"), ["0.5", *FLOAT_JUNK]),
                   "--radius-x": RADIUS, "--radius-lambda": TAIL_RADIUS,
                   "--order": ORDER,
                   "--h-max-exp": (st.integers(0, 6).map(str), ["-2", "-1100", "3.5"]),
                   "--h-min-exp": (st.integers(6, 14).map(str), ["2000", "x"]),
                   "--synth": (st.sampled_from(["matched",
                                                "mismatched:power:gamma=0.2"]),
                               ["mismatched:nope", "bogus"]),
                   "--format": (st.sampled_from(["csv", "json"]), ["xml"])},
}
# given whenever valid: runs get past parsing, and transform stays small
ALWAYS = ("--modulus", "--panels")
# an unknown flag, a titchmarsh-only rejection, and an option without its value
STRAY = [["--frobnicate"], ["--panels", "3"], ["--alpha"]]


@st.composite
def command_lines(draw):
    """A command line with every option valid, or with one bad piece: an
    option out of range, an unknown subcommand, flag or choice, or no --modulus."""
    command = draw(st.sampled_from([*SWEEP, "frobnicate"]))
    options = SWEEP.get(command, {})
    bad = draw(st.sampled_from([*options, "stray"])) if draw(st.booleans()) else None
    argv = [command]
    for option, (valid, invalid) in options.items():
        value = (draw(st.sampled_from(invalid)) if option == bad
                 else draw(valid) if option in ALWAYS or draw(st.booleans())
                 else None)
        if value is not None:
            argv += [option, value]
    return argv + (draw(st.sampled_from(STRAY)) if bad == "stray" else [])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command_lines())
def test_cli_input_sweep_ends_in_one_of_three_ways(argv):
    # every run completes with no nan in its output, fails a precondition
    # (one line, modulus-check's included), or is a usage error of one line.
    # A warning of the run is an error; the filter covers the run alone, since
    # hypothesis imports modules that warn when it reports a failure
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "out"
        argv = [*argv, "--output", str(report)] if argv[0] in ("transform", "synth",
                                                              "titchmarsh") else argv
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue().replace(str(report), "<report>"), err.getvalue()
        written = report.read_text() if report.exists() else ""
    if code == 0:
        assert not re.search(r"\bnan\b", out + written, re.IGNORECASE), argv
        assert all(line.startswith("note: ") for line in err.splitlines()), (argv, err)
    else:
        assert code in (1, 2), (argv, code)
        start = "error: " if code == 1 else "precondition failed ["
        assert out == "" and err.startswith(start) and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("command", [
    ("transform", "--function", "gauss", "--panels", "4", "--order", "4"),
    ("synth", "--modulus", "power:gamma=0.5"),
    TM,                                   # prints notes when its report is out
    (*TM, "--route-check", "--theorem", "main1_part1")])
@pytest.mark.parametrize("output", ["missing/x.csv", "."])
def test_unwritable_output_is_one_line_usage_error(command, output, tmp_path, capsys):
    # a missing directory, or a directory itself: no traceback, no note
    path = str(tmp_path / output)
    assert main([*command, "--output", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad, named", [
    (("--modulus", "nope:gamma=1"), "unknown family 'nope'"),
    (("--modulus", "power:gamma=0.5", "--synth", "mismatched:nope:gamma=1"),
     "unknown family 'nope'"),
    (("--modulus", "power:gamma=0.5", "--synth", "function:nope"),
     "unknown --synth 'function:nope'")])
def test_bad_option_text_is_named_before_any_grid_is_built(bad, named, monkeypatch,
                                                           capsys):
    # the radius product is too large for the resolved grids, but the parser
    # turns the option text into values before a command builds a grid
    def no_grid(*args):
        raise AssertionError("a grid builder ran")

    monkeypatch.setattr(cli, "make_resolved_grids", no_grid)
    monkeypatch.setattr(cli, "make_tail_grid", no_grid)
    assert main(["titchmarsh", *bad, "--route-check", "--radius-x", "1e6",
                 "--radius-lambda", "1e6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {named}") and err.count("\n") == 1


@pytest.mark.parametrize("synth", ["bogus", "mismatched", "mismatched:nope",
                                   "function:nope", "function"])
def test_parser_rejects_a_bad_synth(synth):
    # the verification suite parses its cells with build_parser
    with pytest.raises(cli.DomainError):
        build_parser().parse_args([*TM, "--synth", synth])


def test_parser_turns_synth_into_its_source():
    def parse(synth):
        return build_parser().parse_args([*TM, "--delta0", "0.25", "--synth", synth])

    ns = parse("matched")
    assert ns.source is ns.omega and ns.omega.delta0 == 0.25
    ns = parse("mismatched:power:gamma=0.2")
    assert ns.source.params == {"gamma": 0.2} and ns.source.delta0 == 0.25
    assert parse("function:gauss").source is cli.TEST_FUNCTIONS["gauss"]
