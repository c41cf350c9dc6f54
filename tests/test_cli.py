import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhankel
from dhankel import cli
from dhankel.cli import build_parser, main
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
    out = capsys.readouterr().out
    assert code == 2
    assert "Z0=divergent" in out


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
    assert "grammar" in err


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


IMPORTED_SCIPY = """
import sys
import dhankel.cli
print("scipy.interpolate" in sys.modules)
print(" ".join(sorted(name for name, mod in list(sys.modules.items())
                      if name.count(".") == 1 and name.startswith("scipy.")
                      and not name.startswith("scipy._")
                      and hasattr(mod, "__path__"))))
"""


def test_cli_import_loads_only_scipy_special_and_fft():
    # start-up cost: a fresh interpreter importing the CLI loads no scipy
    # subpackage beyond special and fft (interpolate alone pulled in
    # optimize, linalg and spatial)
    src = str(Path(dhankel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORTED_SCIPY], env=env,
                          capture_output=True, text=True, check=True)
    interpolate, packages = done.stdout.splitlines()
    assert interpolate == "False"
    assert packages.split() == ["scipy.fft", "scipy.special"]


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
    (["--delta0", "1e-300", "--h-min-exp", "100"],
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
def test_modulus_probe_overflow_is_a_usage_error_without_warnings(capsys):
    # log(e/t)^theta overflows on the vanishing probe of the modulus
    argv = ["titchmarsh", "--modulus", "power_log:gamma=0.5,theta=1e300"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: evaluator must be finite and positive on (0, delta0]",
        cli.MODULUS_GRAMMAR]


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
