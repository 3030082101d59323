import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bwlab.config
import bwlab.errors
import bwlab.identities
import bwlab.pipeline
import bwlab.propagators
import bwlab.quadrature
import bwlab.report
from bwlab import (
    BwlabError,
    ConfigError,
    ModelConfig,
    OracleTrackingError,
    QuadratureConvergenceError,
    RunConfig,
    build_spectrum,
    dirac_like_energies,
    emit_config,
    parse_config,
)
from bwlab.cli import ABORTS, _load, build_parser, main
from bwlab.config import config_hash
from bwlab.identities import identity_suite, suite_passes
from bwlab.pipeline import reference_state
from bwlab.report import render_json


MINIMAL = """
[spectrum]
positive_energies = 1.0, 1.5
negative_energies = -1.2, -1.7
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model.positive_energies == (1.0, 1.5)
    assert cfg.model.coulomb_scale == 0.1
    assert cfg.model.delta_scale == 0.05
    assert cfg.model.coulomb_matrix == "ones"
    assert cfg.model.delta_matrix == "ones"
    assert cfg.j_order == 2
    assert cfg.bw_order == 3
    assert cfg.state_index == 0
    # every default comes from the dataclasses, none from the parser
    assert parse_config("[spectrum]\n") == RunConfig(ModelConfig(*dirac_like_energies()))


def test_empty_config_uses_dirac_preset():
    cfg = parse_config("[spectrum]\n")
    assert cfg.model.positive_energies == (1.0, 1.5)
    assert cfg.model.negative_energies == (-1.0, -1.5)


def test_full_roundtrip():
    # a symmetric 16 x 16 delta matrix for the dim-16 basis
    delta = tuple(tuple(0.1 * (1 + min(i, j)) / (1 + abs(i - j)) for j in range(16))
                  for i in range(16))
    text = """
[spectrum]
positive_energies = 1.0, 1.5
negative_energies = -1.2, -1.7
[interaction]
seed = 9
[interaction.coulomb]
scale = 0.2
preset = random-symmetric
[interaction.delta]
scale = 0.03
matrix = """ + "; ".join(" ".join(map(repr, row)) for row in delta) + """
[integration]
j_order = 1
[bw]
order = 2
[solve]
state_index = 1
"""
    cfg = parse_config(text)
    # each of the 10 keys reaches its own field
    assert cfg.model == ModelConfig(
        positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7), seed=9,
        coulomb_scale=0.2, coulomb_matrix="random-symmetric",
        delta_scale=0.03, delta_matrix=delta,
    )
    assert (cfg.j_order, cfg.bw_order, cfg.state_index) == (1, 2, 1)
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[bw]\norder = 2\norder = 3\n"
    with pytest.raises(ConfigError, match="order"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config(MINIMAL + "\n[integration]\nwavelength = 3\n")
    with pytest.raises(ConfigError, match="weird"):
        parse_config(MINIMAL + "\n[weird]\nx = 1\n")


def test_negative_coupling_message():
    with pytest.raises(ConfigError, match="coulomb_scale must be >= 0"):
        parse_config(MINIMAL + "\n[interaction.coulomb]\nscale = -1\n")


def test_preset_and_matrix_conflict():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(MINIMAL + "\n[interaction.delta]\npreset = ones\nmatrix = 1\n")


def test_bad_float_list():
    with pytest.raises(ConfigError, match="positive_energies"):
        parse_config("[spectrum]\npositive_energies = a, b\nnegative_energies = -1\n")


#: a config text per key whose value is not a finite number
NON_FINITE = {
    "spectrum.positive_energies":
        "[spectrum]\npositive_energies = 1.0, inf\nnegative_energies = -1\n",
    "interaction.coulomb.scale": MINIMAL + "[interaction.coulomb]\nscale = nan\n",
    "interaction.delta.matrix": MINIMAL + "[interaction.delta]\nmatrix = 1 0; 0 -inf\n",
    "interaction.delta.scale": MINIMAL + "[interaction.delta]\nscale = inf\n",
}


@pytest.mark.parametrize("key", NON_FINITE)
def test_non_finite_value_rejected(key):
    with pytest.raises(ConfigError, match=f"^{key}: non-finite value in "):
        parse_config(NON_FINITE[key])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, message", [
    (lambda cfg: replace(cfg.model, coulomb_scale=NAN), "coulomb_scale must be >= 0 and finite"),
    (lambda cfg: replace(cfg.model, delta_scale=INF), "delta_scale must be >= 0 and finite"),
    (lambda cfg: build_spectrum(replace(cfg.model, positive_energies=(1.0, INF))),
     "positive list contains non-positive or non-finite energy inf"),
    (lambda cfg: build_spectrum(replace(cfg.model, negative_energies=(-INF, -1.2))),
     "negative list contains non-negative or non-finite energy -inf"),
], ids=["coulomb_scale-nan", "delta_scale-inf",
        "positive_energies-inf", "negative_energies-inf"])
def test_dataclasses_reject_non_finite_values(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        build(parse_config(MINIMAL))


@pytest.mark.parametrize("build, message", [
    (lambda cfg: replace(cfg, bw_order=INF), "bw_order must be an integer, got inf"),
    (lambda cfg: replace(cfg, bw_order=2.5), "bw_order must be an integer, got 2.5"),
    (lambda cfg: replace(cfg, state_index=0.0), "state_index must be an integer, got 0.0"),
    (lambda cfg: replace(cfg, j_order=2.5), "j_order must be an integer, got 2.5"),
    (lambda cfg: replace(cfg.model, seed=1.5), "seed must be an integer, got 1.5"),
], ids=["bw_order-inf", "bw_order-2.5", "state_index-0.0", "j_order-2.5", "seed-1.5"])
def test_dataclasses_reject_non_integer_settings(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build(parse_config(MINIMAL))


def test_dataclasses_accept_numpy_integers():
    cfg = parse_config(MINIMAL)
    numpy_ints = replace(cfg, bw_order=np.int64(3), state_index=np.int64(0),
                         j_order=np.int16(2),
                         model=replace(cfg.model, seed=np.uint8(1)))
    assert numpy_ints == cfg
    assert emit_config(numpy_ints) == emit_config(cfg)


def test_emit_config_text():
    """The canonical text, which config_hash digests, byte for byte."""
    cfg = parse_config(dim4_text() + "[interaction.coulomb]\nscale = 1\n"
                       "matrix = 1 2 0 0; 2 1 0 0; 0 0 1 0; 0 0 0 1\n"
                       "[interaction.delta]\npreset = random-symmetric\n")
    assert emit_config(replace(cfg, model=replace(cfg.model, coulomb_scale=1))) == (
        "[spectrum]\npositive_energies = 1.0\nnegative_energies = -1.2\n\n"
        "[interaction]\nseed = 1\n\n"
        "[interaction.coulomb]\nscale = 1\n"
        "matrix = 1.0 2.0 0.0 0.0; 2.0 1.0 0.0 0.0; 0.0 0.0 1.0 0.0; 0.0 0.0 0.0 1.0\n\n"
        "[interaction.delta]\nscale = 0.05\npreset = random-symmetric\n\n"
        "[integration]\nj_order = 2\n\n"
        "[bw]\norder = 3\n\n"
        "[solve]\nstate_index = 0\n"
    )


def dim4_text():
    return """
[spectrum]
positive_energies = 1.0
negative_energies = -1.2
"""


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_compare_json(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "compare"
    assert set(report) == {
        "version", "command", "config_hash", "config", "energy",
        "controversy", "identity_residuals", "oracle_energy", "timings_ms",
    }
    assert report["energy"]["deltaE"] == report["energy"]["E"] - report["energy"]["E_c"]
    diff = report["controversy"]["difference"]
    pred = report["controversy"]["predicted_difference"]
    assert diff != 0.0
    assert abs(diff - pred) / abs(diff) < 1e-8


def test_cli_compare_deterministic(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    _, out1 = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    _, out2 = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["timings_ms"], r2["timings_ms"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_cli_verify_exit_zero(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(v < 1e-8 for v in report["identity_residuals"].values())


def test_cli_verify_small_pole_gap(tmp_path, capsys):
    # jittered 2+2 spectrum whose oracle energy sits close to a pair energy;
    # the oracle's contour must pass between those two poles
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[spectrum]\n"
        "positive_energies = 1.0986622387666474, 1.5092459779361684\n"
        "negative_energies = -1.0221498351760716, -1.580227398414345\n"
        "[integration]\nj_order = 2\n"
    )
    code, out = run_cli(
        capsys, ["verify", "--config", str(path), "--format", "json", "--seed", "6"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_cli_verify_degenerate_config_exit3(tmp_path, capsys):
    # E_c lands exactly on the reference pair energy: pinched integrals
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[spectrum]\npositive_energies = 1.0, 1.1\nnegative_energies = -1.2\n"
        "[interaction.coulomb]\nscale = 0.0\n"
    )
    code = main(["verify", "--config", str(path)])
    assert code == 3


def test_cli_zero_couplings_verify(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(
        dim4_text() + "[interaction.coulomb]\nscale = 0.0\n"
        "[interaction.delta]\nscale = 0.0\n"
    )
    code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["identity_residuals"]["sandwich_vs_quadrature"] == 0.0
    assert rep["identity_residuals"]["g0mod_route"] == 0.0


def test_cli_oracle_nonconvergence_exit4(tmp_path, capsys, monkeypatch):
    def unsettled(*args, **kwargs):
        raise QuadratureConvergenceError("eta extrapolation did not settle")

    monkeypatch.setattr(bwlab.identities, "quadrature_finv", unsettled)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code = main(["verify", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == ["nonconvergence: eta extrapolation did not settle"]


def test_cli_verify_dense_levels_anchor_exit0(tmp_path, capsys):
    """A non-interacting model whose pair energies leave no gap of 0.05 in
    the anchor window [E_c + 0.1, E_c + 2] anchors the basic integral in the
    middle of the window's widest gap: verify passes, every residual within
    its tolerance."""
    levels = ", ".join(f"{1.0 + 0.08 * k:.2f}" for k in range(14))
    path = tmp_path / "cfg.ini"
    for negative in (-1.0, -1.2):
        path.write_text(f"[spectrum]\npositive_energies = {levels}\n"
                        f"negative_energies = {negative}\n"
                        "[interaction.coulomb]\nscale = 0\n[interaction.delta]\nscale = 0\n")
        code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(report["identity_residuals"][name] <= tol
                   for name, tol in report["tolerances"].items())


def test_cli_scan_zero_delta_coupling(tmp_path, capsys):
    # every difference is zero: the ratios, the exponent and R^2 are undefined
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[interaction.delta]\nscale = 0.0\n")
    code, out = run_cli(capsys, ["scan", "--config", str(path), "--format", "json"])
    assert code == 0
    scan = json.loads(out)["scan"]
    assert [row[1:] for row in scan["rows"]] == [[0, 0, None]] * 4
    assert scan["fitted_exponent"] is None
    assert scan["r_squared"] is None
    assert scan["failures"] == []
    code, out = run_cli(capsys, ["scan", "--config", str(path)])
    assert code == 0
    assert "r_squared         null" in out


def test_cli_scan_csv_zero_delta_coupling(tmp_path, capsys):
    # an undefined ratio is an empty CSV field, as it is null in JSON
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[interaction.delta]\nscale = 0.0\n")
    csv_path = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, ["scan", "--config", str(path), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,difference,predicted,ratio"
    assert len(lines) == 5
    for line in lines[1:]:
        lam, diff, pred, ratio = line.split(",")
        assert float(lam) > 0.0
        assert float(diff) == float(pred) == 0.0
        assert ratio == ""


def test_cli_seed_override_keeps_config(tmp_path):
    cfg_text = MINIMAL + "\n[interaction]\nseed = 9\n\n[bw]\norder = 2\n"
    path = tmp_path / "cfg.ini"
    path.write_text(cfg_text)
    args = build_parser().parse_args(["compare", "--config", str(path), "--seed", "4"])
    cfg = _load(args)
    assert cfg == replace(parse_config(cfg_text),
                          model=replace(parse_config(cfg_text).model, seed=4))
    args = build_parser().parse_args(["compare", "--config", str(path)])
    assert _load(args) == parse_config(cfg_text)


def test_cli_config_error_exit2(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[spectrum]\npositive_energies = 0.0\nnegative_energies = -1\n")
    assert main(["compare", "--config", str(path)]) == 2
    assert main(["compare", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_config_path_with_equals_sign(tmp_path, capsys):
    """A path that names a file is read as one, '=' in it or not."""
    path = tmp_path / "a=b" / "cfg.ini"
    path.parent.mkdir()
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["config"] == emit_config(parse_config(dim4_text()))
    path.write_text(dim4_text() + "[interaction.coulomb]\nscale = nan\n")
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "config error: interaction.coulomb.scale: non-finite value in 'nan'"]


def test_cli_malformed_config_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("[spectrum]\npositive_energies = 1.0\ngarbage line\n")
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"config error: config parse error: Source contains parsing errors: '{path}'"
        " [line 3]: 'garbage line\\n'"
    ]


def test_cli_scan_csv(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    csv_path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, [
        "scan", "--config", str(path), "--format", "json",
        "--scan-from", "0.02", "--scan-to", "0.16", "--scan-points", "4",
        "--csv", str(csv_path),
    ])
    assert code == 0
    report = json.loads(out)
    assert len(report["scan"]["rows"]) == 4
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "lambda,difference,predicted,ratio"
    assert len(lines) == 5
    for line in lines[1:]:
        lam, diff, pred, ratio = map(float, line.split(","))
        assert np.isfinite(diff)


def test_cli_scan_too_few_points(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    assert main(["scan", "--config", str(path), "--scan-points", "1"]) == 2


@pytest.mark.parametrize("scan_from, scan_to", [
    ("0", "0.16"), ("-0.1", "0.16"), ("nan", "0.16"), ("0.02", "inf"), ("0.1", "0.1"),
])
def test_cli_scan_bad_range_exit2(tmp_path, capsys, scan_from, scan_to):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code = main(["scan", "--config", str(path), f"--scan-from={scan_from}",
                 f"--scan-to={scan_to}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: scan range needs two different finite ends > 0"]


#: command lines that exit 2 on a default config, each with its one stderr line
ARGUMENT_ERRORS = {
    "negative seed": (["verify", "--seed", "-1"], "config error: seed must be >= 0"),
    "csv in a missing directory": (
        ["scan", "--csv", "{tmp}/missing/x.csv"],
        "error: cannot write --csv file: [Errno 2] No such file or directory: "
        "'{tmp}/missing/x.csv'"),
    "empty config path": (["compare", "--config", ""], "config error: config file not found: "),
}


@pytest.mark.parametrize("name", ARGUMENT_ERRORS)
def test_cli_argument_error_one_line_exit2(tmp_path, capsys, name):
    argv, message = ARGUMENT_ERRORS[name]
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [message.format(tmp=tmp_path)]


def test_cli_non_finite_config_exit2(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[interaction.coulomb]\nscale = nan\n")
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "config error: interaction.coulomb.scale: non-finite value in 'nan'"]


def test_json_float_format():
    text = render_json({"x": 0.1, "y": 2.0})
    assert text == '{"x":0.10000000000000001,"y":2}'


@pytest.mark.parametrize("report, where", [
    ({"energy": {"E": 2.0, "dE": NAN}}, "report.energy.dE: nan"),
    ({"scan": {"rows": [[0.1, 1.0], [0.2, -INF]]}}, "report.scan.rows[1][1]: -inf"),
    ({"timings_ms": (1.0, INF)}, "report.timings_ms[1]: inf"),
])
def test_render_json_rejects_non_finite_by_path(report, where):
    with pytest.raises(ValueError, match=f"^non-finite value at {re.escape(where)}$"):
        render_json(report)


#: the sections of each command's report, between base_report's keys and
#: timings_ms, and the one timing key
REPORT_SECTIONS = {
    "verify": (["identity_residuals", "tolerances", "passed"], "identities"),
    "compare": (["energy", "controversy", "identity_residuals", "oracle_energy"], "pipeline"),
    "scan": (["scan"], "scan"),
}


@pytest.mark.parametrize("command", REPORT_SECTIONS)
def test_cli_report_keys_in_order(tmp_path, capsys, command):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, [command, "--config", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    sections, timing = REPORT_SECTIONS[command]
    assert list(report) == ["version", "command", "config_hash", "config", *sections,
                            "timings_ms"]
    assert list(report["timings_ms"]) == [timing]


@pytest.mark.parametrize("command", ["compare", "scan", "verify"])
def test_cli_state_index_out_of_range_exit2(tmp_path, capsys, command):
    # the dim-4 model has a single doubly-positive state
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[solve]\nstate_index = 99\n")
    code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "config error: solve.state_index 99 outside the 1-state doubly-positive block"
    ]


def test_cli_empty_eta_sequence_exit2(tmp_path, capsys):
    """The oracle takes no eta ladder and no cutoff: either key is unknown."""
    path = tmp_path / "cfg.ini"
    for line in ("eta_sequence =", "cutoff_factor = 1e4"):
        path.write_text(dim4_text() + f"[integration]\n{line}\n")
        code = main(["compare", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        key = line.split()[0]
        assert err.splitlines() == [f"config error: unknown key '{key}' in section [integration]"]


def test_verify_checks_configured_state(tmp_path, capsys):
    """verify studies the no-pair state solve.state_index, as compare does.
    On the default spectrum state 1 is the antisymmetric pp state, whose
    E_c = 2.5 is a pair energy: both commands exit 3.  State 2 is regular:
    the suite runs on compare's E_c and passes."""
    path = tmp_path / "cfg.ini"
    path.write_text("[solve]\nstate_index = 1\n")
    for command in ("compare", "verify"):
        assert main([command, "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("degenerate denominator: ")

    path.write_text("[solve]\nstate_index = 2\n")
    code, out = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    assert code == 0
    cfg = parse_config(str(path))
    assert reference_state(cfg).E_c == json.loads(out)["energy"]["E_c"]
    assert reference_state(cfg).E_c != reference_state(parse_config("[spectrum]\n")).E_c
    assert suite_passes(identity_suite(cfg))


def test_cli_verify_residual_out_of_tolerance_exit1(tmp_path, capsys, monkeypatch):
    # a perturbed S-sum route no longer reproduces the direct kernel integral
    route = bwlab.identities.xj_matrix_ssum_route

    def perturbed(*args, **kwargs):
        return 1.001 * route(*args, **kwargs)

    monkeypatch.setattr(bwlab.identities, "xj_matrix_ssum_route", perturbed)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    res, tol = report["identity_residuals"], report["tolerances"]
    assert res["g0mod_route"] > tol["g0mod_route"]
    assert res["central_claim"] > tol["central_claim"]


def test_cli_scan_point_failures_exit3(tmp_path, capsys, monkeypatch):
    # the S-sum build fails at lambda = 0.16, in the stacked build of the
    # chunk and in that point's build alone
    stacked = bwlab.propagators.xj_stack

    def lost_at_largest(basis, E, g_delta, order, v, routes=("direct", "ssum")):
        if "ssum" in routes and np.max(np.abs(g_delta)) > 0.005:  # 0.05 lambda
            raise OracleTrackingError("overlap tracking ambiguous")
        return stacked(basis, E, g_delta, order, v, routes)

    for module in (bwlab.propagators, bwlab.pipeline):
        monkeypatch.setattr(module, "xj_stack", lost_at_largest)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["scan", "--config", str(path), "--format", "json"])
    assert code == 3
    scan = json.loads(out)["scan"]
    assert len(scan["rows"]) == 3
    assert scan["failures"] == [[0.16, "OracleTrackingError: overlap tracking ambiguous"]]


#: the dim-9 config on which the BW secant search does not converge in
#: bw.MAX_ITER iterations: f(E) has a pole between E_c and its two roots
BW_NONCONVERGENT = """
[spectrum]
positive_energies = 1.0, 1.5
negative_energies = -1.2
[interaction]
seed = 4
[interaction.coulomb]
scale = 0.55365
preset = random-symmetric
[interaction.delta]
scale = 0.92275
preset = random-symmetric
"""


def test_cli_compare_bw_nonconvergence_exit4(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(BW_NONCONVERGENT)
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["nonconvergence: BW self-consistency did not converge in 200 "
                                "iterations (last residual 1.034e+01)"]


def test_cli_compare_oracle_tracking_exit5(tmp_path, capsys, monkeypatch):
    def lost(*args, **kwargs):
        raise OracleTrackingError("tracked eigenvalue not real: (2+1j)")

    monkeypatch.setattr(bwlab.pipeline, "model_oracle", lost)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["model oracle: tracked eigenvalue not real: (2+1j)"]


def test_cli_verify_deterministic(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    _, out1 = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
    _, out2 = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["timings_ms"], r2["timings_ms"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def identity_rows(table):
    """{name: (residual, tolerance, verdict)} of the verify table, and the
    overall verdict."""
    lines = table.splitlines()
    start = lines.index("identity residuals") + 1
    rows, overall = {}, None
    for line in lines[start:]:
        if not line.strip():
            break
        fields = line.split()
        if fields[0] == "verdict":
            overall = fields[1]
        else:
            name, residual, tol_word, tol, verdict = fields
            assert tol_word == "tol"
            rows[name] = (float(residual), float(tol), verdict)
    return rows, overall


def test_cli_verify_table_shows_verdicts(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["verify", "--config", str(path)])
    assert code == 0
    rows, overall = identity_rows(out)
    assert set(rows) == set(bwlab.identities.TOLERANCES)
    for name, (residual, tol, verdict) in rows.items():
        assert tol == bwlab.identities.TOLERANCES[name]
        assert residual <= tol and verdict == "PASS"
    assert overall == "PASS"


def test_cli_verify_table_shows_failures(tmp_path, capsys, monkeypatch):
    route = bwlab.identities.xj_matrix_ssum_route

    def perturbed(*args, **kwargs):
        return 1.001 * route(*args, **kwargs)

    monkeypatch.setattr(bwlab.identities, "xj_matrix_ssum_route", perturbed)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["verify", "--config", str(path)])
    assert code == 1
    rows, overall = identity_rows(out)
    failed = {name for name, (_, _, verdict) in rows.items() if verdict == "FAIL"}
    assert {"g0mod_route", "central_claim"} <= failed
    assert all(rows[name][0] > rows[name][1] for name in failed)
    assert all(rows[name][0] <= rows[name][1] for name in set(rows) - failed)
    assert overall == "FAIL"


def test_cli_compare_table_has_no_verdict(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["compare", "--config", str(path)])
    assert code == 0
    assert "verdict" not in out and "PASS" not in out


def test_cli_parser_built_once(tmp_path, capsys):
    """main() reuses one parser: successive commands print and return what
    runs on a freshly built parser do, and a bad flag still exits 2."""
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    runs = [["verify", "--config", str(path), "--format", "json"],
            ["compare", "--config", str(path), "--format", "json", "--seed", "3"],
            ["scan", "--config", str(path), "--format", "json"],
            ["compare", "--config", str(path), "--format", "table"]]

    def outcome(argv):
        code, out = run_cli(capsys, argv)
        if "json" in argv:
            report = json.loads(out)
            del report["timings_ms"]
            out = json.dumps(report, sort_keys=True)
        else:
            out = out.split("timings [ms]")[0]
        return code, out

    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    parser = build_parser()
    assert [outcome(argv) for argv in runs] == fresh
    assert build_parser() is parser
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--no-such-flag"])
    assert exc.value.code == 2
    assert build_parser() is parser
    assert outcome(runs[1]) == fresh[1]


def test_cli_compare_degenerate_pair_exit3(tmp_path, capsys):
    """With a strong delta coupling the BW iteration reaches the pp pair
    energy 2 of the dim-4 model: the unmixed pair-denominator guard aborts."""
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[interaction.delta]\nscale = 3\n")
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "degenerate denominator: degenerate pair denominator at E = 2, pair index(es) [0]"]


def test_cli_compare_singular_ladder_block_exit3(tmp_path, capsys):
    """E_c = 2 + 0.5 with g_pp,pp = 0.5 and g zero across the pp and mm
    pairs: E S_u - K has a zero row and column at E = E_c, where BW starts."""
    path = tmp_path / "cfg.ini"
    path.write_text(
        dim4_text()
        + "[interaction.coulomb]\nscale = 1\nmatrix = 0.5 0 0 0; 0 0 0 0; 0 0 0 0; 0 0 0 0\n"
        + "[interaction.delta]\nscale = 1\nmatrix = 0.5 0 0 0; 0 0 0 0; 0 0 0 0; 0 0 0 0.25\n"
    )
    code = main(["compare", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "degenerate denominator: singular ladder block E S_u - K at E = 2.5"]


#: config texts (or bytes) that exit 2, each with its one stderr line
CONFIG_ERRORS = {
    "quadrature_points": (dim4_text() + "[integration]\nquadrature_points = 3\n",
                          "unknown key 'quadrature_points' in section [integration]"),
    "negative seed": (dim4_text() + "[interaction]\nseed = -3\n", "seed must be >= 0"),
    "not UTF-8": (b"\xff\xfe" + dim4_text().encode(),
                  "cannot read config file: 'utf-8' codec can't decode byte 0xff in position 0:"
                  " invalid start byte"),
    "bw.order": (dim4_text() + "[bw]\norder = 4\n", "bw.order must be in 1..3"),
    "bw.max_iter": (dim4_text() + "[bw]\nmax_iter = 200\n",
                    "unknown key 'max_iter' in section [bw]"),
    "bw.tol": (dim4_text() + "[bw]\ntol = 1e-12\n", "unknown key 'tol' in section [bw]"),
    "solve.state_index": (dim4_text() + "[solve]\nstate_index = -1\n",
                          "solve.state_index must be >= 0"),
    "j_order": (dim4_text() + "[integration]\nj_order = 2.5\n",
                "integration.j_order: could not parse integer '2.5'"),
    "non-square matrix": (dim4_text() + "[interaction.coulomb]\nmatrix = 1 2; 3\n",
                          "interaction.coulomb.matrix: matrix must be square"),
    "positives only": ("[spectrum]\npositive_energies = 1.0\n",
                       "spectrum needs both positive_energies and negative_energies"),
    "unknown preset": (dim4_text() + "[interaction.delta]\npreset = zeros\n",
                       "unknown delta preset 'zeros'"),
    "matrix size": (dim4_text() + "[interaction.coulomb]\nmatrix = 1 0; 0 1\n",
                    "interaction matrix is 2x2, basis needs 4x4"),
    "asymmetric matrix": (dim4_text() + "[interaction.coulomb]\n"
                          "matrix = 1 0 0 0; 0.5 1 0 0; 0 0 1 0; 0 0 0 1\n",
                          "explicit interaction matrix is not symmetric"),
    "duplicate level": ("[spectrum]\npositive_energies = 1.0, 1.0\nnegative_energies = -1.2\n",
                        "duplicate energy in spectrum"),
    "huge level": ("[spectrum]\npositive_energies = 1e308\nnegative_energies = -1e308\n",
                   "energy 1e+308 is not below 1e+150 in magnitude"),
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_cli_config_error_one_line_exit2(tmp_path, capsys, name):
    """Each config error ends verify, compare and scan alike: exit 2, its
    one stderr line and no stdout (scan runs no point on it)."""
    text, message = CONFIG_ERRORS[name]
    path = tmp_path / "cfg.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    for command in ("verify", "compare", "scan"):
        code = main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert (command, code, out, err.splitlines()) == (
            command, 2, "", [f"config error: {message}"])


def test_every_package_error_has_an_abort_row():
    """Each BwlabError subclass of errors.py takes the ABORTS row of the
    first class in its MRO that has one: a QuadratureConvergenceError is a
    nonconvergence."""
    classes = [c for c in vars(bwlab.errors).values()
               if isinstance(c, type) and issubclass(c, BwlabError) and c is not BwlabError]
    rows = {c.__name__: next(ABORTS[k] for k in c.__mro__ if k in ABORTS) for c in classes}
    assert rows == {
        "ConfigError": ("config error", 2),
        "DegenerateDenominatorError": ("degenerate denominator", 3),
        "OracleTrackingError": ("model oracle", 5),
        "ConvergenceError": ("nonconvergence", 4),
        "QuadratureConvergenceError": ("nonconvergence", 4),
    }


def test_cli_verify_weak_coupling_oracle_exit4(tmp_path, capsys):
    """At coulomb 0.01 and 0.03 (delta half of it) on the default spectrum,
    E_c lies about one coupling from a pair energy.  The oracle's contour
    passes between those two poles: verify passes, every residual within
    its tolerance.  At 1e-4 and 1e-5 the 2.5 pair levels also lie within
    about a coupling of E_c + 0.5; the resolvent identity is taken in the
    middle of the widest gap between the poles of G_Q, far from them."""
    path = tmp_path / "cfg.ini"
    for scale in (0.01, 0.03, 1e-4, 1e-5):
        path.write_text(f"[interaction.coulomb]\nscale = {scale}\n"
                        f"[interaction.delta]\nscale = {scale / 2}\n")
        code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(report["identity_residuals"][name] <= tol
                   for name, tol in report["tolerances"].items())


def test_cli_verify_few_quadrature_points_exit4(capsys, monkeypatch):
    """With 4 points per panel the oracle's two contour rules disagree:
    verify aborts with exit 4 and one stderr line."""
    monkeypatch.setattr(bwlab.quadrature, "COARSE_POINTS", 4)
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("nonconvergence: ")


def test_cli_verify_jittered_dim64(tmp_path, capsys):
    """verify passes on jittered 4 + 4 levels (dim 64, the benchmark's
    jitter at seed 0), every residual within its tolerance."""
    rng = np.random.default_rng([0, 4])
    pos = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(4)]
    neg = [-1.0 - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(4)]
    path = tmp_path / "cfg.ini"
    path.write_text(f"[spectrum]\npositive_energies = {', '.join(map(repr, pos))}\n"
                    f"negative_energies = {', '.join(map(repr, neg))}\n")
    code, out = run_cli(capsys, ["verify", "--config", str(path), "--format", "json",
                                 "--seed", "0"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_cli_scan_table_lists_failed_points(tmp_path, capsys):
    """Two positive levels 5e-11 apart put E_c on a pair energy at every
    point: the table has no rows and one FAILED line per lambda."""
    path = tmp_path / "cfg.ini"
    path.write_text("[spectrum]\npositive_energies = 1.0, 1.00000000005\n"
                    "negative_energies = -1.2\n")
    code, out = run_cli(capsys, ["scan", "--config", str(path)])
    assert code == 3
    lines = out.splitlines()
    header = lines.index("coupling scan") + 1
    assert lines[header + 1:header + 3] == ["  fitted_exponent   null", "  r_squared         null"]
    failed = [line for line in lines if line.startswith("  FAILED lambda=")]
    lams = np.geomspace(0.02, 0.16, 4)
    assert failed == [f"  FAILED lambda={lam}: DegenerateDenominatorError: degenerate pair "
                      "denominator at E = 2.00000000001, pair index(es) [0, 1, 3, 4]"
                      for lam in lams]


def test_cli_report_formats_config_once(tmp_path, capsys, monkeypatch):
    """base_report emits the config text once and hashes that text: the
    hash equals config_hash, and the version is the package's."""
    calls = []
    emit = bwlab.report.emit_config

    def counted(cfg):
        calls.append(cfg)
        return emit(cfg)

    monkeypatch.setattr(bwlab.config, "emit_config", counted)
    monkeypatch.setattr(bwlab.report, "emit_config", counted)
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    code, out = run_cli(capsys, ["compare", "--config", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert len(calls) == 1
    assert report["config_hash"] == config_hash(parse_config(str(path)))
    assert report["config"] == emit(parse_config(str(path)))
    assert report["version"] == bwlab.__version__


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_exit6(tmp_path, flags):
    """With the read end of its stdout pipe already closed, the CLI prints
    one stderr line and exits 6, with no traceback at interpreter exit,
    whether stdout is block-buffered (the default for a pipe) or not."""
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bwlab.cli", "compare", "--config", str(path),
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 6
    assert proc.stderr.splitlines() == ["error: stdout closed before the report was written"]


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_cli_overflowing_interaction_exit2(tmp_path, capsys, command):
    """A finite scale whose product with the explicit matrix overflows is a
    config error: exit 2 and one stderr line, before any numpy warning or
    BW iteration."""
    path = tmp_path / "cfg.ini"
    path.write_text(dim4_text() + "[interaction.coulomb]\nscale = 1e308\n"
                    "matrix = 10 1 1 1; 1 10 1 1; 1 1 10 1; 1 1 1 10\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, caught) == (2, "", [])
    assert err.splitlines() == [
        "config error: coulomb scale 1e+308 times its matrix is not finite"]
