"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Criteria are asserted at their stated tolerances; nothing here is
calibrated after the fact.

Shared fixtures: the canonical dim-4 model (spectrum {+1.0, -1.2}, ones
presets, couplings 0.1 / 0.05) and seeded random spectra with n <= 6.
"""

import json
import math
import time

import numpy as np
import pytest

from bwlab import (
    ModelConfig,
    RunConfig,
    build_basis,
    build_interaction,
    build_spectrum,
    build_Hc,
    bw_selfconsistent,
    combined_variant,
    contour_integral_Finv,
    coupling_scan,
    deltaE1_direct,
    deltaE2b_direct,
    model_oracle,
    predicted_discrepancy,
    propagator_S,
    quadrature_finv,
    run_pipeline,
    solve_no_pair,
    xj_matrix_ssum_route,
)
from bwlab.operators import build_D, projectors
from bwlab.cli import main
from bwlab.model import SingleParticleSpectrum
from conftest import energy_away_from_poles, random_spectrum

DIM4 = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                   coulomb_scale=0.1, delta_scale=0.05)

FIXTURES = [
    DIM4,
    ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7),
                coulomb_scale=0.1, delta_scale=0.05),
    ModelConfig(positive_energies=(1.0, 1.6), negative_energies=(-1.1,),
                coulomb_scale=0.08, delta_scale=0.04,
                coulomb_matrix="random-symmetric",
                delta_matrix="random-symmetric", seed=12),
]


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_basic_contour_identity():
    """contour integral = (P_pp - P_mm) D^-1 to 1e-12 and quadrature to
    1e-6 relative; dim-4 fixture plus 20 seeded random spectra, < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_exact, worst_quad = 0.0, 0.0
    cases = [build_spectrum(DIM4)]
    while len(cases) < 21:
        pos, neg = random_spectrum(rng)
        cases.append(SingleParticleSpectrum.from_lists(pos, neg))
    for idx, spectrum in enumerate(cases):
        basis = build_basis(spectrum)
        E = 2.1 if idx == 0 else energy_away_from_poles(rng, spectrum)
        closed = contour_integral_Finv(basis, E)
        p = projectors(basis)
        d = E - basis.pair_energies()
        expected = (np.diag(p.pp) - np.diag(p.mm)) / d
        worst_exact = max(worst_exact, float(np.max(np.abs(np.diag(closed) - expected))))
        quad = quadrature_finv(spectrum, E)
        scale = max(np.max(np.abs(closed)), 1e-30)
        worst_quad = max(worst_quad, float(np.max(np.abs(quad - closed))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_exact < 1e-12 and worst_quad < 1e-6 and elapsed < 10.0
    report("criterion 1 (basic contour identity)", ok,
           f"exact {worst_exact:.2e}, quad {worst_quad:.2e}, {elapsed:.1f}s")


def test_criterion_2_g0mod_identity():
    """F^-1 = S1 S2 = D^-1 (S1+S2) entrywise < 1e-12 at 100 samples."""
    rng = np.random.default_rng(7)
    spectrum = build_spectrum(FIXTURES[1])
    basis = build_basis(spectrum)
    worst = 0.0
    checked = 0
    while checked < 100:
        E = energy_away_from_poles(rng, spectrum)
        eps = float(rng.uniform(-5, 5))
        s1 = propagator_S(basis, E, eps, 1)
        s2 = propagator_S(basis, E, eps, 2)
        if np.min(np.abs(1.0 / s1)) < 0.05 or np.min(np.abs(1.0 / s2)) < 0.05:
            continue
        d = E - basis.pair_energies()
        resid = np.max(np.abs(s1 * s2 - (s1 + s2) / d))
        worst = max(worst, float(resid))
        checked += 1
    report("criterion 2 (G0mod identity)", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_3_dm1_identity():
    """D^-1 = Dc^-1 - dE/(Dc D), scalar and diagonal forms, < 1e-13."""
    rng = np.random.default_rng(8)
    spectrum = build_spectrum(FIXTURES[1])
    basis = build_basis(spectrum)
    worst = 0.0
    for _ in range(100):
        E = energy_away_from_poles(rng, spectrum)
        Ec = energy_away_from_poles(rng, spectrum)
        dE = E - Ec
        # scalar form on each diagonal entry, then the operator form
        d = E - basis.pair_energies()
        dc = Ec - basis.pair_energies()
        scalar = np.max(np.abs(1.0 / d - (1.0 / dc - dE / (dc * d))))
        Dinv = np.linalg.inv(build_D(basis, E))
        Dcinv = np.linalg.inv(build_D(basis, Ec))
        DcD_inv = Dcinv @ Dinv
        op = np.max(np.abs(Dinv - (Dcinv - dE * DcD_inv)))
        worst = max(worst, float(scalar), float(op))
    report("criterion 3 (Dm1 identity)", worst < 1e-13, f"worst {worst:.2e}")


def test_criterion_4_resolvent_identity():
    """P_mm G(E) D(E) = P_mm, matrix residual < 1e-12 on all fixtures."""
    worst = 0.0
    for cfg in FIXTURES:
        spectrum = build_spectrum(cfg)
        basis = build_basis(spectrum)
        I_c = build_interaction(cfg, "coulomb")
        H = build_Hc(basis, I_c)
        E_c, psi, r = solve_no_pair(H, basis.pattern_indices("pp"))
        mm = projectors(basis).mm
        for shift in (0.1, 0.23, 0.52):
            E = E_c + shift
            resid = np.max(np.abs(mm @ r.matrix(E) @ build_D(basis, E) - mm))
            worst = max(worst, float(resid))
    report("criterion 4 (resolvent identity)", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_5_bw_correctness():
    """2x2 self-consistent BW at order 2 hits (1 - sqrt(1.04))/2 to 1e-10;
    the dim-4 |E_BW - E_oracle| falls like lambda^4 (slope 4 +- 0.3)."""
    H_c = np.diag([0.0, 1.0])
    V = np.array([[0.0, 0.1], [0.1, 0.0]])
    psi = np.array([1.0, 0.0])
    _, _, r = solve_no_pair(H_c, range(2))
    led = bw_selfconsistent(r, lambda _: V.__matmul__, psi, 0.0, order=2)
    exact = (1.0 - math.sqrt(1.04)) / 2.0
    err22 = abs(led.E - exact)

    lams = [0.02, 0.04, 0.08]
    errs = []
    for lam in lams:
        cfg = ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,),
                          coulomb_scale=lam, delta_scale=lam / 2)
        res = run_pipeline(RunConfig(cfg))
        errs.append(abs(res.ledger.E - res.oracle_energy))
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    ok = err22 < 1e-10 and abs(slope - 4.0) < 0.3
    report("criterion 5 (BW correctness)", ok,
           f"2x2 err {err22:.2e}, dim-4 slope {slope:.3f}")


def test_criterion_6_central_claim():
    """lindgren - dkz = 2 dE <psi|Y|psi> to 1e-12 scaled and
    dE1 + dE2b = lindgren to 1e-10 relative, on all fixtures."""
    worst_claim, worst_chain = 0.0, 0.0
    for model in FIXTURES:
        cfg = RunConfig(model)
        res = run_pipeline(cfg)
        basis = res.state.basis
        E, E_c, psi = res.ledger.E, res.ledger.E_c, res.state.psi_c
        I_c, g = res.state.I_c, res.state.g_delta
        rep = res.controversy
        Xv_alt = xj_matrix_ssum_route(basis, E, g, cfg.j_order, v=I_c @ psi)
        predicted, _, _ = predicted_discrepancy(basis, E, E_c, psi, I_c, Xv_alt)
        scale = max(1.0, abs(rep.combined_lindgren))
        worst_claim = max(worst_claim, abs(rep.difference - predicted) / scale)
        worst_chain = max(
            worst_chain,
            abs(rep.dE1_direct + rep.dE2b_direct - rep.combined_lindgren)
            / abs(rep.combined_lindgren),
        )
    ok = worst_claim < 1e-12 and worst_chain < 1e-10
    report("criterion 6 (central controversy claim)", ok,
           f"claim {worst_claim:.2e}, chain {worst_chain:.2e}")


def test_criterion_7_order_counting_scan():
    """Scan slope of |difference| vs lambda: equals the power-counted
    integer (3 for the default model) within +-0.2, R^2 > 0.999, < 60 s.

    Known-red: the reference-pair denominator E - e1 - e1 shrinks like
    lambda under the joint coupling scan, which breaks the naive counting;
    see the Decisions section of CHANGES.md for the analysis and the
    measured exponents.
    """
    predicted_integer = 3
    cfg = ModelConfig(positive_energies=(1.0, 1.5), negative_energies=(-1.2, -1.7),
                      coulomb_scale=0.1, delta_scale=0.05)
    t0 = time.perf_counter()
    rows, slope, r2, failures = coupling_scan(
        RunConfig(cfg), [0.02, 0.04, 0.08, 0.16]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        not failures
        and abs(slope - predicted_integer) <= 0.2
        and r2 > 0.999
        and elapsed < 60.0
    )
    report("criterion 7 (order-counting scan)", ok,
           f"slope {slope:.3f} (want {predicted_integer} +- 0.2), "
           f"R^2 {r2:.5f}, {elapsed:.1f}s, failures {len(failures)}")


def test_criterion_8_determinism(tmp_path, capsys):
    """Two runs of the same config give byte-identical JSON minus timings."""
    path = tmp_path / "cfg.ini"
    path.write_text("[spectrum]\npositive_energies = 1.0\nnegative_energies = -1.2\n")

    def run_once():
        code = main(["compare", "--config", str(path), "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        del data["timings_ms"]
        return json.dumps(data, sort_keys=True)

    first, second = run_once(), run_once()
    report("criterion 8 (determinism)", first == second,
           f"{len(first)} bytes compared")
