import numpy as np
import pytest

from bwlab import (
    DegenerateDenominatorError,
    ModelConfig,
    OracleTrackingError,
    build_basis,
    build_G0,
    build_HDelta1,
    build_Hc,
    build_interaction,
    build_spectrum,
    contour_integral_Finv,
    dirac_like_energies,
    model_oracle,
    predicted_discrepancy,
    solve_no_pair,
    xj_matrix_ssum_route,
)
from bwlab.controversy import ladder_kernel
from bwlab.operators import build_D, build_Dc, free_propagator, inverse_denominator, projectors
from bwlab.pipeline import ReferenceState
from conftest import energy_away_from_poles, random_spectrum

from bwlab.model import SingleParticleSpectrum


def test_build_Hc_rejects_a_wrong_shape(dim4):
    spectrum, basis, I_c, _ = dim4
    with pytest.raises(ValueError, match=r"^I_c has shape \(3, 3\), basis needs \(4, 4\)$"):
        build_Hc(basis, I_c[:3, :3])


def test_projectors_dim4(dim4):
    spectrum, basis, _, _ = dim4
    p = projectors(basis)
    assert np.array_equal(np.diag(p.pp), [1, 0, 0, 0])
    assert np.array_equal(np.diag(p.mm), [0, 0, 0, 1])
    total = p.pp + p.pm + p.mp + p.mm
    assert np.array_equal(total, np.eye(4))
    assert np.max(np.abs(p.pp @ p.mm)) == 0.0


def test_projector_algebra_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pos, neg = random_spectrum(rng)
        basis = build_basis(SingleParticleSpectrum.from_lists(pos, neg))
        p = projectors(basis)
        mats = [p.pp, p.pm, p.mp, p.mm]
        for m in mats:
            assert np.max(np.abs(m @ m - m)) < 1e-14
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                assert np.max(np.abs(a @ b)) == 0.0
        assert np.array_equal(sum(mats), np.eye(basis.dim))


def test_build_D_values(dim4):
    spectrum, basis, _, _ = dim4
    assert np.allclose(np.diag(build_D(basis, 2.1)), [0.1, 2.3, 2.3, 4.5])
    assert np.allclose(np.diag(build_D(basis, 0.0)), [-2.0, 0.2, 0.2, 2.4])


def test_build_Dc_and_shift(dim4):
    spectrum, basis, _, _ = dim4
    assert np.allclose(np.diag(build_Dc(basis, 2.1)), [0.1, 2.3, 2.3, 4.5])
    D = build_D(basis, 2.7)
    Dc = build_Dc(basis, 2.1)
    assert np.allclose(D - Dc, 0.6 * np.eye(4))
    # a degenerate entry is constructed fine; inversion is what rejects
    assert build_Dc(basis, 2.0)[0, 0] == 0.0


def test_build_Hc(dim4):
    spectrum, basis, I_c, _ = dim4
    H = build_Hc(basis, I_c)
    assert H[0, 0] == pytest.approx(2.1)
    off = H - np.diag(np.diag(H))
    assert np.max(np.abs(off)) == 0.0  # 1-dim ++ block: no off-diagonal survives
    p = projectors(basis)
    assert np.max(np.abs(H @ p.pp - p.pp @ H)) < 1e-14
    assert np.max(np.abs(H @ p.mm - p.mm @ H)) < 1e-14


def test_build_Hc_zero_coupling(dim4):
    spectrum, basis, _, _ = dim4
    H = build_Hc(basis, np.zeros((4, 4)))
    assert np.allclose(H, np.diag([2.0, -0.2, -0.2, -2.4]))


def test_build_HDelta1_rows(dim4):
    spectrum, basis, I_c, _ = dim4
    hd1 = build_HDelta1(basis, I_c)
    assert np.allclose(hd1[0], [0.0, 0.1, 0.1, 0.1])
    assert np.allclose(hd1[3], [-0.1, -0.1, -0.1, -0.1])
    assert np.max(np.abs(hd1[1])) == 0.0
    assert np.max(np.abs(hd1[2])) == 0.0


def test_HDelta1_pp_block_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(5):
        pos, neg = random_spectrum(rng)
        basis = build_basis(SingleParticleSpectrum.from_lists(pos, neg))
        p = projectors(basis)
        I_c = rng.uniform(-1, 1, size=(basis.dim, basis.dim))
        I_c = 0.5 * (I_c + I_c.T)
        hd1 = build_HDelta1(basis, I_c)
        assert np.max(np.abs(p.pp @ hd1 @ p.pp)) < 1e-15


def test_HDelta1_zero_coupling(dim4):
    spectrum, basis, _, _ = dim4
    assert not np.any(build_HDelta1(basis, np.zeros((4, 4))))


def test_build_G0_values(dim4):
    spectrum, basis, _, _ = dim4
    G0 = build_G0(basis, 2.1)
    assert np.allclose(np.diag(G0), [10.0, 0.0, 0.0, -1.0 / 4.5])


def test_build_G0_large_E_limit(dim4):
    spectrum, basis, _, _ = dim4
    G0 = build_G0(basis, 1e9)
    assert np.max(np.abs(np.diag(G0))) < 1e-8


def test_build_G0_degenerate(dim4):
    spectrum, basis, _, _ = dim4
    with pytest.raises(DegenerateDenominatorError):
        build_G0(basis, 2.0)


def test_G0_matches_contour_integral():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pos, neg = random_spectrum(rng)
        spectrum = SingleParticleSpectrum.from_lists(pos, neg)
        basis = build_basis(spectrum)
        sums = {a + b for a in spectrum.energies for b in spectrum.energies}
        E = 5.0
        while any(abs(E - s) < 0.2 for s in sums):
            E = float(rng.uniform(-4, 7))
        G0 = build_G0(basis, E)
        assert np.max(np.abs(G0 - contour_integral_Finv(basis, E))) < 1e-12


# -- sign masks against the dense projector formulas ---------------------------


def mask_cases():
    """(name, spectrum, I_c, g): dim 4, a jittered 3+3 and a random dim-64
    spectrum, with random symmetric interactions."""
    rng = np.random.default_rng([8, 3])
    jit_pos = [1.0 + 0.5 * k + rng.uniform(0.0, 0.1) for k in range(3)]
    jit_neg = [-1.0 - 0.5 * k - rng.uniform(0.0, 0.1) for k in range(3)]
    rand_pos = np.sort(rng.uniform(0.5, 3.0, size=5))
    rand_neg = -np.sort(rng.uniform(0.5, 3.0, size=3))
    out = []
    for name, pos, neg in (("dim4", [1.0], [-1.2]), ("jittered 3+3", jit_pos, jit_neg),
                           ("random dim 64", rand_pos, rand_neg)):
        config = ModelConfig(positive_energies=tuple(pos), negative_energies=tuple(neg),
                             coulomb_matrix="random-symmetric", delta_matrix="random-symmetric")
        out.append((name, build_spectrum(config), build_interaction(config, "coulomb"),
                    build_interaction(config, "delta")))
    return out


def dense_G0(basis, E, p):
    """build_G0 as written with dense projectors."""
    denom = E - basis.pair_energies()
    sel = np.diag(p.pp) + np.diag(p.mm)
    sign = np.diag(p.pp) - np.diag(p.mm)
    out = np.zeros_like(denom)
    mask = sel > 0
    out[mask] = sign[mask] / denom[mask]
    return np.diag(out)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", mask_cases(), ids=lambda c: c[0])
def test_masks_match_dense_projectors(case, monkeypatch):
    _, spectrum, I_c, g = case
    basis = build_basis(spectrum)
    p = projectors(basis)
    pair = np.diag(basis.pair_energies())
    assert_bitwise(build_Hc(basis, I_c), pair + p.pp @ I_c @ p.pp)
    assert_bitwise(build_HDelta1(basis, I_c),
                   p.pp @ I_c @ (np.eye(basis.dim) - p.pp) - p.mm @ I_c)
    E = energy_away_from_poles(np.random.default_rng(basis.dim), spectrum)
    assert_bitwise(np.diag(free_propagator(basis, E)), dense_G0(basis, E, p))
    assert_bitwise(build_G0(basis, E), dense_G0(basis, E, p))

    seen = []
    eig = np.linalg.eig

    def spy(H):
        seen.append(np.array(H))
        return eig(H)

    monkeypatch.setattr(np.linalg, "eig", spy)
    H_c = build_Hc(basis, I_c)
    E_c, psi_c, r = solve_no_pair(H_c, basis.pattern_indices("pp"))
    try:
        model_oracle(ReferenceState(basis, I_c, g, E_c, psi_c, r))
    except OracleTrackingError:
        pass  # the operator was built; tracking is not what is checked here
    assert len(seen) == 1
    unmixed = np.flatnonzero(np.diag(p.pp + p.mm))
    assert_bitwise(seen[0], (pair + (p.pp - p.mm) @ (I_c + g))[np.ix_(unmixed, unmixed)])


def full_oracle(basis, I_c, g, psi_c):
    """The model oracle with eig on the whole operator: (value, state) of
    the tracked eigenvalue, or the OracleTrackingError message."""
    H = np.diag(basis.pair_energies()) + basis.unmixed_sign[:, None] * (I_c + g)
    vals, vecs = np.linalg.eig(H)
    overlaps = np.abs(vecs.conj().T @ psi_c) / np.linalg.norm(vecs, axis=0)
    k = int(np.argmax(overlaps))
    if overlaps[k] ** 2 < 0.5:
        return "ambiguous"
    if abs(vals[k].imag) > 1e-10 * max(1.0, abs(vals[k].real)):
        return "not real"
    v = np.real(vecs[:, k])
    return vals[k].real, v / np.linalg.norm(v)


def oracle_cases():
    """(name, spectrum, I_c, g): the mask cases with their couplings scaled
    by 1/2, 3 and 10, the dim-4 fixture and the shipped default spectrum."""
    out = [(f"{name} x{k}", spectrum, k * I_c, k * g)
           for name, spectrum, I_c, g in mask_cases() for k in (0.5, 3.0, 10.0)]
    for name, config in (("dim4", ModelConfig(positive_energies=(1.0,), negative_energies=(-1.2,))),
                         ("default", ModelConfig(*dirac_like_energies()))):
        out.append((name, build_spectrum(config), build_interaction(config, "coulomb"),
                    build_interaction(config, "delta")))
    return out


@pytest.mark.parametrize("case", oracle_cases(), ids=lambda c: c[0])
def test_model_oracle_unmixed_block_tracks_full_eig(case):
    """eig on the unmixed block tracks the eigenvalue (and state) that eig
    on the whole block-triangular operator tracks, or fails the same way.
    The one exception: at strong coupling, the full eig's best overlap can
    be an eigenvector of a bare mixed-pair energy e_m, which does not move
    with the coupling and so is not psi_c's continuation; the unmixed block
    has no such eigenvector and its tracking fails instead."""
    _, spectrum, I_c, g = case
    basis = build_basis(spectrum)
    E_c, psi_c, r = solve_no_pair(build_Hc(basis, I_c), basis.pattern_indices("pp"))
    st = ReferenceState(basis, I_c, g, E_c, psi_c, r)
    want = full_oracle(basis, I_c, g, psi_c)
    mixed_energies = basis.pair_energies()[basis.unmixed_sign == 0]
    if isinstance(want, str) or np.any(mixed_energies == want[0]):
        with pytest.raises(OracleTrackingError, match=want if isinstance(want, str) else None):
            model_oracle(st)
        return
    val, vec = model_oracle(st, return_vector=True)
    assert abs(val - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
    assert abs(abs(vec @ want[1]) - 1.0) <= 1e-12


# -- the one guarded pair denominator --------------------------------------------

#: dim-4 fixture {+1.0, -1.2}: 2.0 is the pp pair energy, -0.2 a mixed one
UNMIXED_E, MIXED_E, GOOD_E = 2.0, -0.2, 2.1


def _predicted(basis, E, E_c, I_c, g):
    psi_c = np.array([1.0, 0.0, 0.0, 0.0])
    st = ReferenceState(basis, I_c, g, E_c, psi_c, None)
    return predicted_discrepancy(st, E, np.ones(basis.dim))


GUARD_SITES = {
    "inverse_denominator": lambda b, E, I_c, g: inverse_denominator(b, E),
    "free_propagator": lambda b, E, I_c, g: free_propagator(b, E),
    "build_G0": lambda b, E, I_c, g: build_G0(b, E),
    "ladder_kernel": lambda b, E, I_c, g: ladder_kernel(b, E, g),
    "contour_integral_Finv": lambda b, E, I_c, g: contour_integral_Finv(b, E),
    "xj_matrix_ssum_route": lambda b, E, I_c, g: xj_matrix_ssum_route(b, E, g, 2),
    "predicted_discrepancy at E":
        lambda b, E, I_c, g: _predicted(b, E, GOOD_E, I_c, g),
    "predicted_discrepancy at E_c":
        lambda b, E, I_c, g: _predicted(b, GOOD_E, E, I_c, g),
}

#: sites that guard every pair, so that a mixed-pair energy aborts them too
GUARD_EVERY_PAIR = {"inverse_denominator", "xj_matrix_ssum_route",
                    "predicted_discrepancy at E", "predicted_discrepancy at E_c"}


@pytest.mark.parametrize("energy", ["unmixed", "mixed"])
@pytest.mark.parametrize("site", sorted(GUARD_SITES))
def test_pair_denominator_guard(dim4, site, energy):
    spectrum, basis, I_c, g = dim4
    E = UNMIXED_E if energy == "unmixed" else MIXED_E
    call = GUARD_SITES[site]
    if energy == "unmixed" or site in GUARD_EVERY_PAIR:
        with pytest.raises(DegenerateDenominatorError):
            call(basis, E, I_c, g)
    else:
        assert np.all(np.isfinite(call(basis, E, I_c, g)))


def test_inverse_denominator_message_and_mask(dim4):
    _, basis, _, _ = dim4
    with pytest.raises(DegenerateDenominatorError, match=r"E = 2\b.*\[0\]"):
        inverse_denominator(basis, UNMIXED_E)
    with pytest.raises(DegenerateDenominatorError, match=r"E = -0.2\b.*\[1, 2\]"):
        inverse_denominator(basis, MIXED_E)
    got = inverse_denominator(basis, UNMIXED_E, np.array([False, True, True, True]))
    assert np.array_equal(got, [0.0, 1 / 2.2, 1 / 2.2, 1 / 4.4])


@pytest.mark.parametrize("pos, neg", [((1.0,), (-1.2,)), ((1.0, 1.6), (-1.2, -1.7))])
def test_contour_integral_at_mixed_pair_energies(pos, neg):
    """At E = e_i + e_j of a mixed pair its two poles merge into a double
    pole; the engine still reproduces (P_pp - P_mm) D^-1.  Just off that
    energy, within the merge tolerance of the pole clusters, a pair with both
    poles upper still gives exactly 0: it closes downwards."""
    spectrum = SingleParticleSpectrum.from_lists(pos, neg)
    basis = build_basis(spectrum)
    mixed = basis.unmixed_sign == 0
    energies = sorted(set(basis.pair_energies()[mixed].tolist()))
    for E in energies:
        G0 = build_G0(basis, E)
        got = contour_integral_Finv(basis, E)
        assert np.max(np.abs(got - G0)) <= 1e-13 * max(1.0, np.max(np.abs(G0)))
        for offset in (1e-14, 5e-13, -5e-13):
            got = np.diag(contour_integral_Finv(basis, E + offset))
            assert not np.any(got[mixed])

