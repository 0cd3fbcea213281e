import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import config, families, oracles, oscillation, transform
from vilenkin.errors import UsageError
from vilenkin.group import coset_key_table
from vilenkin.oscillation import YoungFunction

from test_character_tensor import MORE_GRIDS


def test_constant_has_no_oscillation(ns):
    f = transform.StepFunction(
        ns, ns.resolution, np.full(ns.cell_count, 1.5, dtype=np.complex128))
    prof = oscillation.oscillation_profile(f)
    for k in range(1, prof.resolution + 1):
        assert prof.omega[k] == 0.0
        assert prof.total[k] == 0.0
        assert prof.nu[k] == 0.0


def _coset_oscillation(f, k, beta):
    """omega_beta(k), the diameter of f over Z_beta^(k) + I_k, read from the coset view."""
    row = vk.coset_rep_cells(f.ns, k, f.resolution)[beta]
    return float(oscillation._row_diameters(oscillation._coset_values(f, k)[row : row + 1])[0])


def test_coset_oscillation_matches_brute_force(ns, rng):
    f = families.random_cells(ns, rng)
    r = ns.resolution
    for k in (1, 2):
        key = coset_key_table(ns, r, k)
        for beta in (0, 1, ns.M[k] - 1):
            got = _coset_oscillation(f, k, beta)
            members = [i for i in range(ns.cell_count)
                       if i % ns.M[k] == oracles.coset_rep(ns, beta, k)]
            assert members == np.flatnonzero(key == beta).tolist()
            vals = f.cells[members]
            want = max(abs(a - b) for a in vals for b in vals)
            assert got == pytest.approx(want, rel=1e-12)


def test_modulus_decreases(ns, rng):
    f = families.random_lipschitz(ns, rng)
    omegas = [oscillation.modulus_of_continuity(f, k)
              for k in range(ns.resolution + 1)]
    assert all(b <= a + 1e-15 for a, b in zip(omegas, omegas[1:]))
    assert omegas[-1] == 0.0


def test_profile_sums(ns, rng):
    f = families.random_cells(ns, rng)
    prof = oscillation.oscillation_profile(f)
    for k in (1, 2):
        per_beta = [_coset_oscillation(f, k, b)
                    for b in range(ns.M[k])]
        assert prof.omega[k] == pytest.approx(max(per_beta), rel=1e-12)
        assert prof.total[k] == pytest.approx(sum(per_beta[1:]), rel=1e-12)
        assert prof.nu[k] == pytest.approx(sum(per_beta), rel=1e-12)


def test_lacunary_modulus_exact(walsh):
    # with c_k = 1/M_k each coordinate contributes its own oscillation:
    # omega(f, 1/M_k) = sum_{j >= k} 2 c_j on the Walsh group
    f = families.lacunary(walsh, families.inverse_scale_coeffs(walsh))
    for k in range(1, walsh.resolution):
        expected = sum(2.0 / walsh.M[j] for j in range(k, walsh.resolution))
        got = oscillation.modulus_of_continuity(f, k)
        assert got == pytest.approx(expected, rel=1e-12)


def test_difference_condition_zero_for_one_digit_functions(ns):
    f = families.digit_indicator(ns, 1, 0)
    for k in (1, 2, ns.resolution - 1):
        for alpha in (0.25, 0.5, 0.75):
            assert oscillation.difference_condition(f, k, alpha) == 0.0


def test_difference_condition_positive_for_rough(ns, rng):
    f = families.random_cells(ns, rng)
    assert oscillation.difference_condition(f, 2, 0.5) > 0.0


def test_difference_condition_rejects_bad_args(ns, rng):
    f = families.random_cells(ns, rng)
    with pytest.raises(UsageError):
        oscillation.difference_condition(f, 0, 0.5)
    with pytest.raises(UsageError):
        oscillation.difference_condition(f, 1, 1.5)


def test_difference_condition_scales_linearly(ns, rng):
    f = families.random_cells(ns, rng)
    g = transform.StepFunction(ns, f.resolution, 3.0 * f.cells)
    a = oscillation.difference_condition(f, 2, 0.5)
    b = oscillation.difference_condition(g, 2, 0.5)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def _difference_condition_loop(f, k, alpha):
    """Per-beta oracle: one translation of d = |f - f(. - e_k)| per coset."""
    ns = f.ns
    shifted = f.translate(ns.M[k])  # e_k
    d = transform.StepFunction(ns, f.resolution, np.abs(f.cells - shifted.cells))
    acc = np.zeros(len(d.cells))
    for beta in range(1, ns.M[k]):
        acc += beta ** (alpha - 1.0) * d.translate(oracles.coset_rep(ns, beta, k)).cells.real
    return float(acc.max())


def test_difference_condition_matches_loop(ns, rng):
    r = ns.resolution
    coarse = transform.StepFunction(
        ns, r - 1, rng.standard_normal(ns.cells_at(r - 1)))
    fs = [families.random_cells(ns, rng), families.random_lipschitz(ns, rng),
          families.lacunary(ns, families.inverse_scale_coeffs(ns)), coarse]
    for f in fs:
        for k in range(1, f.resolution):
            for alpha in (0.25, 0.5, 0.75):
                want = _difference_condition_loop(f, k, alpha)
                got = oscillation.difference_condition(f, k, alpha)
                assert got == pytest.approx(want, rel=1e-12)


def test_difference_condition_translates_once(ns, rng, count_calls):
    f = families.random_cells(ns, rng)
    shifts = count_calls("translate", transform.StepFunction)
    oscillation.difference_condition(f, ns.resolution - 1, 0.5)
    assert len(shifts) <= 1  # the e_k shift


def _difference_condition_full(f, k, alpha):
    """Full-resolution reference: sum_t d(x - t) W(t) over all of G_r, by np.fft.fftn."""
    ns, r = f.ns, f.resolution
    shape = ns.radix.radices[:r][::-1]
    t = f.cells.reshape(shape)
    d = np.abs(t - np.roll(t, 1, axis=r - 1 - k))
    w = np.zeros(ns.cells_at(r))
    w[vk.coset_rep_cells(ns, k, r)[1:]] = np.arange(1, ns.M[k]) ** (alpha - 1.0)
    return float(np.fft.ifftn(np.fft.fftn(d) * np.fft.fftn(w.reshape(shape))).real.max())


# [40, 2, 3]: a radix above the transform's block cap of 32 is a block alone
LOW_DIGIT_GRIDS = [[2] * 11, [2, 3, 4, 2, 3, 3, 3], [5, 3, 7, 2], [40, 2, 3]]


@pytest.mark.parametrize("radices", LOW_DIGIT_GRIDS, ids=str)
def test_difference_condition_matches_full_convolution(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(8)
    fs = [families.random_cells(ns, rng), families.random_lipschitz(ns, rng)]
    for f in fs:
        for k in range(1, ns.resolution):
            for alpha in (0.3, 0.5, 0.77):
                want = _difference_condition_full(f, k, alpha)
                got = oscillation.difference_condition(f, k, alpha)
                assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("radices", LOW_DIGIT_GRIDS, ids=str)
def test_difference_condition_exact_zero_when_constant_along_digit_k(radices):
    ns = vk.number_system(radices)
    r = ns.resolution
    rng = np.random.default_rng(9)
    for k in range(1, r):
        t = rng.standard_normal(ns.cell_count).reshape(tuple(radices[::-1]))
        t = np.broadcast_to(np.take(t, [0], axis=r - 1 - k), t.shape)  # drop digit k
        f = transform.StepFunction(ns, r, t.reshape(-1))
        for alpha in (0.3, 0.5, 0.77):
            got = oscillation.difference_condition(f, k, alpha)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_difference_condition_transforms_only_low_digits(ns, rng, count_calls):
    f = families.random_cells(ns, rng)
    staged = count_calls("_staged", module=transform)
    for k in range(1, ns.resolution):
        staged.clear()
        oscillation.difference_condition(f, k, 0.5)
        # forward of d and of W, one inverse: all over the k low digits
        assert [args[2] for args in staged] == [k, k, k]
        assert [len(args[0]) for args in staged] == [ns.cell_count, ns.M[k], ns.cell_count]


def _difference_condition_translated(f, k, alpha):
    """The condition with d from f.translate(M_k): the same transforms, to the byte."""
    ns, mk = f.ns, f.ns.M[k]
    d = np.abs(f.cells - f.translate(mk).cells)
    weight = np.zeros(mk)
    weight[vk.coset_rep_cells(ns, k, k)[1:]] = np.arange(1, mk, dtype=np.float64) ** (alpha - 1.0)
    spectrum = transform._staged(d, ns, k, analysis=True).reshape(-1, mk) \
        * transform._staged(weight, ns, k, analysis=True)
    acc = transform._staged(spectrum.reshape(-1), ns, k, analysis=False)
    return float(acc.real.max() / mk) + 0.0


@pytest.mark.parametrize("radices", LOW_DIGIT_GRIDS, ids=str)
def test_difference_conditions_share_one_spectrum(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(11)
    alphas = (0.3, 0.5, 0.77)
    fs = [families.random_cells(ns, rng), families.random_cells(ns, rng, real=True),
          families.random_lipschitz(ns, rng),
          transform.StepFunction(ns, ns.resolution - 1, rng.standard_normal(ns.M[-2]))]
    for f in fs:
        for k in range(1, f.resolution):
            got = oscillation.difference_conditions(f, k, alphas)
            # every alpha reads the same bytes as its own call and as d from translate
            assert got == [oscillation.difference_condition(f, k, a) for a in alphas]
            assert got == [_difference_condition_translated(f, k, a) for a in alphas]
            for value, alpha in zip(got, alphas):
                assert value == pytest.approx(_difference_condition_full(f, k, alpha), rel=1e-12)


def test_difference_conditions_rejects_bad_alphas(ns, rng):
    f = families.random_cells(ns, rng)
    with pytest.raises(UsageError):
        oscillation.difference_conditions(f, 1, [0.5, 1.0])
    assert oscillation.difference_conditions(f, 1, []) == []


def _edge_cells(ns, rng, kind, edges, resolution):
    """Normal cells of one kind; with edges, a NaN, a +inf and a -inf among them."""
    cells = rng.standard_normal(ns.cells_at(resolution))
    if kind == "negligible_imag":
        cells = cells + 1e-15j * rng.standard_normal(len(cells))
    elif kind == "complex":
        cells = cells + 1j * rng.standard_normal(len(cells))
    if edges:
        cells[[3, 5, 7]] = [np.nan, np.inf, -np.inf]
    return transform.StepFunction(ns, resolution, cells)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("edges", [False, True], ids=["finite", "nan_inf"])
@pytest.mark.parametrize("kind", ["real", "negligible_imag", "complex"])
@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2]] + MORE_GRIDS, ids=str)
def test_extremes_ladder_diameters_bitwise(radices, kind, edges):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(12)
    for r in (ns.resolution, ns.resolution - 1):
        f = _edge_cells(ns, rng, kind, edges, r)
        extremes = oscillation.coset_extremes(f)
        assert (extremes is None) == (kind == "complex")
        prof = oscillation.oscillation_profile(f)
        for k in range(r + 1):
            rows = oscillation._coset_values(f, k)
            want = oscillation._row_diameters(rows)
            # the profile reads each level's diameters in residue order, as the strided rows do
            assert prof.omega[k].tobytes() == want.max().tobytes()
            assert prof.nu[k].tobytes() == np.float64(math.fsum(want.tolist())).tobytes()
            if extremes is not None:
                hi, lo = extremes[k]
                d = hi - lo
                assert d.dtype == want.dtype and d.tobytes() == want.tobytes()
                assert hi.tobytes() == rows.real.max(axis=1).tobytes()
                assert lo.tobytes() == rows.real.min(axis=1).tobytes()


def _coset_values_sorted(f, k):
    """Oracle rows: row beta holds f on Z_beta^(k) + I_k, gathered by sorting the coset keys."""
    key = coset_key_table(f.ns, f.resolution, k)
    order = np.argsort(key, kind="stable")
    return f.cells[order].reshape(f.ns.M[k], -1)


def _oscillation_functionals(f):
    M = YoungFunction(p=2.0)
    prof = oscillation.oscillation_profile(f)
    return (prof.omega, prof.total, prof.nu,
            [oscillation.modulus_of_continuity(f, k) for k in range(f.resolution + 1)],
            oscillation.young_oscillation_score(f, M))


@pytest.mark.parametrize("real", [True, False])
def test_coset_view_matches_sorted_oracle_bitwise(ns, rng, real, monkeypatch):
    fs = [families.random_cells(ns, rng, real=real),
          families.random_cells(ns, rng, resolution=ns.resolution - 1, real=real)]
    for f in fs:
        got = _oscillation_functionals(f)
        for k in (1, 2):
            rows = _coset_values_sorted(f, k)
            for beta in range(ns.M[k]):
                want = float(oscillation._row_diameters(rows[beta : beta + 1])[0])
                assert _coset_oscillation(f, k, beta) == want
        with monkeypatch.context() as m:
            m.setattr(oscillation, "_coset_values", _coset_values_sorted)
            want = _oscillation_functionals(f)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_digit_indicator_is_coset_key_match(ns):
    for r in (ns.resolution, ns.resolution - 1):
        for level in range(r + 1):
            key = coset_key_table(ns, r, level)
            for coset in range(ns.M[level]):
                f = families.digit_indicator(ns, level, coset, resolution=r)
                assert np.array_equal(f.cells, (key == coset).astype(np.complex128))


def test_oscillation_and_families_make_no_coset_key_call(ns, rng, count_calls):
    keys = count_calls("coset_key_table")
    f = families.random_cells(ns, rng)
    _oscillation_functionals(f)
    config.family_from_spec(ns, {"family": "digit_indicator", "level": 2, "coset": 1})[1](rng)
    assert keys == []


def test_complex_profile_memory_is_bounded(rng):
    # the pairwise differences of a complex coset row set go in bounded column blocks
    ns = vk.number_system([2] * 11)
    f = families.random_cells(ns, rng)
    tracemalloc.start()
    try:
        oscillation.oscillation_profile(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_oscillation_series_terms(walsh):
    f = families.lacunary(walsh, families.inverse_scale_coeffs(walsh))
    alpha = 0.5
    prof = oscillation.oscillation_profile(f)
    rep = oscillation.oscillation_series(f, alpha)
    for k in range(1, walsh.resolution + 1):
        want = prof.nu[k] / walsh.M[k] ** (1.0 - alpha)
        assert rep.terms[k - 1] == pytest.approx(want, rel=1e-12)
    assert np.all(np.diff(rep.partials) >= -1e-15)


def test_young_power_round_trip():
    M = YoungFunction(p=2.0)
    for u in (0.0, 0.25, 1.0, 3.0):
        assert M.inverse(M(u)) == pytest.approx(u, abs=1e-12)
    assert M(2.0) == 4.0


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.0, 5.0), u=st.floats(0.0, 10.0))
def test_young_power_inverse_hypothesis(p, u):
    M = YoungFunction(p=p)
    assert M.inverse(M(u)) == pytest.approx(u, abs=1e-9)


def test_young_series_boundary():
    ns = vk.number_system([2] * 10)
    M = YoungFunction(p=2.0)
    assert oscillation.young_series(M, ns, 0.25).converges is True
    assert oscillation.young_series(M, ns, 0.75).converges is False


def test_young_score_monotone_in_scale(ns, rng):
    f = families.random_lipschitz(ns, rng)
    M = YoungFunction(p=2.0)
    score = oscillation.young_oscillation_score(f, M)
    assert np.isfinite(score) and score >= 0.0


def test_family_from_spec_labels(ns, rng):
    label, build = config.family_from_spec(ns, {"family": "lacunary", "decay": "inverse_scale"})
    assert label == "lacunary-inverse_scale"
    assert build(rng).cells.shape == (ns.cell_count,)
    label, build = config.family_from_spec(ns, {"family": "digit_indicator", "level": 2,
                                                "coset": 1})
    assert label == "digit_indicator-2-1"
    assert set(np.unique(build(rng).cells.real)) == {0.0, 1.0}


def test_family_from_spec_rejects_unknown(ns, rng):
    from vilenkin.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        config.family_from_spec(ns, {"family": "nope"})
    with pytest.raises(ConfigurationError):
        config.family_from_spec(ns, {"not_a_family": 1})
    # a level or coset outside the group is rejected before anything is built
    with pytest.raises(ConfigurationError):
        config.family_from_spec(ns, {"family": "digit_indicator", "level": ns.resolution + 1})
    with pytest.raises(ConfigurationError):
        config.family_from_spec(ns, {"family": "digit_indicator", "level": 1,
                                     "coset": ns.M[1]})


def test_file_family_round_trip(ns, rng, tmp_path):
    f = families.random_cells(ns, rng)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"radix": list(ns.radix.radices), "resolution": f.resolution,
                                "cells": [[v.real, v.imag] for v in f.cells.tolist()]}),
                    encoding="utf-8")
    label, build = config.family_from_spec(ns, {"family": "file", "path": str(path)})
    back = build(rng)
    assert np.array_equal(back.cells, f.cells)
