import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from promptcl import gmm
from promptcl.rng import Rng


def test_default_component_count():
    assert gmm.EMConfig().m == 5


def test_m1_matches_closed_form_moments():
    rng = Rng(0)
    x = rng.normal((40, 6), std=2.0).astype(np.float64) + 1.5
    mog = gmm.fit_em(x, gmm.EMConfig(m=1, seed=3))
    np.testing.assert_allclose(mog.means[0], x.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(mog.covs[0], np.maximum(x.var(axis=0), 1e-6), atol=1e-6)
    np.testing.assert_allclose(mog.weights, [1.0], atol=1e-12)


def test_two_cluster_recovery():
    rng = Rng(1)
    a = rng.normal((120, 4), std=0.05).astype(np.float64) + np.array([5, 0, 0, 0.0])
    b = rng.normal((60, 4), std=0.05).astype(np.float64) + np.array([-5, 0, 0, 0.0])
    x = np.concatenate([a, b])
    mog = gmm.fit_em(x, gmm.EMConfig(m=2, seed=0))
    order = np.argsort(mog.means[:, 0])[::-1]
    np.testing.assert_allclose(mog.means[order[0]], a.mean(axis=0), atol=1e-3)
    np.testing.assert_allclose(mog.means[order[1]], b.mean(axis=0), atol=1e-3)
    np.testing.assert_allclose(np.sort(mog.weights), [1 / 3, 2 / 3], atol=1e-3)


def test_log_likelihood_values():
    # standard normal component evaluated at its mean
    k = 5
    mog = gmm.MoG(weights=np.array([1.0]), means=np.zeros((1, k)), covs=np.ones((1, k)))
    ll = gmm.log_likelihood(mog, np.zeros((1, k)))
    assert abs(ll - (-(k / 2) * np.log(2 * np.pi))) < 1e-10

    # additivity: duplicating a sample doubles its contribution
    x = Rng(2).normal((1, k)).astype(np.float64)
    single = gmm.log_likelihood(mog, x)
    double = gmm.log_likelihood(mog, np.concatenate([x, x]))
    assert abs(double - 2 * single) < 1e-10


def test_log_likelihood_matches_brute_force():
    rng = Rng(3)
    x = rng.normal((10, 3)).astype(np.float64)
    mog = gmm.fit_em(rng.normal((30, 3)).astype(np.float64), gmm.EMConfig(m=2, seed=1))
    naive = 0.0
    for xi in x:
        dens = 0.0
        for m in range(mog.m):
            var = mog.covs[m]
            quad = np.sum((xi - mog.means[m]) ** 2 / var)
            dens += mog.weights[m] * np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** 3 * np.prod(var))
        naive += np.log(dens)
    assert abs(gmm.log_likelihood(mog, x) - naive) < 1e-8


def test_em_loglik_monotone_on_random_datasets():
    for trial in range(20):
        rng = Rng(100 + trial)
        n = int(rng.integers(5, 200))
        d = int(rng.integers(1, 16))
        x = rng.normal((n, d), std=float(rng.uniform((), 0.5, 3.0))).astype(np.float64)
        mog = gmm.fit_em(x, gmm.EMConfig(m=int(rng.integers(1, 6)), seed=trial))
        h = np.array(mog.ll_history)
        assert np.all(np.diff(h) >= -1e-9), f"trial {trial}: {h}"


def test_fit_deterministic():
    rng = Rng(5)
    x = rng.normal((80, 5)).astype(np.float64)
    a = gmm.fit_em(x, gmm.EMConfig(m=3, seed=9))
    b = gmm.fit_em(x, gmm.EMConfig(m=3, seed=9))
    assert a.means.tobytes() == b.means.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def test_m_reduced_to_sample_count():
    x = Rng(6).normal((3, 4)).astype(np.float64)
    mog = gmm.fit_em(x, gmm.EMConfig(m=5, seed=0))
    assert mog.m == 3


def test_empty_or_nonfinite_rejected():
    with pytest.raises(gmm.FitError):
        gmm.fit_em(np.zeros((0, 3)), gmm.EMConfig())
    with pytest.raises(gmm.FitError):
        gmm.fit_em(np.array([[np.nan, 1.0]]), gmm.EMConfig())


def test_sampling_point_mass():
    mog = gmm.MoG(weights=np.array([1.0]), means=np.full((1, 3), 2.0),
                  covs=np.full((1, 3), 1e-6))
    s = gmm.sample(mog, 100, Rng(7))
    assert np.max(np.abs(s - 2.0)) < 0.01


def test_sampling_law_of_large_numbers():
    mog = gmm.MoG(weights=np.array([1.0]), means=np.array([[1.0, -2.0]]),
                  covs=np.ones((1, 2)))
    s = gmm.sample(mog, 10_000, Rng(8))
    np.testing.assert_allclose(s.mean(axis=0), [1.0, -2.0], atol=0.05)


def test_zero_weight_component_never_drawn():
    mog = gmm.MoG(weights=np.array([1.0, 0.0]), means=np.array([[0.0], [100.0]]),
                  covs=np.ones((2, 1)))
    s = gmm.sample(mog, 500, Rng(9))
    assert np.max(np.abs(s)) < 10.0


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("d", [32, 64])
@pytest.mark.parametrize("n", [1, 64, 256])
def test_sample_bytes_match_per_row_formula(m, d, n):
    rng = Rng(100 * m + d)
    w = rng.uniform((m,), 0.1, 1.0, dtype=np.float64)
    mog = gmm.MoG(weights=w / w.sum(), means=rng.normal((m, d), dtype=np.float64),
                  covs=rng.uniform((m, d), 0.01, 2.0, dtype=np.float64))
    got = gmm.sample(mog, n, Rng(n))
    draws = Rng(n)  # the same two draws, in the same order, as sample makes
    comps = draws.choice(m, size=n, p=mog.weights / mog.weights.sum())
    eps = draws.normal((n, d), dtype=np.float64)
    rows = [mog.means[k] + np.sqrt(mog.covs[k]) * eps[i] for i, k in enumerate(comps)]
    assert got.tobytes() == np.array(rows).astype(np.float32).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_sample_bytes_match_out_of_place_formula(seed):
    # sample scales and shifts its float64 draws in place
    rng = Rng(seed)
    m, d, n = 3, 16, 200
    w = rng.uniform((m,), 0.1, 1.0, dtype=np.float64)
    mog = gmm.MoG(weights=w / w.sum(), means=rng.normal((m, d), std=3.0, dtype=np.float64),
                  covs=rng.uniform((m, d), 0.01, 2.0, dtype=np.float64))
    got = gmm.sample(mog, n, Rng(seed + 1))
    draws = Rng(seed + 1)
    comps = draws.choice(m, size=n, p=mog.weights / mog.weights.sum())
    eps = draws.normal((n, d), dtype=np.float64)
    want = mog.means[comps] + np.sqrt(mog.covs)[comps] * eps
    assert got.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("std", [1.0, 1, 0.02, 2.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normal_bytes_match_scaled_draws(std, dtype):
    # Rng.normal skips a unit scale and a same-dtype cast
    got = Rng(3).normal((50, 7), std=std, dtype=dtype)
    draws = np.random.Generator(np.random.Philox(3)).standard_normal((50, 7))
    assert got.dtype == dtype
    assert got.tobytes() == (draws * std).astype(dtype).tobytes()


def test_bank_round_trip(tmp_path):
    rng = Rng(12)
    bank = {c: gmm.fit_em(rng.normal((30, 4)).astype(np.float64), gmm.EMConfig(m=2, seed=c))
            for c in (0, 3)}
    path = tmp_path / "bank.bin"
    gmm.save_bank(path, bank)
    back = gmm.load_bank(path, 4, [0, 3])
    assert set(back) == {0, 3}
    for c in (0, 3):  # float64 mixtures are archived as f8: the round trip is bitwise
        for attr in ("weights", "means", "covs"):
            got, want = getattr(back[c], attr), getattr(bank[c], attr)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_load_bank_checks_shapes(tmp_path):
    from promptcl.featureio import FormatError, write_archive

    m, d = 2, 3
    arrays = {"class_ids": np.array([0], np.int64), "w0": np.full(m, 0.5),
              "mu0": np.zeros((m, d)), "cov0": np.ones((m, d)),
              "full0": np.array([0], np.int64)}  # flag stored by older banks
    path = tmp_path / "bank.bin"
    write_archive(path, gmm.MOG_MAGIC, arrays)
    assert gmm.load_bank(path, d, [0])[0].covs.shape == (m, d)
    with pytest.raises(FormatError, match="class 0 mixture shapes"):
        gmm.load_bank(path, d + 1, [0])  # mixtures of another feature space
    for bad in ({"cov0": np.tile(np.eye(d), (m, 1, 1))},   # full covariances
                {"w0": np.full(m + 1, 1.0 / (m + 1))},
                {"mu0": np.zeros(m)}):
        write_archive(path, gmm.MOG_MAGIC, {**arrays, **bad})
        with pytest.raises(FormatError, match="class 0 mixture shapes"):
            gmm.load_bank(path, d, [0])


# finite values, plus a few repeated ones and -inf so rows hold ties
_LSE_VALUES = st.one_of(st.floats(-800.0, 800.0), st.sampled_from([-np.inf, 0.0, 1.5, -3.0]))


@st.composite
def _lse_arrays(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = np.array(draw(st.lists(_LSE_VALUES, min_size=n * m, max_size=n * m)),
                 np.float64).reshape(n, m)
    a[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = -np.inf  # all -inf rows
    return a


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_lse_arrays(), keepdims=st.booleans())
def test_logsumexp_agrees_with_scipy_and_keeps_infinities(a, keepdims):
    lse = functools.partial(gmm._logsumexp, axis=1, keepdims=keepdims)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, shifted = lse(a), lse(a + 1000.0)
        with_inf = lse(np.where(np.arange(a.shape[1]) == 0, np.inf, a))
    want = logsumexp(a, axis=1, keepdims=keepdims)
    assert got.shape == want.shape == shifted.shape == with_inf.shape
    # a few ulp of the result (of 1 where the result is smaller)
    finite = np.isfinite(want)
    ulp = np.spacing(np.maximum(np.abs(want[finite]), 1.0))
    assert np.all(np.abs(got[finite] - want[finite]) <= 4 * ulp)
    assert np.all(got[~finite] == -np.inf)  # exactly the all -inf rows
    assert np.all(with_inf == np.inf)
    # shifting every entry by 1000 shifts the result, with no overflow
    np.testing.assert_allclose(shifted, got + 1000.0, rtol=1e-14)
