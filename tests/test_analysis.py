import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from krylovflow.analysis import (MAD_SCALE, FilterConfig, _outlier_sweep,
                                 filter_series, remove_outliers, smooth)
from krylovflow.bilanczos import bilanczos
from krylovflow.cli import csv_table
from krylovflow.lindbladian import build_model_lindbladian, uniform_seed
from krylovflow.spin_algebra import ModelSpec
from tests.csv_tables import read_table


def test_constant_series_unchanged():
    x = np.full(20, 3.5)
    cleaned, idx = remove_outliers(x, FilterConfig())
    assert_allclose(cleaned, x)
    assert idx.size == 0


def test_single_spike_removed():
    x = np.array([1, 1, 1, 100, 1, 1, 1], dtype=float)
    cfg = FilterConfig(outlier_window=7, outlier_k=3.0)
    cleaned, idx = remove_outliers(x, cfg)
    assert list(idx) == [3]
    assert_allclose(cleaned, np.ones(7))


def test_injected_spike_on_ramp():
    rng = np.random.default_rng(11)
    x = np.linspace(1.0, 30.0, 60)
    j = int(rng.integers(10, 50))
    x[j] *= 10.0
    cleaned, idx = remove_outliers(x, FilterConfig())
    assert list(idx) == [j]
    assert cleaned[j] != x[j]


def _outlier_sweep_loop(x, cfg):
    """Reference: the same sweep as a loop over the windows one by one."""
    n = x.size
    w = cfg.outlier_window
    half = w // 2
    cleaned = x.copy()
    outliers = []
    for i in range(n):
        lo = max(0, min(i - half, n - w))
        win = x[lo:lo + w]
        med = np.median(win)
        mad = np.median(np.abs(win - med))
        dev = abs(x[i] - med)
        if mad == 0.0:
            bad = dev > 0.0
        else:
            bad = dev > cfg.outlier_k * MAD_SCALE * mad
        if bad:
            cleaned[i] = med
            outliers.append(i)
    return cleaned, outliers


@pytest.mark.parametrize("window,k", [(3, 3.0), (9, 3.0), (11, 1.5)])
def test_outlier_sweep_matches_loop_reference(window, k):
    cfg = FilterConfig(outlier_window=window, outlier_k=k)
    rng = np.random.default_rng(window)
    for _ in range(5):
        x = rng.normal(size=200).cumsum()
        x[[0, -1]] += rng.choice([-50.0, 50.0], size=2)
        x[60:90] = 2.0          # constant stretch: MAD = 0 ...
        x[75] = 2.5             # ... with one exact deviant inside
        x[rng.integers(0, 200, size=10)] *= 20.0
        for sweep in range(3):  # later sweeps see already-cleaned input
            cleaned, idx = _outlier_sweep(x, cfg)
            ref_cleaned, ref_idx = _outlier_sweep_loop(x, cfg)
            assert np.array_equal(cleaned, ref_cleaned)
            assert idx == ref_idx
            if sweep == 0:
                assert 75 in idx    # the MAD = 0 branch was taken
            x = cleaned


def test_window_too_large_rejected():
    with pytest.raises(ValueError):
        remove_outliers(np.ones(5), FilterConfig(outlier_window=9))
    with pytest.raises(ValueError, match="smooth_window"):
        smooth(np.ones(5), FilterConfig(smooth_window=7))


def test_smooth_window_one_is_identity():
    x = np.arange(10, dtype=float)
    assert_array_equal(smooth(x, FilterConfig(smooth_window=1)), x)


def test_smooth_constant_unchanged():
    x = np.full(30, -2.0)
    assert_allclose(smooth(x, FilterConfig()), x)


def test_smooth_noise_variance_reduction():
    rng = np.random.default_rng(5)
    x = rng.normal(size=1000)
    y = smooth(x, FilterConfig(smooth_window=7))
    ratio = x.var() / y[3:-3].var()
    assert abs(ratio - 7.0) < 0.3 * 7.0


def test_smooth_preserves_mean_interior_dominated():
    # constant within a window of each edge, arbitrary in the middle
    rng = np.random.default_rng(8)
    x = np.full(120, 1.7)
    x[10:110] += rng.normal(size=100)
    y = smooth(x, FilterConfig(smooth_window=7))
    assert abs(y.mean() - x.mean()) < 1e-12


def test_outlier_removal_idempotent_on_model_coefficients():
    spec = ModelSpec(N=3, g=-1.05, h=0.5, alpha=0.01, gamma=0.01)
    tri = bilanczos(build_model_lindbladian(spec), uniform_seed(8))
    for series in (np.abs(tri.b), np.asarray(tri.a).imag):
        cleaned, _ = remove_outliers(series, FilterConfig())
        again, idx = remove_outliers(cleaned, FilterConfig())
        assert idx.size == 0
        assert_allclose(again, cleaned)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(outlier_window=4)
    with pytest.raises(ValueError):
        FilterConfig(outlier_window=1)
    with pytest.raises(ValueError):
        FilterConfig(outlier_k=0.0)
    with pytest.raises(ValueError):
        FilterConfig(smooth_window=2)


@pytest.mark.parametrize("field, value", [
    ("outlier_window", 9.5), ("outlier_window", 9.0),
    ("outlier_window", True), ("smooth_window", 7.0)])
def test_filter_config_windows_must_be_integers(field, value):
    # 9.5 once passed the odd-window check and failed later in NumPy.
    with pytest.raises(ValueError, match=f"{field} = .* is not an integer"):
        FilterConfig(**{field: value})
    assert FilterConfig(outlier_window=np.int64(9)).outlier_window == 9


def test_csv_round_trip():
    raw = np.array([1.0, 2.0, 50.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) / 3
    cleaned, smoothed, _ = filter_series(raw, FilterConfig())
    text = csv_table({"n": np.arange(raw.size), "raw": raw,
                      "cleaned": cleaned, "smoothed": smoothed})
    assert text.splitlines()[0] == "n,raw,cleaned,smoothed"
    table = read_table(text)
    assert table["n"] == [str(i) for i in range(raw.size)]
    for name, x in (("raw", raw), ("cleaned", cleaned),
                    ("smoothed", smoothed)):
        assert_array_equal([float(v) for v in table[name]], x)
