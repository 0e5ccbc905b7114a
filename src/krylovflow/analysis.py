"""Post-processing of Lanczos coefficient sequences.

Raw open-system coefficient sequences carry isolated near-breakdown
spikes; ``remove_outliers`` rejects them with a sliding-window
median/MAD criterion and ``smooth`` extracts the averaged trend with a
centered moving average.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import require_integer

MAD_SCALE = 1.4826  # consistency factor: MAD -> sigma for normal data


@dataclass(frozen=True)
class FilterConfig:
    outlier_window: int = 9
    outlier_k: float = 3.0
    smooth_window: int = 7

    def __post_init__(self):
        require_integer(self.outlier_window, "outlier_window")
        require_integer(self.smooth_window, "smooth_window")
        if self.outlier_window < 3 or self.outlier_window % 2 == 0:
            raise ValueError("outlier_window must be an odd integer >= 3")
        if self.outlier_k <= 0:
            raise ValueError("outlier_k must be positive")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be an odd integer >= 1")


def _outlier_sweep(x, cfg):
    """One sliding-window median/MAD pass; returns (cleaned, indices)."""
    n = x.size
    w = cfg.outlier_window
    # Row i is the window of point i: centered, shifted inward at the edges.
    starts = np.clip(np.arange(n) - w // 2, 0, n - w)
    win = sliding_window_view(x, w)[starts]
    med = np.median(win, axis=1)
    mad = np.median(np.abs(win - med[:, None]), axis=1)
    dev = np.abs(x - med)
    bad = np.where(mad == 0.0, dev > 0.0,
                   dev > cfg.outlier_k * MAD_SCALE * mad)
    outliers = np.flatnonzero(bad)
    cleaned = x.copy()
    cleaned[outliers] = med[outliers]
    return cleaned, outliers.tolist()


def remove_outliers(series, cfg):
    """Replace spikes by the local window median.

    A point is an outlier when it deviates from the median of its
    centered window by more than ``outlier_k * 1.4826 * MAD``.  When the
    window MAD is zero, any nonzero deviation from the median is flagged
    (so constant stretches pass untouched but exact deviants are caught).
    Sweeps repeat until no further point is flagged, making the filter
    idempotent; the reported index list is the union over sweeps.
    Returns (cleaned copy, sorted outlier index array).
    """
    x = np.asarray(series, dtype=float)
    if x.size < cfg.outlier_window:
        raise ValueError(
            f"series length {x.size} < outlier_window {cfg.outlier_window}")
    cleaned = x.copy()
    flagged = set()
    for _ in range(x.size):
        cleaned, idx = _outlier_sweep(cleaned, cfg)
        if not idx:
            break
        flagged.update(idx)
    return cleaned, np.asarray(sorted(flagged), dtype=int)


def smooth(series, cfg):
    """Centered moving average with the window shrinking at the edges.

    The window stays centered (no phase shift): at distance d < half
    from either edge the average runs over 2d + 1 points.  Window 1 is
    the identity.
    """
    x = np.asarray(series, dtype=float)
    w = cfg.smooth_window
    if x.size < w:
        raise ValueError(f"series length {x.size} < smooth_window {w}")
    half = w // 2
    out = np.empty_like(x)
    for i in range(x.size):
        d = min(i, x.size - 1 - i, half)
        out[i] = x[i - d:i + d + 1].mean()
    return out


def filter_series(series, cfg):
    """Outlier removal then smoothing; returns (cleaned, smoothed, idx)."""
    cleaned, idx = remove_outliers(series, cfg)
    return cleaned, smooth(cleaned, cfg), idx
