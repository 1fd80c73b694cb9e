"""Seeded synthetic bottom-pressure series with ground-truth anomaly labels.

The clean signal is a sum of tidal sinusoids plus an optional drift; the
contaminated signal adds Gaussian noise, impulsive spikes (1-3 samples),
persistent baseline steps, and flagged gaps emitted as the 9999 sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .series_io import FLAG_MISSING, FLAG_VALID, LAST_SECOND, RawSeries, check_budget, check_rules

# dominant semidiurnal constituents: lunar M2 and solar S2 periods in seconds
DEFAULT_TIDES = ((0.3, 44714.0, 0.0), (0.15, 43200.0, 1.3))
START = 1640995200.0  # series start at 2022-01-01T00:00:00Z
DRIFT_KINDS = ("none", "linear", "exponential")
PLACE_TRIES = 10000  # draws of event starts before placement gives up


@dataclass
class SynthSpec:
    n: int = 20000
    cadence: float = 900.0         # seconds per sample
    tides: tuple = DEFAULT_TIDES   # (amplitude_m, period_s, phase_rad)
    noise_sigma: float = 0.05      # meters
    spike_count: int = 0
    spike_amp_range: tuple = (5.0, 25.0)   # in units of noise_sigma
    spike_width_range: tuple = (1, 3)
    step_count: int = 0
    step_mag_range: tuple = (0.3, 1.0)     # meters, sign randomized
    step_min_separation: int = 3000
    drift: str = "none"            # none | linear | exponential
    drift_rate: float = 0.0        # m per sample (linear) or 1/sample (exp)
    drift_scale: float = 0.0       # meters, exponential asymptote
    gap_count: int = 0
    gap_len_range: tuple = (1, 5)
    base_level: float = 0.0        # meters, constant offset
    seed: int = 0

    def __post_init__(self):
        check_rules(self, "synth", [
            (("n",), lambda v: v >= 2, "an integer >= 2"),
            # stamps a whole second or more apart stay strictly increasing in
            # the DART text, and the last must be a date the text can hold
            (("cadence",), lambda v: v >= 1 and START + (self.n - 1) * v <= LAST_SECOND,
             "a number of seconds >= 1 that ends the series by 9999-12-31T23:59:59Z"),
            (("drift",), lambda v: v in DRIFT_KINDS, f"one of {', '.join(DRIFT_KINDS)}"),
            (("noise_sigma",), lambda v: v >= 0 and np.isfinite(v), "a finite number >= 0"),
            (("tides",), lambda v: all(len(t) == 3 and np.isfinite(t).all() and t[1] > 0
                                       for t in v),
             "a list of finite [amplitude, period > 0, phase] triples"),
            (("spike_amp_range", "step_mag_range"), _is_pair, "two finite numbers, low <= high"),
            (("spike_width_range", "gap_len_range"), lambda v: _is_pair(v) and v[0] >= 1,
             "two integers, 1 <= low <= high"),
            (("drift_rate", "drift_scale", "base_level"), np.isfinite, "a finite number"),
            (("spike_count", "step_count", "gap_count"), lambda v: v >= 0, "a count >= 0"),
            (("step_min_separation",), lambda v: v >= 1, "an integer >= 1"),
            (("seed",), lambda v: v >= 0, "an integer >= 0"),
        ])
        # the widest event placed: _place_events draws its starts in [margin, n - margin)
        margin = max(self.spike_width_range[1] * (self.spike_count > 0),
                     self.gap_len_range[1] * (self.gap_count > 0), int(self.step_count > 0))
        check_rules(self, "synth", [(("n",), lambda v: v > 2 * margin,
                                     f"an integer > {2 * margin}, twice the widest event placed")])
        # generate holds up to nine series-length float64 arrays at once
        check_budget("synth.n", 9 * 8 * self.n, f"{self.n:,} samples")


def _is_pair(values) -> bool:
    """Two finite numbers, the first no greater than the second."""
    return len(values) == 2 and bool(np.isfinite(values).all()) and values[0] <= values[1]


@dataclass
class GroundTruth:
    timestamps: np.ndarray
    clean: np.ndarray
    contaminated: np.ndarray
    spike_indices: np.ndarray      # every sample touched by a spike
    spike_events: list             # (start, width, amplitude_m)
    step_locations: np.ndarray
    step_magnitudes: np.ndarray
    gap_indices: np.ndarray

    def to_raw_series(self) -> RawSeries:
        flags = np.full(len(self.contaminated), FLAG_VALID)
        flags[self.gap_indices] = FLAG_MISSING
        return RawSeries(timestamps=self.timestamps,
                         values=self.contaminated.copy(), flags=flags)


def _place_events(rng, n, count, margin, min_separation, exclusion):
    """Draw event start indices separated by min_separation and avoiding
    ``exclusion`` (a boolean mask of already-used samples), each in
    [margin, n - margin)."""
    chosen = []
    for _ in range(PLACE_TRIES):
        if len(chosen) == count:
            break
        cand = int(rng.integers(margin, n - margin))
        if any(abs(cand - c) < min_separation for c in chosen):
            continue
        if exclusion[max(0, cand - margin):cand + margin + 1].any():
            continue
        chosen.append(cand)
    if len(chosen) != count:
        raise ConfigError("could not place anomalies under the separation constraints")
    return sorted(chosen)


def generate(spec: SynthSpec) -> GroundTruth:
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.n) * spec.cadence
    timestamps = START + t
    clean = np.full(spec.n, float(spec.base_level))
    for amp, period, phase in spec.tides:
        clean += amp * np.sin(2.0 * np.pi * t / period + phase)

    if spec.drift == "linear":
        drift = spec.drift_rate * np.arange(spec.n)
    elif spec.drift == "exponential":
        drift = spec.drift_scale * (1.0 - np.exp(-spec.drift_rate * np.arange(spec.n)))
    else:
        drift = np.zeros(spec.n)
    clean = clean + drift

    noise = rng.normal(0.0, spec.noise_sigma, spec.n) if spec.noise_sigma > 0 else np.zeros(spec.n)
    contaminated = clean + noise

    used = np.zeros(spec.n, dtype=bool)

    step_locations = []
    step_magnitudes = []
    if spec.step_count:
        locs = _place_events(rng, spec.n, spec.step_count, 1,
                             spec.step_min_separation, used)
        for loc in locs:
            mag = float(rng.uniform(*spec.step_mag_range)) * (1 if rng.random() < 0.5 else -1)
            contaminated[loc:] += mag
            step_locations.append(loc)
            step_magnitudes.append(mag)
            used[max(0, loc - 5):loc + 6] = True

    spike_events = []
    spike_idx = []
    if spec.spike_count:
        min_sep = 3 * max(16, spec.spike_width_range[1])
        starts = _place_events(rng, spec.n, spec.spike_count,
                               spec.spike_width_range[1], min_sep, used)
        for start in starts:
            width = int(rng.integers(spec.spike_width_range[0],
                                     spec.spike_width_range[1] + 1))
            amp = float(rng.uniform(*spec.spike_amp_range)) * spec.noise_sigma
            amp *= 1 if rng.random() < 0.5 else -1
            contaminated[start:start + width] += amp
            spike_events.append((start, width, amp))
            spike_idx.extend(range(start, min(spec.n, start + width)))
            used[max(0, start - 3):start + width + 3] = True

    gap_idx = []
    if spec.gap_count:
        starts = _place_events(rng, spec.n, spec.gap_count,
                               spec.gap_len_range[1], 4 * spec.gap_len_range[1], used)
        for start in starts:
            length = int(rng.integers(spec.gap_len_range[0], spec.gap_len_range[1] + 1))
            gap_idx.extend(range(start, min(spec.n, start + length)))

    return GroundTruth(
        timestamps=timestamps,
        clean=clean,
        contaminated=contaminated,
        spike_indices=np.asarray(sorted(spike_idx), dtype=int),
        spike_events=spike_events,
        step_locations=np.asarray(step_locations, dtype=int),
        step_magnitudes=np.asarray(step_magnitudes, dtype=float),
        gap_indices=np.asarray(sorted(gap_idx), dtype=int),
    )
