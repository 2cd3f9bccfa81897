"""Synthetic datasets and file formats.

Irregular spirals for reconstruction, run-length event encoding for pixel
sequences, and CSV round-tripping for datasets.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from fluid.attention import check_at_least, check_types


@dataclass
class EventSequence:
    """Irregularly sampled series: values [T, F], strictly increasing
    times [T], validity mask [T] (padding allowed only as a tail)."""

    values: np.ndarray
    times: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        self.times = np.asarray(self.times, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if not (len(self.values) == len(self.times) == len(self.mask)):
            raise ValueError("values, times and mask lengths disagree")
        valid_t = self.times[self.mask]
        if len(valid_t) > 1 and not (np.diff(valid_t) > 0).all():
            raise ValueError("times must be strictly increasing on valid entries")
        if self.mask.any():
            first_pad = np.argmin(self.mask) if not self.mask.all() else len(self.mask)
            if self.mask[first_pad:].any():
                raise ValueError("mask padding must be a contiguous tail")

    @property
    def length(self) -> int:
        return int(self.mask.sum())


@dataclass
class SpiralSpec:
    """Noisy planar spiral protocol: dense uniform sampling then random
    subsampling without replacement."""

    n_spirals: int = 300
    n_points: int = 150
    n_subsample: int = 50
    noise_std: float = 0.02
    seed: int = 0
    r0: float = 0.1
    r_slope: float = 0.02
    t_end: float = 6 * np.pi

    def __post_init__(self):
        check_types(self, numbers.Integral, "an integer",
                    "n_spirals n_points n_subsample seed")
        check_types(self, numbers.Real, "a number", "noise_std r0 r_slope t_end")
        if self.n_subsample > self.n_points:
            raise ValueError("cannot subsample more points than generated")
        if self.n_spirals < 1 or self.n_points < 2 or self.n_subsample < 2:
            raise ValueError("need at least one spiral, two points and a "
                             "subsample of two")
        check_at_least(self, 0, "seed")


def spiral_curve(spec: SpiralSpec, t: np.ndarray) -> np.ndarray:
    """Noise-free trajectory (x, y) = (r(t) cos t, r(t) sin t), r linear."""
    r = spec.r0 + spec.r_slope * t
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def generate_spirals(spec: SpiralSpec) -> list[EventSequence]:
    rng = np.random.default_rng(spec.seed)
    t_grid = np.linspace(0.0, spec.t_end, spec.n_points)
    out = []
    for _ in range(spec.n_spirals):
        xy = spiral_curve(spec, t_grid)
        xy = xy + rng.normal(0.0, spec.noise_std, size=xy.shape)
        keep = np.sort(rng.choice(spec.n_points, size=spec.n_subsample,
                                  replace=False))
        out.append(EventSequence(values=xy[keep], times=t_grid[keep],
                                 mask=np.ones(spec.n_subsample, dtype=bool)))
    return out


def split_by_time(seq: EventSequence, ratios=(0.6, 0.2, 0.2)):
    """Conditioning / interpolation / extrapolation membership by time
    quantiles of the observed span. Returns three boolean masks."""
    shares = isinstance(ratios, (list, tuple)) and all(
        isinstance(x, numbers.Real) for x in ratios)
    r = np.asarray(ratios if shares else (), float)
    if r.shape != (3,) or not (r >= 0).all() or abs(r.sum() - 1.0) > 1e-9:
        raise ValueError(f"split ratios {ratios!r} are not three "
                         "non-negative numbers that sum to 1")
    t = seq.times[seq.mask]
    lo, hi = (t.min(), t.max()) if len(t) else (0.0, 0.0)
    b1 = lo + r[0] * (hi - lo)
    b2 = lo + (r[0] + r[1]) * (hi - lo)
    cond = seq.mask & (seq.times < b1)
    interp = seq.mask & (seq.times >= b1) & (seq.times < b2)
    extrap = seq.mask & (seq.times >= b2)
    return cond, interp, extrap


def spiral_arrays(seqs: list[EventSequence], ratios=(0.6, 0.2, 0.2)) -> dict:
    """Pack sequences into padded training arrays.

    Conditioning points feed the encoder; interpolation + extrapolation
    timestamps become decoder queries with their values as targets.
    """
    cond_lens, query_lens = [], []
    splits = []
    for i, seq in enumerate(seqs):
        cond, interp, extrap = split_by_time(seq, ratios)
        if not cond.any():
            raise ValueError(f"sequence {i} has no conditioning point")
        splits.append((cond, interp | extrap))
        cond_lens.append(int(cond.sum()))
        query_lens.append(int((interp | extrap).sum()))
    Tc, Tq = max(cond_lens), max(query_lens)
    n = len(seqs)
    F = seqs[0].values.shape[1]

    data = {"values": np.zeros((n, Tc, F)), "times": np.zeros((n, Tc)),
            "mask": np.zeros((n, Tc), dtype=bool),
            "query_times": np.zeros((n, Tq)),
            "targets": np.zeros((n, Tq, F)),
            "target_mask": np.zeros((n, Tq), dtype=bool)}
    for i, (seq, (cond, query)) in enumerate(zip(seqs, splits)):
        lc, lq = cond.sum(), query.sum()
        data["values"][i, :lc] = seq.values[cond]
        data["times"][i, :lc] = seq.times[cond]
        data["mask"][i, :lc] = True
        data["query_times"][i, :lq] = seq.times[query]
        # padded query slots replay the last timestamp to keep times sane
        if lq and lq < Tq:
            data["query_times"][i, lq:] = seq.times[query][-1]
        data["targets"][i, :lq] = seq.values[query]
        data["target_mask"][i, :lq] = True
    return data


# --------------------------------------------------------------------------
# run-length event encoding
# --------------------------------------------------------------------------

def event_encode(pixels: np.ndarray, threshold: float = 128.0,
                 pad_to: int | None = None) -> EventSequence:
    """Binarize at threshold, collapse runs of equal values into events.

    A run of length L becomes one event whose timestamp advances by L,
    so [1,1,1,1] encodes to a single event (1, t=4). Expanding each event
    to its run length recovers the binary sequence exactly.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1)
    binary = (pixels >= threshold).astype(float)
    values, durations = [], []
    i = 0
    while i < len(binary):
        j = i
        while j < len(binary) and binary[j] == binary[i]:
            j += 1
        values.append(binary[i])
        durations.append(j - i)
        i = j
    times = np.cumsum(durations).astype(float)
    values = np.asarray(values)[:, None]
    L = len(values)
    if pad_to is None:
        pad_to = L
    if L > pad_to:
        raise ValueError(f"encoded length {L} exceeds pad_to {pad_to}")
    padded_v = np.zeros((pad_to, 1))
    padded_t = np.zeros(pad_to)
    mask = np.zeros(pad_to, dtype=bool)
    padded_v[:L] = values
    padded_t[:L] = times
    mask[:L] = True
    return EventSequence(values=padded_v, times=padded_t, mask=mask)


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

def write_dataset_csv(path: str, seqs: list[EventSequence]):
    """Columns: seq_id, t, feature_0..F-1, mask."""
    if not seqs:
        raise ValueError("no sequences to write")
    F = seqs[0].values.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seq_id", "t"] + [f"feature_{j}" for j in range(F)] + ["mask"])
        for sid, seq in enumerate(seqs):
            for i in range(len(seq.times)):
                w.writerow([sid, repr(float(seq.times[i]))]
                           + [repr(float(x)) for x in seq.values[i]]
                           + [int(seq.mask[i])])


def read_dataset_csv(path: str) -> list[EventSequence]:
    rows: dict[int, list] = {}
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} has no header row")
        F = len(header) - 3
        for row in reader:
            sid = int(row[0])
            rows.setdefault(sid, []).append(
                (float(row[1]), [float(x) for x in row[2:2 + F]],
                 bool(int(row[-1]))))
    if not rows:
        raise ValueError(f"{path} holds no sequences")
    out = []
    for sid in sorted(rows):
        entries = rows[sid]
        out.append(EventSequence(
            values=np.array([e[1] for e in entries]),
            times=np.array([e[0] for e in entries]),
            mask=np.array([e[2] for e in entries])))
    return out
