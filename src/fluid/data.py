"""Synthetic datasets and file formats.

Irregular spirals for reconstruction, their split into conditioning
points and queries, and CSV round-tripping for datasets.
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


# the spiral r(t) = _R0 + _R_SLOPE * t, sampled on [0, _T_END]: three turns
_R0, _R_SLOPE, _T_END = 0.1, 0.02, 6 * np.pi
# the share of each sequence's observed time span whose points condition
_COND_SHARE = 0.6


@dataclass
class SpiralSpec:
    """Noisy planar spiral protocol: dense uniform sampling then random
    subsampling without replacement."""

    n_spirals: int = 300
    n_points: int = 150
    n_subsample: int = 50
    noise_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        check_types(self, numbers.Integral, "an integer",
                    "n_spirals n_points n_subsample seed")
        check_types(self, numbers.Real, "a number", "noise_std")
        if self.n_subsample > self.n_points:
            raise ValueError("cannot subsample more points than generated")
        if self.n_spirals < 1 or self.n_points < 2 or self.n_subsample < 2:
            raise ValueError("need at least one spiral, two points and a "
                             "subsample of two")
        check_at_least(self, 0, "seed noise_std")


def spiral_curve(t: np.ndarray) -> np.ndarray:
    """Noise-free trajectory (x, y) = (r(t) cos t, r(t) sin t), r linear."""
    r = _R0 + _R_SLOPE * t
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


def generate_spirals(spec: SpiralSpec) -> list[EventSequence]:
    rng = np.random.default_rng(spec.seed)
    t_grid = np.linspace(0.0, _T_END, spec.n_points)
    out = []
    for _ in range(spec.n_spirals):
        xy = spiral_curve(t_grid)
        xy = xy + rng.normal(0.0, spec.noise_std, size=xy.shape)
        keep = np.sort(rng.choice(spec.n_points, size=spec.n_subsample,
                                  replace=False))
        out.append(EventSequence(values=xy[keep], times=t_grid[keep],
                                 mask=np.ones(spec.n_subsample, dtype=bool)))
    return out


def split_by_time(seq: EventSequence):
    """Conditioning / query membership: the valid points in the first
    ``_COND_SHARE`` of the observed time span condition, the later valid
    points are queries. Returns the two boolean masks."""
    t = seq.times[seq.mask]
    lo, hi = (t.min(), t.max()) if len(t) else (0.0, 0.0)
    cond = seq.mask & (seq.times < lo + _COND_SHARE * (hi - lo))
    return cond, seq.mask & ~cond


def spiral_arrays(seqs: list[EventSequence]) -> dict:
    """Pack sequences into padded training arrays.

    Conditioning points feed the encoder; the query timestamps become
    decoder queries with their values as targets.
    """
    splits = [split_by_time(seq) for seq in seqs]
    for i, (cond, _) in enumerate(splits):
        if not cond.any():
            raise ValueError(f"sequence {i} has no conditioning point")
    Tc = max(int(cond.sum()) for cond, _ in splits)
    Tq = max(int(query.sum()) for _, query in splits)
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
    """The sequences of a ``write_dataset_csv`` file. A header of fewer
    than four fields raises a ValueError naming the file; a row of another
    width than the header, a seq_id that is no integer, a time or feature
    that is no finite number, or a mask other than 0 or 1 raises a
    ValueError naming the file and the line; a sequence whose times do not
    increase, or whose mask pads before its valid rows, raises a
    ValueError naming the file and the seq_id."""
    rows: dict[int, list] = {}
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} has no header row")
        if len(header) < 4:
            raise ValueError(f"{path}: the header has {len(header)} fields, "
                             "not seq_id, t, a feature and mask")
        F = len(header) - 3
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header "
                                 f"has {len(header)}")
            try:
                sid = int(row[0])
            except ValueError:
                raise ValueError(f"{where}: seq_id {row[0]!r} is no "
                                 f"integer") from None
            try:
                t, feats = float(row[1]), [float(x) for x in row[2:2 + F]]
            except ValueError:
                raise ValueError(f"{where}: times and features must be "
                                 f"numbers") from None
            if not np.isfinite([t] + feats).all():
                raise ValueError(f"{where}: times and features must be finite")
            mask = row[-1].strip()
            if mask not in ("0", "1"):
                raise ValueError(f"{where}: mask {row[-1]!r} is neither 0 "
                                 f"nor 1")
            rows.setdefault(sid, []).append((t, feats, mask == "1"))
    if not rows:
        raise ValueError(f"{path} holds no sequences")
    out = []
    for sid in sorted(rows):
        entries = rows[sid]
        try:
            out.append(EventSequence(
                values=np.array([e[1] for e in entries]),
                times=np.array([e[0] for e in entries]),
                mask=np.array([e[2] for e in entries])))
        except ValueError as err:
            raise ValueError(f"{path}: sequence {sid}: {err}") from None
    return out
