"""Spiral generation, event encoding, and dataset file round trips."""

import numpy as np
import pytest

from conftest import event_decode
from fluid import data as D


def test_event_sequence_validation():
    with pytest.raises(ValueError):
        D.EventSequence(values=np.zeros((3, 1)), times=np.array([0.0, 0.0, 1.0]),
                        mask=np.ones(3, dtype=bool))
    with pytest.raises(ValueError):
        D.EventSequence(values=np.zeros((3, 1)), times=np.arange(3.0),
                        mask=np.array([True, False, True]))
    seq = D.EventSequence(values=np.zeros((3, 1)), times=np.arange(3.0),
                          mask=np.array([True, True, False]))
    assert seq.length == 2


def test_event_sequence_takes_one_feature_as_a_vector():
    seq = D.EventSequence(values=[1.0, 2.0, 3.0], times=[0.0, 1.0, 2.0],
                          mask=[1, 1, 1])
    assert seq.values.shape == (3, 1)
    assert seq.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_spiral_spec_validation():
    with pytest.raises(ValueError):
        D.SpiralSpec(n_spirals=1, n_points=10, n_subsample=11)


@pytest.mark.parametrize("n_subsample", [-1, 0, 1])
def test_spiral_spec_rejects_a_subsample_below_two(n_subsample):
    with pytest.raises(ValueError, match="subsample of two"):
        D.SpiralSpec(n_spirals=2, n_points=10, n_subsample=n_subsample)
    assert len(D.generate_spirals(D.SpiralSpec(n_spirals=2, n_points=10,
                                               n_subsample=2))) == 2


def test_paper_scale_spiral_protocol():
    spec = D.SpiralSpec(n_spirals=300, n_points=150, n_subsample=50, seed=1)
    seqs = D.generate_spirals(spec)
    assert len(seqs) == 300
    for seq in seqs[:5]:
        assert seq.values.shape == (50, 2)
        assert seq.length == 50
        assert (np.diff(seq.times) > 0).all()


def test_noiseless_spiral_lies_on_analytic_curve():
    spec = D.SpiralSpec(n_spirals=2, n_points=40, n_subsample=20,
                        noise_std=0.0, seed=2)
    for seq in D.generate_spirals(spec):
        expected = D.spiral_curve(spec, seq.times)
        assert np.allclose(seq.values, expected, atol=1e-12)


def test_noiseless_spiral_radius_strictly_increasing():
    spec = D.SpiralSpec(n_spirals=1, n_points=60, n_subsample=30,
                        noise_std=0.0, seed=3)
    seq = D.generate_spirals(spec)[0]
    radius = np.sqrt((seq.values ** 2).sum(axis=1))
    assert (np.diff(radius) > 0).all()


def test_split_by_time_ratios():
    spec = D.SpiralSpec(n_spirals=1, n_points=100, n_subsample=50, seed=4)
    seq = D.generate_spirals(spec)[0]
    cond, interp, extrap = D.split_by_time(seq, (0.6, 0.2, 0.2))
    assert (cond.sum() + interp.sum() + extrap.sum()) == seq.length
    assert cond.any() and extrap.any()
    # segment boundaries respect time ordering
    assert seq.times[cond].max() < seq.times[interp | extrap].min()
    if interp.any() and extrap.any():
        assert seq.times[interp].max() < seq.times[extrap].min()


@pytest.mark.parametrize("ratios", [[1.0], (0.2, 0.2, 0.2, 0.4),
                                    [1.2, -0.1, -0.1], 3, None, "abc",
                                    [0.5, 0.5, float("nan")],
                                    [[0.6, 0.2, 0.2]], (0.6, 0.2, 0.3)],
                         ids=["one", "four", "negative", "number", "none",
                              "string", "nan", "nested", "sum-1.1"])
def test_split_by_time_rejects_ratios_other_than_three_shares_of_one(ratios):
    seq = D.generate_spirals(D.SpiralSpec(n_spirals=1, n_points=30,
                                          n_subsample=10, seed=4))[0]
    with pytest.raises(ValueError) as err:
        D.split_by_time(seq, ratios)
    assert str(err.value) == (f"split ratios {ratios!r} are not three "
                              "non-negative numbers that sum to 1")


def test_spiral_arrays_pack_and_mask():
    spec = D.SpiralSpec(n_spirals=4, n_points=60, n_subsample=25, seed=5)
    seqs = D.generate_spirals(spec)
    data = D.spiral_arrays(seqs)
    n, Tc, F = data["values"].shape
    assert n == 4 and F == 2
    assert data["mask"].shape == (4, Tc)
    assert data["targets"].shape[0] == 4
    for i in range(4):
        lc = data["mask"][i].sum()
        lq = data["target_mask"][i].sum()
        assert lc + lq == 25
        valid_times = data["times"][i][data["mask"][i]]
        assert (np.diff(valid_times) > 0).all()


def _one_point(mask=True):
    return D.EventSequence(values=[[0.5, -0.5]], times=[2.0], mask=[mask])


@pytest.mark.parametrize("case", ["one_point", "no_valid_point", "all",
                                  "no_conditioning_share"])
def test_spiral_arrays_name_the_first_sequence_without_a_conditioning_point(case):
    seqs = D.generate_spirals(D.SpiralSpec(n_spirals=3, n_points=30,
                                           n_subsample=10, seed=2))
    ratios, first = (0.6, 0.2, 0.2), 1
    if case == "one_point":
        seqs[1:1] = [_one_point(), _one_point()]
    elif case == "no_valid_point":
        seqs.append(_one_point(mask=False))
        first = 3
    elif case == "all":
        seqs, first = [_one_point()] * 3, 0
    else:                   # no share of the time span conditions
        ratios, first = (0.0, 0.5, 0.5), 0
    with pytest.raises(ValueError, match=f"^sequence {first} has no "
                                         "conditioning point$"):
        D.spiral_arrays(seqs, ratios)


def test_event_encode_run_collapses_to_single_event():
    seq = D.event_encode(np.array([255, 255, 255, 255]), threshold=128)
    assert seq.length == 1
    assert seq.values[0, 0] == 1.0
    assert seq.times[0] == 4.0


def test_event_encode_alternating_has_no_compression():
    pixels = np.array([0, 255] * 6)
    seq = D.event_encode(pixels, threshold=128)
    assert seq.length == 12
    assert np.array_equal(seq.times[seq.mask], np.arange(1, 13, dtype=float))


def test_event_round_trip_random_binary():
    rng = np.random.default_rng(6)
    pixels = (rng.random(200) > 0.5) * 255.0
    seq = D.event_encode(pixels, threshold=128, pad_to=256)
    decoded = event_decode(seq)
    assert np.array_equal(decoded, (pixels >= 128).astype(float))


def test_event_encode_rejects_overflow():
    with pytest.raises(ValueError):
        D.event_encode(np.array([0, 255, 0, 255]), threshold=128, pad_to=2)


def test_dataset_csv_round_trip(tmp_path):
    spec = D.SpiralSpec(n_spirals=3, n_points=30, n_subsample=10, seed=7)
    seqs = D.generate_spirals(spec)
    path = str(tmp_path / "ds.csv")
    D.write_dataset_csv(path, seqs)
    back = D.read_dataset_csv(path)
    assert len(back) == 3
    for a, b in zip(seqs, back):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.mask, b.mask)
