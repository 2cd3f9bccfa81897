"""Spiral generation, the conditioning split, and dataset file round trips."""

import numpy as np
import pytest

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
    assert int(seq.mask.sum()) == 2


def test_event_sequence_takes_one_feature_as_a_vector():
    seq = D.EventSequence(values=[1.0, 2.0, 3.0], times=[0.0, 1.0, 2.0],
                          mask=[1, 1, 1])
    assert seq.values.shape == (3, 1)
    assert seq.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_spiral_spec_validation():
    with pytest.raises(ValueError):
        D.SpiralSpec(n_spirals=1, n_points=10, n_subsample=11)


@pytest.mark.parametrize("field, value, what", [
    ("n_points", "x", "an integer"), ("n_subsample", 2.5, "an integer"),
    ("seed", True, "an integer"), ("noise_std", "x", "a number")])
def test_spiral_spec_rejects_a_field_of_the_wrong_type(field, value, what):
    with pytest.raises(ValueError, match=f"{field} must be {what}"):
        D.SpiralSpec(**{field: value})


def test_spiral_spec_rejects_negative_noise_by_name():
    with pytest.raises(ValueError, match="^noise_std must be >= 0$"):
        D.SpiralSpec(noise_std=-0.5)
    assert len(D.generate_spirals(D.SpiralSpec(n_spirals=2, n_points=10,
                                               n_subsample=2,
                                               noise_std=0.0))) == 2


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
        assert int(seq.mask.sum()) == 50
        assert (np.diff(seq.times) > 0).all()


def test_noiseless_spiral_lies_on_analytic_curve():
    spec = D.SpiralSpec(n_spirals=2, n_points=40, n_subsample=20,
                        noise_std=0.0, seed=2)
    for seq in D.generate_spirals(spec):
        expected = D.spiral_curve(seq.times)
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
    cond, query = D.split_by_time(seq)
    assert not (cond & query).any() and (cond | query).sum() == seq.mask.sum()
    assert cond.any() and query.any()
    # the first 0.6 of the observed time span conditions
    lo, hi = seq.times.min(), seq.times.max()
    assert D._COND_SHARE == 0.6
    assert np.array_equal(cond, seq.times < lo + 0.6 * (hi - lo))
    assert seq.times[cond].max() < seq.times[query].min()
    # padding is in neither mask
    padded = D.EventSequence(values=np.zeros((4, 1)), times=[0.0, 1.0, 2.0, 0.0],
                             mask=[True, True, True, False])
    cond, query = D.split_by_time(padded)
    assert cond.tolist() == [True, True, False, False]
    assert query.tolist() == [False, False, True, False]


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


@pytest.mark.parametrize("case", ["one_point", "no_valid_point", "all"])
def test_spiral_arrays_name_the_first_sequence_without_a_conditioning_point(case):
    seqs = D.generate_spirals(D.SpiralSpec(n_spirals=3, n_points=30,
                                           n_subsample=10, seed=2))
    first = 1
    if case == "one_point":
        seqs[1:1] = [_one_point(), _one_point()]
    elif case == "no_valid_point":
        seqs.append(_one_point(mask=False))
        first = 3
    else:
        seqs, first = [_one_point()] * 3, 0
    with pytest.raises(ValueError, match=f"^sequence {first} has no "
                                         "conditioning point$"):
        D.spiral_arrays(seqs)


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


@pytest.mark.parametrize("case", ["blank-line", "short-rows", "no-feature",
                                  "mask-only"])
def test_read_dataset_csv_rejects_a_row_of_another_width(tmp_path, case):
    # a blank line between rows, or rows without the feature_1 column, whose
    # mask would otherwise be read as feature_1; or a header without a
    # feature (or a time) column, whose mask would be read as the time
    path = tmp_path / "ds.csv"
    D.write_dataset_csv(str(path), D.generate_spirals(
        D.SpiralSpec(n_spirals=2, n_points=30, n_subsample=10, seed=7)))
    rows = path.read_text().splitlines(keepends=True)
    if case == "blank-line":
        rows.insert(2, "\n")
        said = f"{path} line 3: 0 fields, the header has 5"
    elif case == "short-rows":
        rows[1:] = [",".join(r.split(",")[:3] + r.split(",")[4:])
                    for r in rows[1:]]
        said = f"{path} line 2: 4 fields, the header has 5"
    else:
        keep = [0, 1, 4] if case == "no-feature" else [0, 4]
        rows = [",".join(r.rstrip("\n").split(",")[j] for j in keep) + "\n"
                for r in rows]
        said = (f"{path}: the header has {len(keep)} fields, not seq_id, t, "
                "a feature and mask")
    path.write_text("".join(rows))
    with pytest.raises(ValueError) as err:
        D.read_dataset_csv(str(path))
    assert str(err.value) == said


@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "-inf"), (1, "inf")],
                         ids=["nan-feature", "inf-feature", "inf-time"])
def test_read_dataset_csv_rejects_a_non_finite_time_or_feature(tmp_path, column,
                                                                value):
    # a nan feature used to train to a nan metric, and an inf time failed
    # as "times must be strictly increasing"
    path = tmp_path / "ds.csv"
    D.write_dataset_csv(str(path), D.generate_spirals(
        D.SpiralSpec(n_spirals=2, n_points=30, n_subsample=10, seed=7)))
    rows = path.read_text().splitlines(keepends=True)
    fields = rows[4].split(",")
    fields[column] = value
    rows[4] = ",".join(fields)
    path.write_text("".join(rows))
    with pytest.raises(ValueError) as err:
        D.read_dataset_csv(str(path))
    assert str(err.value) == (f"{path} line 5: times and features must be "
                              "finite")


@pytest.mark.parametrize("column, value, said", [
    (0, "x", "seq_id 'x' is no integer"),
    (0, "1.5", "seq_id '1.5' is no integer"),
    (1, "soon", "times and features must be numbers"),
    (3, "", "times and features must be numbers"),
    (4, "2", "mask '2' is neither 0 nor 1"),
    (4, "-1", "mask '-1' is neither 0 nor 1"),
    (4, "true", "mask 'true' is neither 0 nor 1"),
], ids=["text-seq-id", "fractional-seq-id", "text-time", "empty-feature",
        "mask-two", "mask-minus-one", "mask-word"])
def test_read_dataset_csv_names_the_line_of_an_unparsable_field(tmp_path, column,
                                                                value, said):
    # a mask of 2 or -1 used to read as true, and a seq_id of x failed with
    # int()'s message, naming neither the file nor the line
    path = tmp_path / "ds.csv"
    D.write_dataset_csv(str(path), D.generate_spirals(
        D.SpiralSpec(n_spirals=2, n_points=30, n_subsample=10, seed=7)))
    rows = path.read_text().splitlines(keepends=True)
    fields = rows[4].rstrip("\n").split(",")
    fields[column] = value
    rows[4] = ",".join(fields) + "\n"
    path.write_text("".join(rows))
    with pytest.raises(ValueError) as err:
        D.read_dataset_csv(str(path))
    assert str(err.value) == f"{path} line 5: {said}"


@pytest.mark.parametrize("times, mask, said", [
    ([1.0, 0.5, 2.0], [1, 1, 1], "times must be strictly increasing on valid "
                                 "entries"),
    ([0.0, 1.0, 2.0], [0, 1, 1], "mask padding must be a contiguous tail"),
], ids=["decreasing-times", "leading-padding"])
def test_read_dataset_csv_names_the_file_and_sequence_it_rejects(tmp_path, times,
                                                                 mask, said):
    # the sequence check used to print only its own message
    path = tmp_path / "ds.csv"
    path.write_text("seq_id,t,feature_0,mask\n"
                    + "".join(f"3,{t},0.5,{m}\n" for t, m in zip(times, mask)))
    with pytest.raises(ValueError) as err:
        D.read_dataset_csv(str(path))
    assert str(err.value) == f"{path}: sequence 3: {said}"
