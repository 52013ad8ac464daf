import numpy as np
import pytest

from robustdata.dataset import Dataset, subsample
from robustdata.errors import DataError, ParameterError
from robustdata.rng import RngStream


def make_balanced(n=100):
    rng = RngStream(0)
    X = rng.normal(0, 1, (n, 3))
    y = np.array([1, -1] * (n // 2))
    return Dataset(X, y)


def test_shape_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int))
    with pytest.raises(DataError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int))


@pytest.mark.parametrize("labels", [
    np.array([0.5, -1.7, 2.9]),  # kept as [0, -1, 2]
    np.array([1.0, np.nan, -1.0]),
    np.array([1.0, np.inf, -1.0]),
    np.array([1.0, 2.0**63, -1.0]),  # one past the int64 range
    np.array([1, 2**63, 0], dtype=np.uint64),
    [1, 2**70, -1],  # a Python int no int64 holds
], ids=["fractional", "nan", "inf", "float-2^63", "uint64-2^63", "int-2^70"])
def test_labels_must_be_integers_that_fit_in_int64(labels):
    with pytest.raises(DataError, match="labels must be integers that fit in int64"):
        Dataset(np.zeros((3, 2)), labels)


def test_integral_labels_of_any_dtype_are_kept_as_int64():
    for labels in (np.array([1.0, -1.0, -0.0]), np.array([-(2.0**63), 2.0**62, 3.0]),
                   np.array([2**63 - 1, 0, 1], dtype=np.uint64), [True, False, True], [2, -1, 0]):
        ds = Dataset(np.zeros((3, 2)), labels)
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)


def test_value_range_enforced():
    with pytest.raises(DataError):
        Dataset(np.array([[2.0]]), np.array([1]), value_range=(0.0, 1.0))
    ds = Dataset(np.array([[0.5]]), np.array([1]), value_range=(0.0, 1.0))
    assert ds.value_range == (0.0, 1.0)


def test_non_finite_features_rejected():
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan]]), np.array([1]))


def test_subsample_full_fraction_is_identity():
    ds = make_balanced()
    out = subsample(ds, 1.0, RngStream(1))
    assert out.n == ds.n
    np.testing.assert_array_equal(np.sort(out.labels), np.sort(ds.labels))
    # same rows, possibly reordered
    assert sorted(map(tuple, out.features.tolist())) == sorted(map(tuple, ds.features.tolist()))


def test_subsample_stratified():
    ds = make_balanced(100)
    out = subsample(ds, 0.5, RngStream(2))
    assert out.n == 50
    per_class = [(out.labels == c).sum() for c in (-1, 1)]
    assert all(abs(k - 25) <= 1 for k in per_class)


def test_subsample_rounding_within_one_per_class():
    rng = RngStream(3)
    y = np.array([1] * 70 + [-1] * 30)
    ds = Dataset(rng.normal(0, 1, (100, 2)), y)
    out = subsample(ds, 0.33, rng)
    assert out.n == 33
    assert abs((out.labels == 1).sum() - 0.33 * 70) <= 1
    assert abs((out.labels == -1).sum() - 0.33 * 30) <= 1


def test_subsample_rejects_bad_fraction():
    ds = make_balanced()
    for frac in (0.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            subsample(ds, frac, RngStream(0))


def test_subsample_rejects_empty_dataset():
    # it used to fail in np.concatenate with "need at least one array to concatenate"
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, int))
    with pytest.raises(DataError, match="cannot subsample an empty dataset"):
        subsample(empty, 0.5, RngStream(0))


def test_subsample_deterministic():
    ds = make_balanced()
    a = subsample(ds, 0.3, RngStream(7))
    b = subsample(ds, 0.3, RngStream(7))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
