import json
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdata.attacks import AttackConfig
from robustdata.config import _DEFAULTS, ExperimentConfig, _has_kind
from robustdata.datafile import read_dataset, write_dataset
from robustdata.dataset import Dataset
from robustdata.errors import DataError, FormatError, ParameterError
from robustdata.learning import RobustLearnConfig
from robustdata.models import TrainConfig
from robustdata.rng import RngStream
from robustdata.theory import DistributionSpec, sample


def synthetic(n=20, m=3, value_range=None):
    rng = RngStream(0)
    X = rng.normal(0, 1, (n, m))
    if value_range is not None:
        X = np.clip(X, *value_range)
    y = np.where(rng.uniform(0, 1, n) < 0.5, 1, -1)
    return Dataset(X, y, value_range, {"generator": "test", "seed": 0})


def test_roundtrip_exact(tmp_path):
    ds = synthetic()
    path = tmp_path / "d.rds"
    write_dataset(path, ds)
    loaded = read_dataset(path)
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.value_range == ds.value_range
    assert loaded.provenance == ds.provenance


def test_roundtrip_byte_identical(tmp_path):
    ds = sample(DistributionSpec(d=5, mu=0.3, p=0.9), 64, RngStream(3))
    p1, p2 = tmp_path / "a.rds", tmp_path / "b.rds"
    write_dataset(p1, ds)
    write_dataset(p2, read_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_with_value_range(tmp_path):
    ds = synthetic(value_range=(-2.0, 2.0))
    path = tmp_path / "r.rds"
    write_dataset(path, ds)
    assert read_dataset(path).value_range == (-2.0, 2.0)


def test_single_row_file_size(tmp_path):
    ds = Dataset(np.array([[0.5]]), np.array([1]), None, {})
    path = tmp_path / "one.rds"
    write_dataset(path, ds)
    header = 4 + 2 + 4 + 4 + 4 + 1 + 8 + 8
    meta = len(json.dumps({}, sort_keys=True, separators=(",", ":")).encode())
    assert path.stat().st_size == header + 8 + 4 + 4 + meta


def test_labels_outside_int32_rejected_before_writing(tmp_path):
    for label in (2**31, -(2**31) - 1):
        with pytest.raises(DataError):
            write_dataset(tmp_path / "d.rds", Dataset(np.zeros((2, 1)), np.array([1, label])))
    assert list(tmp_path.iterdir()) == []
    edges = Dataset(np.zeros((2, 1)), np.array([-(2**31), 2**31 - 1]))
    write_dataset(tmp_path / "d.rds", edges)
    np.testing.assert_array_equal(read_dataset(tmp_path / "d.rds").labels, edges.labels)


def test_corrupt_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.rds"
    ds = synthetic()
    write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert err.value.offset == 0


def test_bad_version_reports_offset(tmp_path):
    path = tmp_path / "ver.rds"
    write_dataset(path, synthetic())
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert err.value.offset == 4


def _rewritten_header(tmp_path, value_range, edit):
    """read_dataset's verdict on a written file whose header bytes `edit` changed in place."""
    path = tmp_path / "h.rds"
    write_dataset(path, synthetic(n=4, value_range=value_range))
    blob = bytearray(path.read_bytes())
    edit(blob)
    path.write_bytes(bytes(blob))
    return read_dataset(path)


@pytest.mark.parametrize("value_range, edit, offset", [
    ((-2.0, 2.0), lambda b: b.__setitem__(18, 2), 18),  # range flags other than 0 and 1
    (None, lambda b: b.__setitem__(18, 255), 18),
    (None, lambda b: b.__setitem__(slice(19, 27), struct.pack("<d", 1.0)), 19),  # lo without a range
    (None, lambda b: b.__setitem__(slice(19, 27), struct.pack("<d", -0.0)), 19),
    (None, lambda b: b.__setitem__(slice(27, 35), struct.pack("<d", 2.0)), 27),  # hi without a range
    ((-2.0, 2.0), lambda b: b.__setitem__(18, 0), 19),  # a range whose flag was cleared
    (None, lambda b: b.__setitem__(slice(14, 18), struct.pack("<I", 3)), 14),  # k disagrees with the 2 classes
    (None, lambda b: b.__setitem__(slice(14, 18), struct.pack("<I", 0)), 14),
], ids=["flag-2", "flag-255", "lo-1", "lo-minus-zero", "hi-2", "flag-cleared", "k-3", "k-0"])
def test_header_fields_that_writing_would_not_store_are_format_errors(tmp_path, value_range, edit, offset):
    # each loaded before, and re-writing it gave a different header
    with pytest.raises(FormatError) as err:
        _rewritten_header(tmp_path, value_range, edit)
    assert err.value.offset == offset


@pytest.mark.parametrize("meta", [
    b'{"generator":"test", "seed":0}',  # a space
    b'{"seed":0,"generator":"test"}',  # keys out of order
    b'{"generator":"test","generator":"test","seed":0}',  # a repeated key
    b'{"generator":"t\\u0065st","seed":0}',  # an escape that writing would not make
    b'{"generator":"test","seed":0}\n',  # trailing whitespace
], ids=["space", "key-order", "duplicate-key", "escape", "newline"])
def test_metadata_that_writing_would_not_store_is_a_format_error(tmp_path, meta):
    # each is valid JSON that loaded before, and re-writing it gave other metadata bytes
    path = tmp_path / "m.rds"
    write_dataset(path, synthetic(n=4))
    blob = path.read_bytes()
    canonical = b'{"generator":"test","seed":0}'
    offset = len(blob) - len(canonical)
    assert blob[offset:] == canonical
    path.write_bytes(blob[: offset - 4] + struct.pack("<I", len(meta)) + meta)
    with pytest.raises(FormatError, match="not canonical") as err:
        read_dataset(path)
    assert err.value.offset == offset


def test_truncation_detected(tmp_path):
    path = tmp_path / "trunc.rds"
    write_dataset(path, synthetic())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        read_dataset(path)


def _fuzz_target(tmp: str, value_range=(-2.0, 2.0)) -> tuple[Path, bytes]:
    """A 4x3 file, by default with a value range, and its bytes."""
    path = Path(tmp) / "fuzz.rds"
    write_dataset(path, synthetic(n=4, m=3, value_range=value_range))
    return path, path.read_bytes()


def test_every_truncation_is_a_format_error():
    with tempfile.TemporaryDirectory() as tmp:
        path, blob = _fuzz_target(tmp)

        @settings(max_examples=300, deadline=None)
        @given(st.integers(0, len(blob) - 1))
        def check(cut):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_dataset(path)

        check()


def test_single_bit_flips_load_or_raise_value_errors():
    # a flip may give a valid file (a feature, label, range bound or provenance value changed),
    # which re-writes byte for byte, metadata included; otherwise it is rejected with one of
    # the errors the CLI turns into exit 1
    for value_range in ((-2.0, 2.0), None):
        with tempfile.TemporaryDirectory() as tmp:
            path, blob = _fuzz_target(tmp, value_range)
            rewritten = Path(tmp) / "again.rds"

            @settings(max_examples=500, deadline=None)
            @given(st.integers(0, 8 * len(blob) - 1))
            def check(bit):
                flipped = bytearray(blob)
                flipped[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bytes(flipped))
                try:
                    loaded = read_dataset(path)
                except (FormatError, DataError, ParameterError):
                    return
                assert loaded.features.shape == (4, 3)
                write_dataset(rewritten, loaded)
                assert rewritten.read_bytes() == bytes(flipped), bit

            check()


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------


def test_config_defaults_fill_in():
    cfg = ExperimentConfig({})
    assert cfg.section("distribution")["d"] == 100
    assert cfg.attack_config().eps == 0.8
    assert cfg.train_config(3).seed == 3


def test_config_rejects_unknown_section():
    with pytest.raises(ParameterError):
        ExperimentConfig({"bogus": {}})


def test_config_rejects_unknown_key():
    with pytest.raises(ParameterError):
        ExperimentConfig({"attack": {"epsilon": 0.1}})


def test_config_hash_key_order_invariant():
    a = ExperimentConfig({"distribution": {"d": 50, "mu": 0.3}})
    b = ExperimentConfig({"distribution": {"mu": 0.3, "d": 50}})
    assert a.config_hash() == b.config_hash()


def test_config_hash_spelling_out_defaults_is_invariant():
    a = ExperimentConfig({})
    b = ExperimentConfig({"train": {"lr": 0.01}})  # the default value, made explicit
    assert a.config_hash() == b.config_hash()


def test_config_hash_changes_with_values():
    a = ExperimentConfig({})
    b = ExperimentConfig({"train": {"lr": 0.02}})
    assert a.config_hash() != b.config_hash()


def test_config_hashes_pinned():
    root = Path(__file__).resolve().parents[1] / "configs"
    assert ExperimentConfig({}).config_hash() == "822a1b1ad038c090"
    assert ExperimentConfig.from_file(root / "default.json").config_hash() == "822a1b1ad038c090"
    assert ExperimentConfig.from_file(root / "synthetic-d20.json").config_hash() == "62855d49a7ce1053"


@pytest.mark.parametrize(
    "section, dataclass_type, supplied",
    [("train", TrainConfig, {"seed"}), ("attack", AttackConfig, set()),
     ("robust_learn", RobustLearnConfig, {"attack", "theta0_seed"})],
)
def test_config_sections_are_dataclass_fields(section, dataclass_type, supplied):
    # each section builds its object by name, so its keys are the fields the caller does not supply
    assert set(_DEFAULTS[section]) == {f.name for f in fields(dataclass_type)} - supplied


def test_config_sections_build_their_objects():
    doc = {"train": {"lr": 0.5, "epochs": 3}, "attack": {"norm": "l2", "clamp": [-1, 1], "alpha": 0.2},
           "robust_learn": {"lam": 0.0}}
    cfg = ExperimentConfig(doc)
    assert cfg.train_config(4) == TrainConfig(lr=0.5, momentum=0.9, weight_decay=1e-3, epochs=3,
                                              batch_size=128, seed=4)
    assert cfg.attack_config() == AttackConfig(norm="l2", eps=0.8, alpha=0.2, steps=10, clamp=(-1, 1))
    assert ExperimentConfig({}).attack_config().alpha == 0.8 / 10.0


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "epochs", True),  # a bool is never a number
        ("train", "lr", False),
        ("train", "epochs", 12.0),  # an int default takes only an integer
        ("distribution", "mode", 1),
        ("attack", "alpha", "0.1"),
        ("attack", "clamp", [0.0]),
        ("attack", "clamp", [0.0, "1"]),
        ("attack", "steps", None),  # only the null defaults take null
        ("eval", "seeds", [0.5]),
        ("eval", "architectures", "linear"),
    ],
)
def test_config_rejects_mistyped_values(section, key, value):
    with pytest.raises(ParameterError, match=f"{section}\\.{key}"):
        ExperimentConfig({section: {key: value}})


@pytest.mark.parametrize(
    "section, key, value",
    [("train", "lr", 1), ("attack", "alpha", None), ("attack", "alpha", 1), ("attack", "clamp", None),
     ("attack", "clamp", [0, 1.5]), ("eval", "budgets", [1, 0.5]), ("eval", "seeds", [2, 1])],
)
def test_config_accepts_values_of_their_defaults_kind(section, key, value):
    ExperimentConfig({section: {key: value}})


def test_an_empty_list_has_its_defaults_kind_and_an_empty_grid_is_rejected_by_range():
    # [] is a list of integers to the kind check; the grid's own check rejects it when the config is built
    assert _has_kind([], [0])
    with pytest.raises(ParameterError, match="need at least one architecture, seed, and budget"):
        ExperimentConfig({"eval": {"seeds": []}})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"distribution": {"d": 10}}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.distribution_spec().d == 10
