"""Binary codec, synthetic records, stratified subsets, real archive (if any)."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import find_real_cifar10
from oscnet.cifar import (
    RECORD_BYTES,
    ImageDataset,
    decode_records,
    encode_record,
    load_cifar10,
    stratified_subset,
    synthetic_check_image,
)
from oscnet.errors import ConfigError, CorruptRecordError, DataFormatError


def decoded_table(buf: bytes) -> np.ndarray:
    """Decoded records as one row per record: the label, then the 3072 pixels."""
    images, labels = decode_records(buf)
    return np.column_stack([labels, images.reshape(len(labels), -1)])


class TestRecordCodec:
    def test_constant_zero_record(self):
        images, labels = decode_records(synthetic_check_image("constant", 0, value=0))
        assert labels.tolist() == [0]
        assert (images == 0.0).all()

    def test_constant_full_scale_record(self):
        images, labels = decode_records(synthetic_check_image("constant", 9, value=255))
        assert labels.tolist() == [9]
        assert (images == 1.0).all()

    def test_gradient_record_layout(self):
        images, labels = decode_records(synthetic_check_image("gradient", 7))
        assert labels.tolist() == [7]
        # plane stream is i mod 256: first red-plane pixel 0, second 1/255
        assert images[0, 0, 0, 0] == 0.0
        assert images[0, 0, 0, 1] == pytest.approx(1.0 / 255.0)

    def test_encode_then_decode_is_identity(self):
        rec = synthetic_check_image("gradient", 4)
        images, labels = decode_records(rec)
        assert encode_record(int(labels[0]), images[0]) == rec

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=255))
    @settings(max_examples=50)
    def test_roundtrip_over_labels_and_values(self, label, value):
        """Re-encoding a decoded record reproduces all 3073 bytes exactly."""
        rec = synthetic_check_image("constant", label, value=value)
        images, labels = decode_records(rec)
        assert encode_record(int(labels[0]), images[0]) == rec

    def test_pixels_land_in_unit_interval(self):
        rng = np.random.default_rng(0)
        body = rng.integers(0, 256, RECORD_BYTES - 1, dtype=np.uint8)
        images, _ = decode_records(bytes([5]) + body.tobytes())
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_wrong_size_is_a_format_error(self):
        with pytest.raises(DataFormatError, match="3073"):
            decode_records(b"\x00" * (RECORD_BYTES + 1))

    def test_corrupt_label_reports_offset(self):
        good = synthetic_check_image("constant", 1)
        bad = bytearray(synthetic_check_image("constant", 0))
        bad[0] = 17
        with pytest.raises(CorruptRecordError) as err:
            decode_records(good + bytes(bad))
        assert err.value.offset == RECORD_BYTES
        assert "17" in str(err.value)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_flipped_byte_changes_one_value_or_is_a_corrupt_label(self, data):
        """A stream of valid records with one byte changed: a label byte above 9
        is a CorruptRecordError at its record's start; any other change decodes,
        and only the flipped value differs."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        raw = rng.integers(0, 256, (n, RECORD_BYTES), dtype=np.uint8)
        raw[:, 0] = rng.integers(0, 10, n)
        want = decoded_table(raw.tobytes())
        rec = data.draw(st.integers(min_value=0, max_value=n - 1))
        # label bytes are 1 in 3073 of the stream: draw them half the time
        col = data.draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=RECORD_BYTES - 1)))
        old = int(raw[rec, col])
        new = data.draw(st.integers(min_value=0, max_value=255).filter(lambda v: v != old))
        raw[rec, col] = new
        if col == 0 and new > 9:
            with pytest.raises(CorruptRecordError) as err:
                decode_records(raw.tobytes())
            assert err.value.offset == rec * RECORD_BYTES
            return
        got = decoded_table(raw.tobytes())
        assert np.argwhere(got != want).tolist() == [[rec, col]]
        assert got[rec, col] == (new if col == 0 else np.float32(new) / np.float32(255.0))

    def test_every_label_byte_value(self):
        good = synthetic_check_image("constant", 4, value=7)
        for label in range(256):
            stream = good + bytes([label]) + good[1:]
            if label > 9:
                with pytest.raises(CorruptRecordError) as err:
                    decode_records(stream)
                assert err.value.offset == RECORD_BYTES
            else:
                assert decode_records(stream)[1].tolist() == [4, label]

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=RECORD_BYTES - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncated_stream_is_a_format_error_naming_the_source(self, n, cut):
        stream = synthetic_check_image("gradient", 3) * n
        with pytest.raises(DataFormatError) as err:
            decode_records(stream[:-cut], source="batch-under-test")
        assert type(err.value) is DataFormatError
        assert "batch-under-test" in str(err.value)

    def test_bad_synthetic_arguments(self):
        with pytest.raises(ConfigError):
            synthetic_check_image("constant", 10)
        with pytest.raises(ConfigError):
            synthetic_check_image("noise", 1)


class TestLoader:
    def test_loads_synthetic_archive(self, synthetic_archive):
        train, test = load_cifar10(synthetic_archive)
        assert len(train) == 5 * 200 and len(test) == 100
        assert train.images.shape == (1000, 3, 32, 32)
        assert train.images.dtype == np.float32
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        assert train.labels.min() >= 0 and train.labels.max() <= 9

    def test_accepts_the_nested_archive_directory(self, tmp_path):
        from conftest import build_synthetic_archive
        build_synthetic_archive(tmp_path / "cifar-10-batches-bin", per_train=10, test_n=10)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 50 and len(test) == 10

    def test_missing_file_is_a_format_error(self, synthetic_archive):
        (synthetic_archive / "data_batch_3.bin").unlink()
        with pytest.raises(DataFormatError, match="data_batch_3"):
            load_cifar10(synthetic_archive)

    def test_errors_name_the_file(self, synthetic_archive):
        bad = synthetic_archive / "data_batch_4.bin"
        raw = bytearray(bad.read_bytes())
        raw[2 * RECORD_BYTES] = 12
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptRecordError) as err:
            load_cifar10(synthetic_archive)
        assert str(bad) in str(err.value)
        assert err.value.offset == 2 * RECORD_BYTES  # relative to that file
        bad.write_bytes(bytes(raw[:RECORD_BYTES + 5]))
        with pytest.raises(DataFormatError, match="data_batch_4.bin: size"):
            load_cifar10(synthetic_archive)

    def test_record_count_follows_file_size(self, synthetic_archive):
        # a 30,730,000-byte file holds exactly 10,000 records
        big = synthetic_archive / "test_batch.bin"
        big.write_bytes(synthetic_check_image("constant", 2) * 10000)
        assert big.stat().st_size == 30_730_000
        _, test = load_cifar10(synthetic_archive)
        assert len(test) == 10000


    def test_peak_memory_is_about_the_outputs(self, tmp_path):
        """Each file is decoded into its slice of the outputs, so loading never
        holds a second copy of the train images (concatenating did: 1.66x)."""
        from conftest import build_synthetic_archive
        archive = build_synthetic_archive(tmp_path / "data", per_train=200, test_n=200)
        tracemalloc.start()
        try:
            train, test = load_cifar10(archive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for ds in (train, test) for a in (ds.images, ds.labels))
        assert peak < 1.3 * outputs


    def test_a_file_that_changes_size_while_read_is_a_format_error(self, synthetic_archive,
                                                                   monkeypatch):
        read = Path.read_bytes
        extra = synthetic_check_image("constant", 1)
        monkeypatch.setattr(Path, "read_bytes", lambda f: read(f) + extra * (f.name == "data_batch_2.bin"))
        with pytest.raises(DataFormatError, match="data_batch_2.bin changed size"):
            load_cifar10(synthetic_archive)


class TestStratifiedSubset:
    def _dataset(self, per_class=30):
        labels = np.repeat(np.arange(10), per_class)
        images = np.random.default_rng(0).random(
            (labels.size, 3, 32, 32)).astype(np.float32)
        return ImageDataset(images, labels)

    def test_exactly_uniform_histogram(self):
        sub = stratified_subset(self._dataset(), 100, seed=0)
        np.testing.assert_array_equal(np.bincount(sub.labels, minlength=10), 10)

    def test_full_size_is_a_permutation(self):
        ds = self._dataset()
        sub = stratified_subset(ds, len(ds), seed=3)
        np.testing.assert_array_equal(np.bincount(sub.labels, minlength=10), 30)
        assert sub.images.sum() == pytest.approx(ds.images.sum(), rel=1e-6)

    def test_same_seed_same_selection(self):
        ds = self._dataset()
        a = stratified_subset(ds, 50, seed=11)
        b = stratified_subset(ds, 50, seed=11)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            stratified_subset(self._dataset(), 55, seed=0)

    @pytest.mark.parametrize("n", [0, -10])
    def test_non_positive_size_rejected(self, n):
        with pytest.raises(ConfigError, match="positive"):
            stratified_subset(self._dataset(), n, seed=0)

    def test_oversized_request_rejected(self):
        with pytest.raises(ConfigError):
            stratified_subset(self._dataset(), 10_000, seed=0)


@pytest.mark.skipif(find_real_cifar10() is None,
                    reason="real archive not present (set OSC_DATA_DIR)")
class TestRealArchive:
    def test_official_sizes_and_uniform_histograms(self):
        train, test = load_cifar10(find_real_cifar10())
        assert len(train) == 50000 and len(test) == 10000
        np.testing.assert_array_equal(np.bincount(train.labels), [5000] * 10)
        np.testing.assert_array_equal(np.bincount(test.labels), [1000] * 10)
