import struct

import numpy as np
import pytest

from promptcl.featureio import (FormatError, load_feature_file, read_archive,
                                write_archive, write_feature_file)


def test_feature_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    feats = np.random.default_rng(0).standard_normal((13, 5)).astype(np.float32)
    labels = [i % 3 for i in range(13)]
    write_feature_file(path, feats, labels)
    back, lab = load_feature_file(path)
    assert back.tobytes() == feats.tobytes()
    assert lab == labels


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "f.bin"
    write_feature_file(path, np.ones((4, 3), np.float32), [0, 1, 0, 1])
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match=r"f\.bin: truncated at byte .* array 'labels'"):
        load_feature_file(path)


def test_zero_dim_rejected(tmp_path):
    path = tmp_path / "f.bin"
    for shape in [(0, 3), (4, 0), (0, 0)]:  # no rows, no columns, neither
        write_feature_file(path, np.zeros(shape, np.float32), np.zeros(shape[0], np.int64))
        with pytest.raises(FormatError, match=r"f\.bin: entry 'features' is empty"):
            load_feature_file(path)


def test_negative_label_rejected(tmp_path):
    path = tmp_path / "f.bin"
    write_feature_file(path, np.ones((4, 3), np.float32), [0, 1, -1, 1])
    with pytest.raises(FormatError, match=r"f\.bin: entry 'labels' holds a negative"):
        load_feature_file(path)


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [True, False, True]])
def test_writer_refuses_labels_it_would_change(tmp_path, labels):
    with pytest.raises(FormatError, match="labels"):
        write_feature_file(tmp_path / "f.bin", np.ones((3, 2), np.float32), labels)
    assert not (tmp_path / "f.bin").exists()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "f.bin"
    write_archive(path, b"NOTMAGIC", {"features": np.ones((1, 1), np.float32),
                                      "labels": np.zeros(1, np.int64)})
    with pytest.raises(FormatError, match=r"f\.bin: bad magic b'NOTMAGIC'"):
        load_feature_file(path)


def test_archive_round_trip(tmp_path):
    path = tmp_path / "a.bin"
    arrays = {
        "weights": np.arange(12, dtype=np.float32).reshape(3, 4),
        "ids": np.array([3, 1, 4], dtype=np.int64),
        "scalar": np.float32(2.5),
    }
    write_archive(path, b"STARTEST", arrays)
    back = read_archive(path, b"STARTEST")
    assert set(back) == set(arrays)
    np.testing.assert_array_equal(back["weights"], arrays["weights"])
    np.testing.assert_array_equal(back["ids"], arrays["ids"])
    assert float(back["scalar"]) == 2.5
    with pytest.raises(FormatError):
        read_archive(path, b"STAROTHR")


def test_archive_keeps_float64_and_float32_apart(tmp_path):
    path = tmp_path / "a.bin"
    wide = np.array([1.0 + 2.0 ** -40, np.pi])
    write_archive(path, b"STARTEST", {"wide": wide, "narrow": wide.astype(np.float32)})
    back = read_archive(path, b"STARTEST")
    assert back["wide"].dtype == np.float64 and back["wide"].tobytes() == wide.tobytes()
    assert back["narrow"].dtype == np.float32
    assert struct.unpack("<I", path.read_bytes()[8:12]) == (2,)


def test_version_1_archive_still_reads(tmp_path):
    # hand-built: magic, version 1, one f4 array "w" of shape (2,), one i8 scalar "n"
    raw = (b"STARTEST" + struct.pack("<II", 1, 2)
           + struct.pack("<I", 1) + b"w" + b"f4" + struct.pack("<II", 1, 2)
           + np.array([1.5, -2.0], "<f4").tobytes()
           + struct.pack("<I", 1) + b"n" + b"i8" + struct.pack("<I", 0)
           + np.array(7, "<i8").tobytes())
    path = tmp_path / "v1.bin"
    path.write_bytes(raw)
    back = read_archive(path, b"STARTEST")
    assert back["w"].dtype == np.float32 and back["w"].tolist() == [1.5, -2.0]
    assert back["n"].dtype == np.int64 and int(back["n"]) == 7


@pytest.mark.parametrize("version", [0, 3])
def test_unknown_archive_version_raises_format_error(tmp_path, version):
    path = tmp_path / "a.bin"
    write_archive(path, b"STARTEST", {"w": np.float32(1.0)})
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"unsupported archive version {version}"):
        read_archive(path, b"STARTEST")


def test_every_truncated_archive_raises_format_error(tmp_path):
    path = tmp_path / "a.bin"
    write_archive(path, b"STARTEST", {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                      "ids": np.array([7, 8], dtype=np.int64),
                                      "s": np.float32(1.5)})
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            read_archive(cut, b"STARTEST")


def test_archive_bad_utf8_name_raises_format_error(tmp_path):
    path = tmp_path / "a.bin"
    write_archive(path, b"STARTEST", {"ab": np.float32(1.0)})
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF  # first byte of the first name
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="UTF-8"):
        read_archive(path, b"STARTEST")


@pytest.mark.parametrize("shape", [(0,) * 65, (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
def test_archive_shape_beyond_numpy_limits_raises_format_error(tmp_path, shape):
    # zero-size payloads, so only numpy's rank and size limits can reject them
    path = tmp_path / "a.bin"
    path.write_bytes(b"STARTEST" + struct.pack("<III", 2, 1, 1) + b"a" + b"f4"
                     + struct.pack(f"<I{len(shape)}I", len(shape), *shape))
    with pytest.raises(FormatError, match="unsupported shape"):
        read_archive(path, b"STARTEST")
