import numpy as np
import pytest

from lesionseg.errors import ValidationError
from lesionseg.netpbm import read_mask, read_netpbm, write_mask, write_pgm, write_ppm


def test_mask_round_trip_random(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(10):
        mask = (rng.random((32, 32)) > 0.5).astype(np.float64)
        path = tmp_path / f"m{i}.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)
        # writing the re-read mask reproduces the file byte-exactly
        first = path.read_bytes()
        write_mask(path, read_mask(path))
        assert path.read_bytes() == first


def test_all_zero_mask_payload(tmp_path):
    path = tmp_path / "zero.pgm"
    write_mask(path, np.zeros((4, 6)))
    blob = path.read_bytes()
    header = b"P5\n6 4\n255\n"
    assert blob.startswith(header)
    assert blob[len(header):] == b"\x00" * 24


def test_single_foreground_pixel_payload(tmp_path):
    mask = np.zeros((2, 3))
    mask[0, 1] = 1.0
    path = tmp_path / "one.pgm"
    write_mask(path, mask)
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes([0, 255, 0, 0, 0, 0])


def test_frame_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(9)
    frame = rng.integers(0, 256, (17, 23)).astype(np.float64) / 255.0
    path = tmp_path / "f.pgm"
    write_pgm(path, frame)
    blob = path.read_bytes()
    write_pgm(path, read_netpbm(path))
    assert path.read_bytes() == blob


def test_ppm_reads_as_hw3(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (5, 7, 3)).astype(np.float64) / 255.0
    path = tmp_path / "c.ppm"
    write_ppm(path, img)
    out = read_netpbm(path)
    assert out.shape == (5, 7, 3)
    assert np.array_equal(out, img)


def test_comment_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([10, 20, 30, 40, 50, 60])
    path.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + payload)
    out = read_netpbm(path)
    assert out.shape == (2, 3)
    assert np.allclose(out * 255, np.array([[10, 20, 30], [40, 50, 60]]))


def test_binarization_threshold_128(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
    assert read_mask(path).tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_write_mask_rejects_nonbinary(tmp_path):
    with pytest.raises(ValidationError):
        write_mask(tmp_path / "bad.pgm", np.full((2, 2), 0.5))
    with pytest.raises(ValidationError, match="not binary"):
        write_mask(tmp_path / "nan.pgm", np.array([[0.0, 1.0], [np.nan, 1.0]]))
    assert not (tmp_path / "nan.pgm").exists()


@pytest.mark.parametrize("size", ["0 0", "0 3", "3 0"])
def test_zero_size_image_rejected_naming_the_file(tmp_path, size):
    path = tmp_path / "empty.pgm"
    path.write_bytes(f"P5\n{size}\n255\n".encode("ascii"))
    with pytest.raises(ValidationError, match="zero-size") as exc:
        read_netpbm(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("magic, payload", [(b"P5", [200, 50]), (b"P6", [0] * 5 + [101])])
def test_a_sample_above_maxval_is_refused_naming_the_file(tmp_path, magic, payload):
    path = tmp_path / "over.pnm"
    path.write_bytes(magic + b"\n2 1\n100\n" + bytes(payload))
    with pytest.raises(ValidationError, match=f"sample {max(payload)} exceeds maxval 100") as exc:
        read_netpbm(path)
    assert str(path) in str(exc.value)
    path.write_bytes(magic + b"\n2 1\n100\n" + bytes(min(v, 100) for v in payload))
    assert read_netpbm(path).max() == 1.0


def test_truncated_file(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_netpbm(path)


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.2])
@pytest.mark.parametrize("writer, shape", [(write_pgm, (2, 3)), (write_ppm, (2, 3, 3))])
def test_frame_writers_refuse_values_outside_unit_range(tmp_path, writer, shape, bad):
    image = np.full(shape, 0.5)
    image[1, 1] = bad
    path = tmp_path / "bad.pnm"
    with pytest.raises(ValidationError, match=r"\[0, 1\]") as exc:
        writer(path, image)
    assert str(path) in str(exc.value)
    assert not path.exists()


def test_header_claiming_more_pixels_than_the_file_holds_is_refused_unread(tmp_path):
    path = tmp_path / "huge.pgm"   # 10^10 claimed pixels, 3 present
    path.write_bytes(b"P5\n100000 100000\n255\nabc")
    with pytest.raises(ValidationError, match="truncated pixel data") as exc:
        read_netpbm(path)
    assert str(path) in str(exc.value)
