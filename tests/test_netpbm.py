"""Binary PPM/PGM round trips and header error reporting.

Round-trip accuracy is pinned to the quantizer: floor(v * 255 + 0.5) on
write, /255 on read, so no value moves by more than 1/510. Error cases
check both the message and the reported byte offset.
"""

import re
import warnings

import numpy as np
import pytest

from salattn.netpbm import (NetpbmError, ppm_shape, read_pgm, read_ppm,
                            write_pgm, write_ppm)


def test_ppm_round_trip_exact_endpoints(tmp_path):
    p = tmp_path / "a.ppm"
    img = np.zeros((4, 5, 3))
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)
    img = np.ones((4, 5, 3))
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)


def test_pgm_round_trip_exact_endpoints(tmp_path):
    p = tmp_path / "a.pgm"
    for img in (np.zeros((3, 7)), np.ones((3, 7))):
        write_pgm(p, img)
        assert np.array_equal(read_pgm(p), img)


def test_round_trip_error_bound(tmp_path):
    rng = np.random.default_rng(1302)
    for trial in range(5):
        img = rng.random((6, 9, 3))
        p = tmp_path / f"t{trial}.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 1.0 / 510.0
    gray = rng.random((8, 4))
    q = tmp_path / "t.pgm"
    write_pgm(q, gray)
    assert np.max(np.abs(read_pgm(q) - gray)) <= 1.0 / 510.0


def test_quantization_rounds_half_up(tmp_path):
    # 0.5/255 quantizes to 1, just below it quantizes to 0
    p = tmp_path / "r.pgm"
    write_pgm(p, np.array([[0.5 / 255.0, 0.4999 / 255.0]]))
    assert np.array_equal(read_pgm(p) * 255.0, np.array([[1.0, 0.0]]))


def test_values_clip_outside_unit_range(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(p, np.array([[-0.2, 1.7]]))
    assert np.array_equal(read_pgm(p), np.array([[0.0, 1.0]]))


def test_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # comment to end of line\n 2 \t1 # again\n255\n\x01\xff")
    img = read_pgm(p)
    assert img.shape == (1, 2)
    assert np.allclose(img * 255.0, [[1.0, 255.0]])


def test_write_shape_validation(tmp_path):
    with pytest.raises(ValueError, match=r"\(h, w, 3\)"):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"\(h, w\)"):
        write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))


def test_wrong_magic_reports_offset_zero(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(NetpbmError, match="expected magic P6.*at byte 0"):
        read_ppm(p)
    q = tmp_path / "bad.pgm"
    q.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(NetpbmError, match="expected magic P5.*at byte 0"):
        read_pgm(q)


def test_non_integer_dimension_reports_offset(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
    # the bogus width token starts at byte 3
    with pytest.raises(NetpbmError, match="expected integer width.*at byte 3"):
        read_pgm(p)


def test_missing_header_fields(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2")
    with pytest.raises(NetpbmError, match="missing height"):
        read_pgm(p)
    p.write_bytes(b"P5")
    with pytest.raises(NetpbmError, match="missing width"):
        read_pgm(p)


def test_zero_dimension_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n0 3\n255\n")
    with pytest.raises(NetpbmError, match="non-positive image size 0x3"):
        read_pgm(p)


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(NetpbmError, match="unsupported maxval 65535"):
        read_pgm(p)


def test_truncated_pixel_data(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(11))   # needs 12
    with pytest.raises(NetpbmError, match="truncated pixel data, need 12 bytes, have 11"):
        read_ppm(p)


def test_huge_header_integer_reports_offset(tmp_path):
    """A header integer past Python's 4300-digit conversion limit is a
    NetpbmError with its byte offset, not a bare ValueError."""
    p = tmp_path / "huge.ppm"
    p.write_bytes(b"P6\n" + b"9" * 5000 + b" 2\n255\n" + bytes(12))
    for read in (read_ppm, ppm_shape):
        with pytest.raises(NetpbmError, match="width of 5000 digits is too long at byte 3"):
            read(p)


def test_ppm_shape_checks_header_and_raster_length(tmp_path):
    p = tmp_path / "a.ppm"
    write_ppm(p, np.zeros((4, 5, 3)))
    assert ppm_shape(p) == (4, 5, 3) == read_ppm(p).shape
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(NetpbmError, match="truncated pixel data, need 60 bytes, have 59"):
        ppm_shape(p)
    p.write_bytes(b"P5\n5 4\n255\n" + bytes(20))
    with pytest.raises(NetpbmError, match="expected magic P6.*at byte 0"):
        ppm_shape(p)


@pytest.mark.parametrize("read, magic, shape", [(read_ppm, b"P6", (4, 5, 3)),
                                                (ppm_shape, b"P6", (4, 5, 3)),
                                                (read_pgm, b"P5", (4, 5))],
                         ids=["read_ppm", "ppm_shape", "read_pgm"])
def test_fuzz_raises_only_netpbm_error(tmp_path, read, magic, shape):
    """Truncation at every byte, seeded random bytes written into the
    header, and a header field replaced by a 5000-digit run: each file
    either reads or raises NetpbmError, never anything else."""
    raster = np.random.default_rng(7).integers(0, 256, size=shape, dtype=np.uint8).tobytes()
    header = magic + b" # comment\n5 4\t255\n"
    blob = header + raster
    rng = np.random.default_rng(2025)
    cases = [blob[:cut] for cut in range(len(blob))]
    for _ in range(300):
        at = int(rng.integers(len(header)))
        n = int(rng.integers(1, 5))
        cases.append(blob[:at] + rng.bytes(n) + blob[at + n:])
    fields = [(m.start(), m.end()) for m in re.finditer(rb"[^\s]+", header)]
    cases += [blob[:a] + b"7" * 5000 + blob[b:] for a, b in fields]
    rejected = 0
    for i, case in enumerate(cases):
        path = tmp_path / f"{i}.img"
        path.write_bytes(case)
        try:
            read(path)
        except NetpbmError:
            rejected += 1
        path.unlink()
    # Every truncation and every digit run is rejected; a random byte may
    # land in the comment and leave a valid file.
    assert rejected >= len(blob) + len(fields)


def test_trailing_bytes_ignored(tmp_path):
    p = tmp_path / "extra.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\x80extra-junk")
    img = read_pgm(p)
    assert img.shape == (1, 1)
    assert abs(img[0, 0] - 128.0 / 255.0) < 1e-15


def test_atomic_write_leaves_no_temp_files(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["a.pgm"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_write_refuses_non_finite_pixels(tmp_path, bad):
    """A non-finite value raises NetpbmError, with no numpy warning, and
    leaves no file behind, where it used to be cast to some grey level."""
    for write, shape in ((write_pgm, (4, 5)), (write_ppm, (4, 5, 3))):
        img = np.full(shape, 0.5)
        img[2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetpbmError, match="non-finite"):
                write(tmp_path / "img", img)
    assert list(tmp_path.iterdir()) == []
