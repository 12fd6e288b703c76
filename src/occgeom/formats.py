"""Binary image file formats: PFM, PGM, PPM.

PFM is written little-endian (scale -1.0) with rows bottom-to-top per the
format convention; PGM/PPM are the binary (P5/P6) variants, big-endian for
16-bit PGM. All writers are byte-deterministic. Readers check the header
and that the payload holds exactly the pixels it declares, and raise a
ValueError naming the file otherwise.
"""

from __future__ import annotations

import numpy as np


def _read_size(f, path) -> tuple[int, int]:
    """Width and height from the next header line; both must be positive."""
    line = f.readline()
    try:
        w, h = (int(x) for x in line.split())
    except ValueError:
        raise ValueError(f"{path}: bad size line {line!r}") from None
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: width and height must be positive, got {w} x {h}")
    return w, h


def _read_number(f, path, kind, what: str):
    """The next header line as a number of type `kind`."""
    line = f.readline()
    try:
        return kind(line)
    except ValueError:
        raise ValueError(f"{path}: bad {what} line {line!r}") from None


def _read_payload(f, path, nbytes: int) -> bytes:
    """The rest of the file, which must be exactly nbytes long."""
    data = f.read()
    if len(data) != nbytes:
        raise ValueError(f"{path}: payload is {len(data)} bytes, expected {nbytes}")
    return data


def write_pfm(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"PFM writer expects a 2-D map, got {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")
        f.write(data[::-1].astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError(f"{path} is not a grayscale PFM")
        w, h = _read_size(f, path)
        scale = _read_number(f, path, float, "scale")
        if not (np.isfinite(scale) and scale != 0.0):
            raise ValueError(f"{path}: PFM scale must be finite and nonzero, got {scale}")
        dtype = "<f4" if scale < 0 else ">f4"
        data = np.frombuffer(_read_payload(f, path, 4 * w * h), dtype=dtype).reshape(h, w)
    return data[::-1].astype(np.float64)


def write_pgm8(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise ValueError(f"PGM writer expects a 2-D map, got {data.shape}")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"{path} is not a binary PGM")
        w, h = _read_size(f, path)
        maxval = _read_number(f, path, int, "maxval")
        if not 0 < maxval <= 65535:
            raise ValueError(f"{path}: PGM maxval must be in 1..65535, got {maxval}")
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        data = _read_payload(f, path, dtype.itemsize * w * h)
    return np.frombuffer(data, dtype=dtype).reshape(h, w).astype(np.int64)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an H x W x 3 float image in [0, 1] as binary 8-bit PPM."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"PPM writer expects H x W x 3, got {rgb.shape}")
    q = np.clip(np.floor(rgb * 255.0 + 0.5), 0, 255).astype(np.uint8)
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(q.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary 8-bit PPM back to float64 in [0, 1]."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P6":
            raise ValueError(f"{path} is not a binary PPM")
        w, h = _read_size(f, path)
        maxval = _read_number(f, path, int, "maxval")
        if maxval != 255:
            raise ValueError(f"{path}: only 8-bit PPM (maxval 255) supported, got {maxval}")
        data = np.frombuffer(_read_payload(f, path, 3 * w * h), dtype=np.uint8).reshape(h, w, 3)
    return data.astype(np.float64) / 255.0
