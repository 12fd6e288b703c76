"""File formats: PFM, PGM and PPM images, and typed JSON objects.

PFM is written little-endian (scale -1.0) with rows bottom-to-top per the
format convention; PGM/PPM are the binary (P5/P6) variants, big-endian for
16-bit PGM. All writers are byte-deterministic. Readers check the header,
its size against `shape` if given, and that the payload holds exactly the
pixels it declares, and raise a ValueError naming the file otherwise.

`read_fields` checks every JSON object the program reads, the config's and
scene.json's, against its fields' annotations, naming the key on error.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import typing

import numpy as np


def _read_size(f, path, shape=None) -> tuple[int, int]:
    """Width and height from the next header line: positive, (h, w) == shape if given."""
    line = f.readline()
    try:
        w, h = (int(x) for x in line.split())
    except ValueError:
        raise ValueError(f"{path}: bad size line {line!r}") from None
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}: width and height must be positive, got {w} x {h}")
    if shape is not None and (h, w) != tuple(shape):
        raise ValueError(f"{path}: image shape {(h, w)} differs from image_size {tuple(shape)}")
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


def read_pfm(path, shape=None) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError(f"{path} is not a grayscale PFM")
        w, h = _read_size(f, path, shape)
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


def read_pgm(path, shape=None) -> np.ndarray:
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"{path} is not a binary PGM")
        w, h = _read_size(f, path, shape)
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


def read_ppm(path, shape=None) -> np.ndarray:
    """Read a binary 8-bit PPM back to float64 in [0, 1]."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P6":
            raise ValueError(f"{path} is not a binary PPM")
        w, h = _read_size(f, path, shape)
        maxval = _read_number(f, path, int, "maxval")
        if maxval != 255:
            raise ValueError(f"{path}: only 8-bit PPM (maxval 255) supported, got {maxval}")
        data = np.frombuffer(_read_payload(f, path, 3 * w * h), dtype=np.uint8).reshape(h, w, 3)
    return data.astype(np.float64) / 255.0


def _fits(hint, value) -> bool:
    """Whether a JSON value fits a field's annotation: int takes only
    non-bool integers, float only finite non-bool reals, and tuple[X, Y, ...]
    a list or tuple of the same length whose elements fit X, Y, ... in turn."""
    if typing.get_origin(hint) is tuple:
        elems = typing.get_args(hint)
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(elems)
            and all(_fits(e, v) for e, v in zip(elems, value))
        )
    if isinstance(value, bool):
        return False
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, hint)


def read_fields(data, hints: dict, path: str, name: str = "", required: bool = True) -> dict:
    """The JSON object `data` checked against `hints`, with `path.key` naming a
    field and `name` (default: `path`) the object; only tuples are converted."""
    name = name or path or "the top level"
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, got {data!r}")
    for which, keys in (("unknown", set(data) - set(hints)), ("missing", set(hints) - set(data))):
        if keys and (required or which == "unknown"):
            raise ValueError(f"{which} keys in {name}: {sorted(keys)}")
    fields = {}
    for key, value in data.items():
        hint, tuple_hint = hints[key], typing.get_origin(hints[key]) is tuple
        if not _fits(hint, value):
            raise ValueError(
                f"{path}{'.' if path else ''}{key}: {value!r} is not a valid "
                f"{hint if tuple_hint else hint.__name__}"
            )
        fields[key] = tuple(value) if tuple_hint else value
    return fields


@contextlib.contextmanager
def naming(where: str):
    """Put `where: ` in front of a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
