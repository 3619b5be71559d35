"""Binary containers and JSON descriptors.

All binary payloads are little-endian.  Three layouts share the "ACHR"
magic:

* packet files: magic, version u32, mass f64, per-axis (N u32, P f64)
  three times, then the complex amplitudes as interleaved f64 pairs in
  row-major order with x1 slowest;
* field dumps: magic, version u32, slice count u32, then per slice a
  header (x0 f64, three u32 spatial dims) followed by four f64 current
  components per node, row-major;
* scalar fields (sampled surfaces): magic, version u32, three u32 dims,
  origin f64 x3, spacing f64, then the values.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grids import MomentumGrid
from .wavepacket import WavePacket, _recompute_margin, make_packet

MAGIC = b"ACHR"
VERSION = 1


class FormatError(ValueError):
    """Malformed or mismatched container."""


def _unpack(fmt: str, raw: bytes, offset: int) -> tuple:
    """struct.unpack_from with FormatError for a header cut off."""
    try:
        return struct.unpack_from(fmt, raw, offset)
    except struct.error as exc:
        raise FormatError(f"header cut off at offset {offset}") from exc


def _write_header(fh, fmt: str, *fields) -> None:
    """Magic and version, then `fields` packed little-endian by `fmt`."""
    fh.write(MAGIC + struct.pack("<I" + fmt, VERSION, *fields))


def _read_header(raw: bytes, fmt: str):
    """The `fmt` fields after a checked magic and version, and the offset
    past them."""
    if raw[:4] != MAGIC:
        raise FormatError("bad magic")
    version, *fields = _unpack("<I" + fmt, raw, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    return fields, 4 + struct.calcsize("<I" + fmt)


def save_packet(path, packet: WavePacket) -> None:
    n, p_max = packet.grid.n, packet.grid.p_max
    with open(path, "wb") as fh:
        _write_header(fh, "d" + "Id" * 3, packet.mass, *(n, p_max) * 3)
        amp = np.ascontiguousarray(packet.amplitudes, dtype=np.complex128)
        inter = np.empty(amp.size * 2)
        inter[0::2] = amp.real.reshape(-1)
        inter[1::2] = amp.imag.reshape(-1)
        fh.write(inter.astype("<f8").tobytes())


def load_packet(path) -> WavePacket:
    raw = Path(path).read_bytes()
    (mass, *axes), off = _read_header(raw, "d" + "Id" * 3)
    dims = list(zip(axes[0::2], axes[1::2]))
    if len(set(dims)) != 1:
        raise FormatError(f"anisotropic grids unsupported: {dims}")
    n, p_max = dims[0]
    data = np.frombuffer(raw, dtype="<f8", offset=off)
    if data.size != 2 * n ** 3:
        raise FormatError(f"payload holds {data.size} floats, expected {2 * n ** 3}")
    amp = (data[0::2] + 1j * data[1::2]).reshape(n, n, n)
    grid = MomentumGrid(n, p_max)
    margin = max(1, _recompute_margin(amp, grid))
    return WavePacket(grid, amp, mass, margin, {"kind": "loaded"})


def save_field_slices(path, slices) -> None:
    """slices: iterable of (x0, array shaped (4, n1, n2, n3))."""
    slices = list(slices)
    with open(path, "wb") as fh:
        _write_header(fh, "I", len(slices))
        for x0, J in slices:
            J = np.asarray(J, dtype=float)
            if J.ndim != 4 or J.shape[0] != 4:
                raise FormatError(f"slice must be (4, n1, n2, n3), got {J.shape}")
            fh.write(struct.pack("<dIII", float(x0), *J.shape[1:]))
            fh.write(np.moveaxis(J, 0, -1).astype("<f8").tobytes())


def load_field_slices(path):
    raw = Path(path).read_bytes()
    (count,), off = _read_header(raw, "I")
    out = []
    for _ in range(count):
        x0, n1, n2, n3 = _unpack("<dIII", raw, off)
        off += 20
        k = n1 * n2 * n3 * 4
        if off + 8 * k > len(raw):
            raise FormatError(f"slice payload at offset {off} is cut off")
        data = np.frombuffer(raw, dtype="<f8", offset=off, count=k)
        off += 8 * k
        out.append((x0, np.moveaxis(data.reshape(n1, n2, n3, 4), -1, 0).copy()))
    if off != len(raw):
        raise FormatError(f"{len(raw) - off} trailing bytes after the last slice")
    return out


def save_scalar_field(path, values, origin, spacing: float) -> None:
    values = np.asarray(values, dtype=float)
    with open(path, "wb") as fh:
        _write_header(fh, "IIIdddd", *values.shape, *origin, spacing)
        fh.write(values.astype("<f8").tobytes())


def load_scalar_field(path):
    raw = Path(path).read_bytes()
    (*dims, ox, oy, oz, spacing), off = _read_header(raw, "IIIdddd")
    expected = 8 * dims[0] * dims[1] * dims[2]
    if len(raw) - off != expected:
        raise FormatError(f"payload holds {len(raw) - off} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<f8", offset=off).reshape(dims).copy()
    return values, (ox, oy, oz), spacing


# -- JSON descriptors -------------------------------------------------------


def packet_descriptor(grid: MomentumGrid, mass: float, kind: str,
                      margin=None, **params) -> dict:
    return {"grid": {"n": grid.n, "p_max": grid.p_max}, "mass": mass,
            "kind": kind, "margin": margin, "params": params}


def packet_from_descriptor(d: dict) -> WavePacket:
    grid = MomentumGrid(int(d["grid"]["n"]), float(d["grid"]["p_max"]))
    return make_packet(grid, float(d["mass"]), d.get("kind", "mollified_gaussian"),
                       margin=d.get("margin"), **d.get("params", {}))


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
