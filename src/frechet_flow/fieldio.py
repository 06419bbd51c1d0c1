"""Output writers: binary and CSV fields, CSV tables, metadata sidecars.

Every CSV file the package writes goes through `write_csv` and every
plain-text sidecar through `write_metadata`.

Binary field layout: magic ``FL2L``, version u32 = 1, n u8, J u32, inv_h
u32, then one little-endian f64 pair (re, im) per node in row-major order,
that is one little-endian complex128 per node.  Reading back what was
written gives the same bits, signed zeros and non-finite parts included.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from .spectral import FrequencyGrid, SpectralField

MAGIC = b"FL2L"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")
_SAMPLE_BYTES = 16


class FieldFormatError(ValueError):
    """Malformed binary field file."""


def write_field(path, field: SpectralField):
    grid = field.grid
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, grid.n, grid.J, grid.inv_h))
        # the samples' own buffer, written without a copy on little-endian hosts
        handle.write(memoryview(field.values.astype("<c16", copy=False).reshape(-1)))


def read_field(path) -> SpectralField:
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FieldFormatError("truncated header")
        magic, version, n, J, inv_h = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FieldFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FieldFormatError(f"unsupported version {version}")
        grid = FrequencyGrid(n, J, inv_h)
        expected = grid.node_count * _SAMPLE_BYTES
        found = os.fstat(handle.fileno()).st_size - _HEADER.size
        if found == expected:
            values = np.empty(grid.shape, dtype="<c16")
            found = handle.readinto(values.reshape(-1).view(np.uint8))
    if found != expected:
        raise FieldFormatError(
            f"expected a body of {expected} bytes ({grid.node_count} samples), "
            f"found {found} bytes"
        )
    return SpectralField._adopt(grid, values.astype(np.complex128, copy=False))


def write_csv(path, header, rows):
    """Write a header and rows as CSV (``\\r\\n`` line ends).

    Float cells (``float`` and numpy floating scalars) are written as
    ``%.17g``, which reads back to the same value; other cells as they are.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            ["%.17g" % cell if isinstance(cell, (float, np.floating)) else cell
             for cell in row]
            for row in rows
        )


def write_metadata(path, lines):
    """Write a plain-text sidecar, one line per entry."""
    with open(path, "w") as handle:
        handle.writelines(line + "\n" for line in lines)


def field_to_csv(path, field: SpectralField):
    grid = field.grid
    write_csv(
        path,
        [f"xi_{k + 1}" for k in range(grid.n)] + ["re", "im"],
        ([*point, value.real, value.imag]
         for point, value in zip(grid.node_points(), field.values.ravel())),
    )
