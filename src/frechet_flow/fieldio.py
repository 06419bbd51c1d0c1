"""Output writers: binary and CSV fields, CSV tables, metadata sidecars.

Every CSV file the package writes goes through `write_csv` and every
plain-text sidecar through `write_metadata`.  A CSV file has ``\r\n`` line
ends and unquoted cells: a float column's are ``%.17g``, which reads back to
the same value, any other column's the ``str`` of their Python values, so
integers stay exact past int64, in an object column or a sequence of ints.

On disk a field is in grid (row-major) order, in memory in shell order;
`write_field`, `read_field` and `field_to_csv` convert a block of rows at
a time (`ShellIndex.rows`), so none holds a grid-ordered copy.

Binary field layout: magic ``FL2L``, version u32 = 1, n u8, J u32, inv_h
u32, then one little-endian f64 pair (re, im) per node in row-major order,
that is one little-endian complex128 per node.  Reading back what was
written gives the same bits, signed zeros and non-finite parts included.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .spectral import FrequencyGrid, SpectralField

MAGIC = b"FL2L"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")
_SAMPLE_BYTES = 16
_CSV_BLOCK = 1 << 13  # rows per `%` call of `write_csv`


class FieldFormatError(ValueError):
    """Malformed binary field file."""


def write_field(path, field: SpectralField):
    grid = field.grid
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, grid.n, grid.J, grid.inv_h))
        for _, positions in grid.shells().rows():
            handle.write(field.samples[positions].astype("<c16", copy=False))


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
            samples = np.empty(grid.node_count, dtype=np.complex128)
            found = 0
            for nodes, positions in grid.shells().rows():
                block = np.empty(nodes.stop - nodes.start, dtype="<c16")
                found += handle.readinto(block.view(np.uint8))
                samples[positions] = block
    if found != expected:
        raise FieldFormatError(
            f"expected a body of {expected} bytes ({grid.node_count} samples), "
            f"found {found} bytes"
        )
    return SpectralField._adopt(grid, samples)


def _column(column) -> np.ndarray:
    """``np.asarray(column)``, but ints that numpy widens to floats (``[-1, 2**63]``) stay ints."""
    array = np.asarray(column)
    if array.dtype.kind == "f" and all(isinstance(cell, (int, np.integer)) for cell in column):
        return np.array(column, dtype=object)
    return array


def write_csv(path, header, columns):
    """Write a header line and equal-length columns as CSV, `_CSV_BLOCK` rows per
    `%` call; each column's dtype, as `_column` reads it, sets its cells' format."""
    columns = [_column(column) for column in columns]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(column) for column in columns]}")
    _write_rows(path, header, [columns])


def _write_rows(path, header, blocks):
    """Write a header line, then each block's equal-length numpy columns as CSV rows."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for columns in blocks:
            row = ",".join("%.17g" if column.dtype.kind == "f" else "%s"
                           for column in columns) + "\r\n"
            for start in range(0, len(columns[0]), _CSV_BLOCK):
                block = [column[start:start + _CSV_BLOCK].tolist() for column in columns]
                cells = [cell for row_cells in zip(*block) for cell in row_cells]
                handle.write(row * len(block[0]) % tuple(cells))


def write_metadata(path, lines):
    """Write a plain-text sidecar, one line per entry."""
    with open(path, "w") as handle:
        handle.writelines(line + "\n" for line in lines)


def field_to_csv(path, field: SpectralField):
    """One row per node in row-major order: its coordinates, then the sample's parts."""
    grid = field.grid
    blocks = ([*grid.coordinates(nodes), samples.real, samples.imag]
              for nodes, positions in grid.shells().rows()
              for samples in [field.samples[positions]])
    _write_rows(path, [f"xi_{k + 1}" for k in range(grid.n)] + ["re", "im"], blocks)
