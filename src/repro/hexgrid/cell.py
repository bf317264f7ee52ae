"""Cell id representation for the hexagonal index.

A cell is identified by its resolution and its axial lattice coordinates
``(q, r)``. Ids pack into a single non-negative 64-bit integer so they can be
used as actor routing keys, dict keys, Kafka-style message keys and KV-store
fields without any auxiliary structure:

.. code-block:: text

    bits 63..60  resolution (0..15)
    bits 59..30  q + OFFSET  (30 bits)
    bits 29..0   r + OFFSET  (30 bits)
"""

from __future__ import annotations

import numpy as np

#: Finest supported resolution (mirrors H3's 16 resolution levels, 0..15).
MAX_RESOLUTION = 15

_COORD_BITS = 30
_OFFSET = 1 << (_COORD_BITS - 1)
_COORD_MASK = (1 << _COORD_BITS) - 1


def pack_cell(res: int, q: int, r: int) -> int:
    """Pack ``(res, q, r)`` into a 64-bit cell id."""
    if not 0 <= res <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {res}")
    qo = q + _OFFSET
    ro = r + _OFFSET
    if not (0 <= qo <= _COORD_MASK and 0 <= ro <= _COORD_MASK):
        raise ValueError(f"axial coordinates out of range: q={q}, r={r}")
    return (res << (2 * _COORD_BITS)) | (qo << _COORD_BITS) | ro


def pack_cells(res: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`pack_cell` over arrays of integral axial coordinates (``uint64`` ids)."""
    if not 0 <= res <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {res}")
    qo, ro = q.astype(np.int64) + _OFFSET, r.astype(np.int64) + _OFFSET
    if ((qo | ro) >> _COORD_BITS).any():  # negative, or bits past the mask
        raise ValueError("axial coordinates out of range")
    ids = (qo.astype(np.uint64) << _COORD_BITS) | ro.astype(np.uint64)
    return ids | np.uint64(res << (2 * _COORD_BITS))


def unpack_cell(cell: int) -> tuple[int, int, int]:
    """Unpack a cell id into ``(res, q, r)``."""
    if cell < 0:
        raise ValueError(f"cell ids are non-negative, got {cell}")
    res = cell >> (2 * _COORD_BITS)
    if res > MAX_RESOLUTION:
        raise ValueError(f"invalid cell id {cell}: resolution {res} out of range")
    q = ((cell >> _COORD_BITS) & _COORD_MASK) - _OFFSET
    r = (cell & _COORD_MASK) - _OFFSET
    return res, q, r


def cell_resolution(cell: int) -> int:
    """Resolution level encoded in a cell id."""
    return unpack_cell(cell)[0]


def is_valid_cell(cell: int) -> bool:
    """True if ``cell`` decodes to a structurally valid id."""
    try:
        unpack_cell(cell)
    except (ValueError, TypeError):
        return False
    return True


def cell_to_string(cell: int) -> str:
    """Hexadecimal string form of a cell id (H3-style presentation)."""
    res, q, r = unpack_cell(cell)  # validate before formatting
    del res, q, r
    return f"{cell:016x}"


def string_to_cell(text: str) -> int:
    """Parse the hexadecimal string form back into a cell id."""
    cell = int(text, 16)
    unpack_cell(cell)  # validate
    return cell
