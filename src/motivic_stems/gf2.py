"""Linear algebra over GF(2) with vectors stored as int bitmasks.

Echelons pivot on lowest set bits and come back fully reduced: no row has a
set bit at another row's pivot. ``kernel_and_image`` holds the one insertion
loop, and ``rref`` is its image echelon, with a zero source for every row.
It builds a semi-echelon first: a dict from each row's pivot bit, a power of
two, to the row, which has no set bit below its pivot. A new vector is
reduced by XORing in the row at its lowest set bit until that bit is not yet
a pivot, where the vector becomes a row, or until it is zero. One
back-substitution, highest pivot first, then reduces each row against the
rows of higher pivot, which are fully reduced by then. Reducing v against a
fully reduced echelon XORs in exactly the rows whose pivot bits are set in
``v & mask``, with the OR of the pivot bits as the mask: each such XOR
clears its own pivot bit in v and touches no other pivot bit.
"""

from __future__ import annotations


def _reduce(pivots: dict[int, int], mask: int, v: int) -> int:
    hit = v & mask
    while hit:
        low = hit & -hit
        v ^= pivots[low]
        hit ^= low
    return v


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form, pivots on lowest set bits, sorted by pivot."""
    return kernel_and_image(rows, [0] * len(rows))[1]


def kernel_and_image(columns: list[int], sources: list[int]) -> tuple[list[int], list[int]]:
    """Kernel basis and image echelon of the map sending sources[j] to columns[j].

    Each kernel vector is the sum of the sources whose columns sum to zero,
    produced deterministically in source order: a column that reduces to
    zero against the semi-echelon of the columns before it gives its own
    source plus the sources carried by the rows it was reduced by, its
    unique relation with the earlier independent columns.
    """
    rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (image, the sum of sources it is the image of)
    kernel: list[int] = []
    for img, trk in zip(columns, sources, strict=True):
        while img:
            low = img & -img
            row = rows.get(low)
            if row is None:
                rows[low] = (img, trk)
                break
            img ^= row[0]
            trk ^= row[1]
        else:
            kernel.append(trk)
    pivots: dict[int, int] = {}
    mask = 0
    echelon: list[int] = []
    for low in sorted(rows, reverse=True):
        img = pivots[low] = _reduce(pivots, mask, rows[low][0])
        mask |= low
        echelon.append(img)
    echelon.reverse()
    return kernel, echelon


def quotient_representatives(vectors: list[int], modulo: list[int]) -> list[int]:
    """Canonical representatives of span(vectors) / span(modulo).

    ``modulo`` must already be in reduced echelon form, as ``rref`` and
    ``kernel_and_image`` return it. Reduces every vector against it, then
    takes reduced echelon form, so the output is independent of the order and
    presentation of the vectors.
    """
    pivots = {b & -b: b for b in modulo}
    mask = sum(pivots)  # the pivot bits are distinct powers of two
    return rref([_reduce(pivots, mask, v) for v in vectors])
