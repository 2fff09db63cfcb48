"""Linear algebra over GF(2) with vectors stored as int bitmasks.

Echelons pivot on lowest set bits and are kept fully reduced: no row has a
set bit at another row's pivot. While one is built, it is a dict from each
row's pivot bit, a power of two, to the row, with the OR of the pivot bits as
a mask. Reducing v against it then XORs in exactly the rows whose pivot bits
are set in ``v & mask``: each such XOR clears its own pivot bit in v and
touches no other pivot bit. A new pivot is substituted back only into the
rows that carry its bit, which keeps the echelon fully reduced.
``kernel_and_image`` holds the one insertion loop; ``rref`` is its image
echelon, with a zero source for every row.
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
    produced deterministically in source order; the image comes back in
    reduced echelon form. The pivot images are kept fully reduced against
    each other as they are found, each with the sum of sources it is the
    image of, so the echelon needs no second pass.
    """
    images: dict[int, int] = {}  # pivot bit -> image
    trackers: dict[int, int] = {}  # pivot bit -> the sum of sources it is the image of
    mask = 0
    kernel: list[int] = []
    for img, trk in zip(columns, sources, strict=True):
        hit = img & mask
        while hit:
            low = hit & -hit
            img ^= images[low]
            trk ^= trackers[low]
            hit ^= low
        if not img:
            kernel.append(trk)
            continue
        low = img & -img
        for q, b in images.items():
            if b & low:
                images[q] = b ^ img
                trackers[q] ^= trk
        images[low] = img
        trackers[low] = trk
        mask |= low
    return kernel, [images[q] for q in sorted(images)]


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
