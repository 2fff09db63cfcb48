"""Linear algebra over GF(2) with vectors stored as int bitmasks."""

from __future__ import annotations


def low_bit(x: int) -> int:
    """Index of the lowest set bit; x must be nonzero."""
    return (x & -x).bit_length() - 1


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon form, pivots on lowest set bits, sorted by pivot."""
    echelon: list[tuple[int, int]] = []  # (pivot, row), rows fully reduced against each other
    for r in rows:
        for p, b in echelon:
            if (r >> p) & 1:
                r ^= b
        if r == 0:
            continue
        p = low_bit(r)
        echelon = [(q, b ^ r) if (b >> p) & 1 else (q, b) for q, b in echelon]
        echelon.append((p, r))
    echelon.sort()
    return [b for _, b in echelon]


def reduce_mod(echelon: list[int], v: int) -> int:
    """Reduce v against rows already in reduced echelon form."""
    for b in echelon:
        if (v >> low_bit(b)) & 1:
            v ^= b
    return v


def kernel_and_image(columns: list[int], sources: list[int]) -> tuple[list[int], list[int]]:
    """Kernel basis and image echelon of the map sending sources[j] to columns[j].

    Each kernel vector is the sum of the sources whose columns sum to zero,
    produced deterministically in source order; the image comes back in
    reduced echelon form. The pivot images are kept fully reduced against
    each other as they are found, each with the sum of sources it is the
    image of, so the echelon needs no second pass.
    """
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, image, tracker)
    kernel: list[int] = []
    for img, trk in zip(columns, sources, strict=True):
        for p, pi, pt in pivots:
            if (img >> p) & 1:
                img ^= pi
                trk ^= pt
        if img == 0:
            kernel.append(trk)
            continue
        p = low_bit(img)
        pivots = [(q, pi ^ img, pt ^ trk) if (pi >> p) & 1 else (q, pi, pt) for q, pi, pt in pivots]
        pivots.append((p, img, trk))
    pivots.sort()
    return kernel, [pi for _, pi, _ in pivots]


def quotient_representatives(vectors: list[int], modulo: list[int]) -> list[int]:
    """Canonical representatives of span(vectors) / span(modulo).

    ``modulo`` must already be in reduced echelon form, as ``rref`` and
    ``kernel_and_image`` return it. Reduces every vector against it, then
    takes reduced echelon form, so the output is independent of the order and
    presentation of the vectors.
    """
    pivots = [(low_bit(b), b) for b in modulo]
    reduced = []
    for v in vectors:
        for p, b in pivots:
            if (v >> p) & 1:
                v ^= b
        reduced.append(v)
    return rref(reduced)
