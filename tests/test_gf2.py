from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from motivic_stems import gf2

matrices = st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=14)


def _reduce_mod(echelon: list[int], v: int) -> int:
    """Reduce v against rows already in reduced echelon form."""
    for b in echelon:
        if v & b & -b:
            v ^= b
    return v


def test_rref_small_example():
    # rows 110, 011, 101 over GF(2): the third is the sum of the first two
    rows = [0b110, 0b011, 0b101]
    echelon = gf2.rref(rows)
    assert len(gf2.rref(rows)) == 2
    assert len(echelon) == 2
    assert all(_reduce_mod(echelon, r) == 0 for r in rows)


@given(matrices)
def test_rref_is_canonical_and_spans(rows):
    echelon = gf2.rref(rows)
    assert gf2.rref(echelon) == echelon
    assert len(echelon) == len(gf2.rref(rows))
    assert all(_reduce_mod(echelon, r) == 0 for r in rows)
    pivots = [e & -e for e in echelon]  # lowest set bits
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    for e in echelon:
        for other in echelon:
            if other is not e:
                assert not other & e & -e


@given(st.lists(st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1)), max_size=14))
def test_kernel_image_rank_nullity(pairs):
    columns, sources = [c for c, _ in pairs], [s for _, s in pairs]
    kernel, image = gf2.kernel_and_image(columns, sources)
    assert len(kernel) + len(gf2.rref(list(image))) == len(columns)
    assert image == _oracle_rref(columns, 12)
    # each kernel vector is the sum of the sources over some set of indices
    # whose columns sum to 0: (column, source) pairs summing to (0, vector)
    graph = gf2.rref([c << 12 | s for c, s in pairs])
    for vector in kernel:
        assert _reduce_mod(graph, vector) == 0
    if len(gf2.rref(sources)) == len(sources):
        assert len(gf2.rref(kernel)) == len(kernel)
        assert 0 not in kernel


@given(matrices, matrices)
def test_quotient_representatives(vectors, modulo):
    # modulo is passed as the echelon kernel_and_image returns for an image
    mod_echelon = gf2.rref(modulo)
    reps = gf2.quotient_representatives(vectors, mod_echelon)
    assert len(reps) == len(gf2.rref(vectors + modulo)) - len(gf2.rref(modulo))
    assert reps == gf2.rref(reps)
    assert reps == gf2.quotient_representatives(vectors[::-1], gf2.kernel_and_image(modulo[::-1], [0] * len(modulo))[1])
    for rep in reps:
        assert rep != 0
        assert _reduce_mod(mod_echelon, rep) == rep
        assert _reduce_mod(gf2.rref(vectors + modulo), rep) == 0


# --- an independent oracle -------------------------------------------------
# Plain Gauss-Jordan on lists of 0/1 entries, written without the module
# under test. Rows of up to 160 bits and up to 60 rows, many of them sums of
# a few others, so that eliminations cancel, pivots collide and kernels are
# large. The rows are dense, or sparse with 1-4 set bits like the engine's
# Leibniz columns, whose reduction chains run through many rows.


def _bits(x: int, width: int) -> list[int]:
    return [(x >> i) & 1 for i in range(width)]


def _int(bits: list[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _gauss_jordan(rows: list[list[int]]) -> list[list[int]]:
    """Nonzero rows of the reduced row echelon form, pivots leftmost, by pivot."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    done = 0
    for col in range(width):
        found = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[done], rows[found] = rows[found], rows[done]
        for i in range(len(rows)):
            if i != done and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[done])]
        done += 1
    return rows[:done]


def _oracle_rref(rows: list[int], width: int) -> list[int]:
    return [_int(r) for r in _gauss_jordan([_bits(r, width) for r in rows])]


def _oracle_kernel(columns: list[int], sources: list[int], width: int) -> list[int]:
    """The relation of each column with the independent columns before it, on sources.

    A column that lies in the span of the columns before it is, in a unique
    way, the sum of a set S of earlier columns that are each independent of
    their own predecessors. Those relations e_j + sum(e_i, i in S) are the
    reduced echelon basis of the relation space with pivots on the highest
    index, so they come from Gauss-Jordan on the rows (column, unit vector)
    with the index part reversed, and are listed by increasing j.
    """
    n = len(columns)
    graph = [_bits(c, width) + [int(i == j) for i in reversed(range(n))] for j, c in enumerate(columns)]
    relations = [r[width:][::-1] for r in _gauss_jordan(graph) if not any(r[:width])]
    relations = [r[::-1] for r in _gauss_jordan([r[::-1] for r in relations])][::-1]
    kernel = []
    for rel in relations:
        trk = 0
        for i, used in enumerate(rel):
            if used:
                trk ^= sources[i]
        kernel.append(trk)
    return kernel


def _oracle_quotient(vectors: list[int], modulo: list[int], width: int) -> list[int]:
    # clear modulo's pivot columns from each vector, then take the echelon
    echelon = _gauss_jordan([_bits(m, width) for m in modulo])
    reduced = []
    for v in vectors:
        bits = _bits(v, width)
        for row in echelon:
            if bits[row.index(1)]:
                bits = [a ^ b for a, b in zip(bits, row)]
        reduced.append(bits)
    return [_int(r) for r in _gauss_jordan(reduced)]


def _sum_of(rows: list[int], pick: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (pick >> i) & 1:
            out ^= r
    return out


MAX_ROWS = 60
widths = st.integers(1, 160)


@st.composite
def wide_matrices(draw, width: int) -> list[int]:
    """Up to ``MAX_ROWS`` rows of ``width`` bits: drawn rows, dense or sparse, then sums of the first few of them."""
    n = draw(st.integers(0, MAX_ROWS))
    if draw(st.booleans()):
        rows = st.integers(0, 2**width - 1)
    else:
        bits = st.sets(st.integers(0, width - 1), min_size=1, max_size=min(4, width))
        rows = bits.map(lambda bits: sum(1 << b for b in bits))
    drawn = draw(st.lists(rows, min_size=n, max_size=n))
    if not drawn:
        return []
    n = draw(st.integers(0, MAX_ROWS - n))
    sums = draw(st.lists(st.integers(1, 2 ** min(len(drawn), 8) - 1), min_size=n, max_size=n))
    return draw(st.permutations(drawn + [_sum_of(drawn, pick) for pick in sums]))


@given(st.data())
def test_rref_and_kernel_and_image_match_the_oracle(data):
    width = data.draw(widths)
    columns = data.draw(wide_matrices(width))
    sources = data.draw(st.lists(st.integers(0, 2**60 - 1), min_size=len(columns), max_size=len(columns)))
    echelon = _oracle_rref(columns, width)
    assert gf2.rref(columns) == echelon
    kernel, image = gf2.kernel_and_image(columns, sources)
    assert kernel == _oracle_kernel(columns, sources, width)
    assert image == echelon


@given(st.data())
def test_quotient_representatives_match_the_oracle(data):
    width = data.draw(widths)
    vectors = data.draw(wide_matrices(width))
    modulo = _oracle_rref(data.draw(wide_matrices(width)), width)
    assert gf2.quotient_representatives(vectors, modulo) == _oracle_quotient(vectors, modulo, width)


def test_kernel_and_image_match_the_oracle_at_the_engine_shape():
    # 150 sparse columns over 146 bits, the engine's largest fibre: the
    # semi-echelon rows carry other pivots' bits, which only back-substitution
    # from the highest pivot down clears in one pass
    width, rng = 146, random.Random(24)
    columns = [sum(1 << b for b in rng.sample(range(width), rng.randint(1, 4))) for _ in range(150)]
    sources = [1 << j for j in range(len(columns))]
    kernel, image = gf2.kernel_and_image(columns, sources)
    assert image == _oracle_rref(columns, width)
    assert kernel == _oracle_kernel(columns, sources, width)
    assert gf2.rref(columns) == image
    assert len(kernel) > 1 and len(image) > 100
