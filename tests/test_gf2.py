from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from motivic_stems import gf2

matrices = st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=14)


def test_low_bit():
    assert gf2.low_bit(0b1011000) == 3  # index of the lowest set bit
    assert gf2.low_bit(1) == 0
    assert gf2.low_bit(0b10) == 1


def test_rref_small_example():
    # rows 110, 011, 101 over GF(2): the third is the sum of the first two
    rows = [0b110, 0b011, 0b101]
    echelon = gf2.rref(rows)
    assert len(gf2.rref(rows)) == 2
    assert len(echelon) == 2
    assert all(gf2.reduce_mod(echelon, r) == 0 for r in rows)


@given(matrices)
def test_rref_is_canonical_and_spans(rows):
    echelon = gf2.rref(rows)
    assert gf2.rref(echelon) == echelon
    assert len(echelon) == len(gf2.rref(rows))
    assert all(gf2.reduce_mod(echelon, r) == 0 for r in rows)
    pivots = [gf2.low_bit(e) for e in echelon]
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    for e in echelon:
        for other in echelon:
            if other is not e:
                assert not (other >> gf2.low_bit(e)) & 1


@given(st.lists(st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1)), max_size=14))
def test_kernel_image_rank_nullity(pairs):
    columns, sources = [c for c, _ in pairs], [s for _, s in pairs]
    kernel, image = gf2.kernel_and_image(columns, sources)
    assert len(kernel) + len(gf2.rref(list(image))) == len(columns)
    assert image == gf2.rref(columns)
    # each kernel vector is the sum of the sources over some set of indices
    # whose columns sum to 0: (column, source) pairs summing to (0, vector)
    graph = gf2.rref([c << 12 | s for c, s in pairs])
    for vector in kernel:
        assert gf2.reduce_mod(graph, vector) == 0
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
        assert gf2.reduce_mod(mod_echelon, rep) == rep
        assert gf2.reduce_mod(gf2.rref(vectors + modulo), rep) == 0
