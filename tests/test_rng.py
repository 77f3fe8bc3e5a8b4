"""The chunk grid that maps work units to streams, and the piecewise draws
the wave core rests on."""

import numpy as np
import pytest

from bouex.rng import chunks, substream


class TestChunks:
    def test_tiles_range_in_order(self):
        units = list(chunks(10, 4))
        assert units == [(0, 0, 4), (1, 4, 4), (2, 8, 2)]

    def test_only_last_unit_is_short(self):
        for n, size in ((1, 7), (13, 5), (100, 3), (4097, 4096)):
            units = list(chunks(n, size))
            assert [j for j, _, _ in units] == list(range(len(units)))
            assert [start for _, start, _ in units] == \
                list(np.cumsum([0] + [m for _, _, m in units[:-1]]))
            assert sum(m for _, _, m in units) == n
            assert all(m == size for _, _, m in units[:-1])
            assert 0 < units[-1][2] <= size

    def test_empty(self):
        assert list(chunks(0, 8)) == []

    def test_exact_multiple_has_no_short_unit(self):
        units = list(chunks(12, 4))
        assert [m for _, _, m in units] == [4, 4, 4]
        assert units[-1] == (2, 8, 4)



@pytest.mark.parametrize("sizes", [(5, 0, 1, 1000, 37), (1,) * 40, (65_536, 3, 131_072)])
def test_consecutive_pieces_equal_one_draw(sizes):
    # the wave core draws a wave's lifetimes in one exponential call and its
    # innovations in one standard_normal piece per block: pieces drawn in
    # turn from one stream are the bits of one draw of their total size
    whole, cut = substream(61, len(sizes)), substream(61, len(sizes))
    n = sum(sizes)
    lives, normals = whole.exponential(size=n), whole.standard_normal(n)
    assert np.array_equal(np.concatenate([cut.exponential(size=m) for m in sizes]), lives)
    assert np.array_equal(np.concatenate([cut.standard_normal(m) for m in sizes]), normals)
    assert cut.random() == whole.random()  # and leave the stream at the same place
