"""The chunk grid that maps work units to streams."""

import numpy as np

from bouex.rng import chunks


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

