"""Direct tests of small helpers exercised only indirectly elsewhere."""

from repro.ft.cutsets import is_subsumed_mask


class TestIsSubsumed:
    def _indexed(self, *masks):
        return set(masks), list(masks)

    def test_subset_detected(self):
        lookup, kept = self._indexed(0b0001, 0b0110)
        assert is_subsumed_mask(0b1001, lookup, kept)
        assert is_subsumed_mask(0b1110, lookup, kept)

    def test_exact_duplicate_is_subsumed(self):
        lookup, kept = self._indexed(0b0011)
        assert is_subsumed_mask(0b0011, lookup, kept)

    def test_unrelated_sets_not_subsumed(self):
        lookup, kept = self._indexed(0b0011, 0b0100)
        assert not is_subsumed_mask(0b1001, lookup, kept)

    def test_large_candidate_scans_kept_list(self):
        lookup, kept = self._indexed(0b11)
        big = (1 << 20) - 1
        assert is_subsumed_mask(big, lookup, kept)
        other = ((1 << 20) - 1) << 20
        assert not is_subsumed_mask(other, lookup, kept)
