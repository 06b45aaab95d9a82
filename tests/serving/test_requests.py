"""Tests for the precomputed request stream."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.serving.requests import RequestStream
from repro.simulation.workload import AccessWorkload


def _stream(n=10_000, seed=3, chunk_size=512, alpha=0.7, n_sites=9):
    return RequestStream(
        AccessWorkload.uniform(n_sites, alpha), n, seed, chunk_size
    )


class TestPrecomputation:
    def test_same_seed_same_stream(self):
        a, b = _stream(seed=5), _stream(seed=5)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.sites, b.sites)
        np.testing.assert_array_equal(a.is_read, b.is_read)

    def test_different_seeds_differ(self):
        a, b = _stream(seed=5), _stream(seed=6)
        assert not np.array_equal(a.sites, b.sites)

    def test_times_monotone_nondecreasing(self):
        s = _stream()
        assert (np.diff(s.times) >= 0).all()
        assert s.horizon == s.times[-1]

    def test_read_fraction_tracks_alpha(self):
        s = _stream(n=50_000, alpha=0.7)
        assert s.is_read.mean() == pytest.approx(0.7, abs=0.02)

    def test_sites_within_range(self):
        s = _stream(n_sites=9)
        assert s.sites.min() >= 0
        assert s.sites.max() < 9


class TestChunking:
    def test_chunks_cover_every_id_once(self):
        s = _stream(n=1000, chunk_size=64)
        seen = []
        for index in range(s.n_chunks):
            seen.extend(rid for rid, _, _, _ in s.chunk(index).rows())
        assert seen == list(range(1000))

    def test_chunk_rows_match_arrays(self):
        s = _stream(n=300, chunk_size=128)
        rid, at, site, is_read = next(iter(s.chunk(1).rows()))
        assert rid == 128
        assert at == s.times[128]
        assert site == s.sites[128]
        assert is_read == bool(s.is_read[128])

    def test_ragged_last_chunk(self):
        s = _stream(n=130, chunk_size=64)
        assert s.n_chunks == 3
        assert len(list(s.chunk(2).rows())) == 2


class TestValidation:
    def test_rejects_nonpositive_requests(self):
        with pytest.raises(ReproError):
            _stream(n=0)

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ReproError):
            _stream(chunk_size=0)
