from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from cabaret_sim.catalog import (
    Catalog,
    RelationOracle,
    dumps_popularity,
    dumps_related,
    top_popular,
)
from cabaret_sim.errors import ParameterError
from cabaret_sim.metrics import eval_iv
from cabaret_sim.synthetic import generate_synthetic

from conftest import reference_generate_synthetic


def _refuse(*args, **kwargs):
    raise AssertionError("Catalog.__init__ called")


def measured_overlap(size, degree, overlap, seed, seeds=50):
    cat = generate_synthetic(size, degree, overlap, seed)
    oracle = RelationOracle(cat)
    return eval_iv(top_popular(cat, seeds), degree, oracle).median


class TestValidation:
    def test_too_small_catalog(self):
        with pytest.raises(ParameterError):
            generate_synthetic(50, 50, 0.5, 1)

    def test_overlap_domain(self):
        with pytest.raises(ParameterError):
            generate_synthetic(1000, 50, 1.5, 1)
        with pytest.raises(ParameterError):
            generate_synthetic(1000, 50, -0.1, 1)

    def test_degree_domain(self):
        with pytest.raises(ParameterError):
            generate_synthetic(1000, 0, 0.5, 1)

    @pytest.mark.parametrize("size", [1000, 60])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_domain(self, size, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            generate_synthetic(size, 50, 0.5, seed)


class TestStructure:
    @pytest.mark.parametrize("size,degree", [(1000, 50), (300, 20), (120, 50), (60, 50)])
    def test_invariants(self, size, degree):
        cat = generate_synthetic(size, degree, 0.7, 3)
        assert len(cat) == size
        for cid in cat.ids():
            lst = cat.related_list(cid)
            assert len(lst) == degree
            assert cid not in lst
            assert len(set(lst)) == degree
            assert cat.popularity_of(cid) > 0

    def test_popularity_weights_distinct(self):
        cat = generate_synthetic(500, 20, 0.5, 9)
        weights = sorted((cat.popularity_of(c) for c in cat.ids()), reverse=True)
        assert len(set(weights)) == len(weights)
        assert abs(sum(weights) - 1.0) < 1e-9


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(1000, 50, 0.9, 7)
        b = generate_synthetic(1000, 50, 0.9, 7)
        assert a == b
        assert dumps_related(a) == dumps_related(b)
        assert dumps_popularity(a) == dumps_popularity(b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(1000, 50, 0.9, 7)
        b = generate_synthetic(1000, 50, 0.9, 8)
        assert dumps_related(a) != dumps_related(b)


@st.composite
def _generator_args(draw):
    degree = draw(st.integers(1, 60))
    size = draw(st.integers(degree + 1, 3000))
    overlap = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return size, degree, overlap, draw(st.integers(0, 2**64 - 1))


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(_generator_args())
    # Overlaps 0 and 1 (n_in = 0, n_out = 0), the smallest catalog past the
    # ring fallback, whose pool is shorter than n_out, and the ring itself.
    @example((1000, 50, 0.0, 1))
    @example((1000, 50, 1.0, 1))
    @example((104, 50, 0.0, 3))
    @example((103, 50, 0.5, 4))
    def test_matches_member_loop(self, args):
        cat = generate_synthetic(*args)
        ref = reference_generate_synthetic(*args)
        assert cat == ref
        assert dumps_related(cat) == dumps_related(ref)
        assert dumps_popularity(cat) == dumps_popularity(ref)
        keys = cat.ids()
        occurrences = keys + [x for cid in keys for x in cat.related_list(cid)]
        assert len({id(x) for x in occurrences}) == len(cat)

    # The community path and the ring fallback both build the catalog from
    # arrays, never through a mapping copy.
    @pytest.mark.parametrize("args", [(1000, 50, 0.9, 1), (60, 50, 0.9, 1)])
    def test_builds_no_mapping(self, args, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(Catalog, "__init__", _refuse)
            cat = generate_synthetic(*args)
        assert cat == reference_generate_synthetic(*args)

    def test_pinned_catalog(self):
        cat = generate_synthetic(2000, 50, 0.92, 7)
        digest = {
            name: hashlib.sha256(dump(cat).encode()).hexdigest()
            for name, dump in (("related", dumps_related), ("popularity", dumps_popularity))
        }
        assert digest == {
            "related": "6f6718e59410a99df57b92320e6d29033c4713a36a65ab6469ec359c25eccdf9",
            "popularity": "8178cf5cb5965affc5fce1cdef64879c2f26ad75dfb601e4107b1c61f5b83c7f",
        }


class TestCalibration:
    def test_high_overlap_target(self):
        # Documented calibration: within 0.1 of the target for catalogs of
        # 1000+ contents at width 50.
        assert 0.8 <= measured_overlap(1000, 50, 0.9, 7) <= 1.0

    def test_zero_overlap_target(self):
        assert measured_overlap(1000, 50, 0.0, 7) <= 0.2

    @pytest.mark.parametrize("target", [0.1, 0.3, 0.5, 0.7, 0.92])
    def test_mid_range_targets(self, target):
        measured = measured_overlap(1000, 50, target, 11)
        assert abs(measured - target) <= 0.1

    def test_other_widths_stay_in_range(self):
        cat = generate_synthetic(2000, 50, 0.9, 5)
        oracle = RelationOracle(cat)
        for width in (10, 20, 50):
            report = eval_iv(top_popular(cat, 50), width, oracle)
            assert 0.0 <= report.median <= 1.0
