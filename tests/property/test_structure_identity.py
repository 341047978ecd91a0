"""Structure identity and the TRANS fill that keys on it.

* A structure's hash includes its kind. ``IndexDef(t, c)`` and
  ``ViewDef(t, c)`` are unequal, but their dataclass hashes were
  equal, so every configuration or TRANS pair key holding one of them
  collided with its twin, and each collision cost a Python-level
  ``Configuration.__eq__``. Over a rich-shaped space every
  configuration and every ordered pair now hashes distinctly.
* ``CostService.trans_matrix`` reads and fills ``trans_cost``'s cache
  directly, one lookup per pair. That must be unobservable: cells,
  ``trans_calls`` and ``trans_cache_hits`` equal the per-pair
  ``trans_cost`` route's, with the cache cold, partly warm or full.

Run with ``--hypothesis-seed=0``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import IndexDef, ViewDef, enumerate_configurations
from repro.core import Configuration, CostService
from repro.sqlengine import Database
from repro.sqlengine.compression import Compression

COLUMNS = ("a", "b", "c", "d", "e", "f")
LEVELS = tuple(Compression)


def _build_db():
    db = Database()
    rng = np.random.default_rng(7)
    db.create_table("t", [(c, "INTEGER") for c in COLUMNS])
    db.bulk_load("t", {c: rng.integers(0, 500, 1_500) for c in COLUMNS})
    return db


def rich_candidates():
    """Single-column indexes plain and HEAVY, and an index and a view
    on each of two sorted pairs (16 structures)."""
    singles = [IndexDef("t", (c,)) for c in COLUMNS]
    pairs = (("a", "d"), ("b", "e"))
    return (singles
            + [d.with_compression(Compression.HEAVY) for d in singles]
            + [IndexDef("t", p) for p in pairs]
            + [ViewDef("t", p) for p in pairs])


_DB = _build_db()
CONFIGS = enumerate_configurations(rich_candidates(), max_indexes=2)


def per_pair_trans_matrix(service, configs):
    """The TRANS fill before it read the cache itself, verbatim."""
    n = len(configs)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i, old in enumerate(configs):
        for j, new in enumerate(configs):
            if i != j:
                matrix[i, j] = service.trans_cost(old, new)
    return matrix


def _counters(service):
    return service.stats.trans_calls, service.stats.trans_cache_hits


class TestStructureHash:
    def test_index_and_view_twins_hash_apart(self):
        for columns in (("a",), ("a", "d"), ("b", "c", "e")):
            for level in LEVELS:
                index = IndexDef("t", columns, level)
                view = ViewDef("t", columns, level)
                assert hash(index) != hash(view)
                assert index != view
                assert hash(index) == hash(IndexDef("t", columns, level))
                assert hash(view) == hash(ViewDef("t", columns, level))
                assert index == IndexDef("t", columns, level)
                assert view == ViewDef("t", columns, level)

    def test_rich_space_hashes_distinctly(self):
        assert len(CONFIGS) == 137
        assert len({hash(c) for c in CONFIGS}) == len(CONFIGS)
        pair_hashes = {hash((old, new)) for old in CONFIGS
                       for new in CONFIGS if old is not new}
        assert len(pair_hashes) == len(CONFIGS) * (len(CONFIGS) - 1)

    def test_configuration_hash_is_the_frozenset_hash(self):
        for config in CONFIGS:
            assert hash(config) == hash(config.structures)


class TestTransFill:
    # The first 40 configurations and every one holding a view.
    CONFIGS = list(dict.fromkeys(
        CONFIGS[:40] + [c for c in CONFIGS
                        if any(isinstance(s, ViewDef) for s in c)]))

    def test_cells_and_counters_equal_the_per_pair_route(self):
        batch = CostService(_DB.what_if())
        pairs = CostService(_DB.what_if())
        matrix = batch.trans_matrix(self.CONFIGS)
        expected = per_pair_trans_matrix(pairs, self.CONFIGS)
        assert matrix.tobytes() == expected.tobytes()
        assert matrix.dtype == np.float64
        assert matrix.shape == expected.shape
        assert _counters(batch) == _counters(pairs)

    def test_warm_fill_is_all_hits(self):
        service = CostService(_DB.what_if())
        first = service.trans_matrix(self.CONFIGS)
        calls, hits = _counters(service)
        n = len(self.CONFIGS)
        assert calls == n * (n - 1) and hits == 0
        second = service.trans_matrix(self.CONFIGS)
        assert second.tobytes() == first.tobytes()
        assert _counters(service) == (calls, hits + n * (n - 1))

    def test_trans_cost_after_the_fill_is_a_hit(self):
        service = CostService(_DB.what_if())
        matrix = service.trans_matrix(self.CONFIGS)
        calls, hits = _counters(service)
        old, new = self.CONFIGS[3], self.CONFIGS[-1]
        assert service.trans_cost(old, new) == matrix[3, -1]
        assert _counters(service) == (calls, hits + 1)

    def test_a_stats_refresh_empties_the_shared_cache(self):
        optimizer = _DB.what_if()
        service = CostService(optimizer)
        configs = self.CONFIGS[:10]
        service.trans_matrix(configs)
        calls, _ = _counters(service)
        optimizer.refresh_stats({"t": _DB.stats("t")})
        service.trans_matrix(configs)
        assert _counters(service)[0] == 2 * calls

    def test_empty_and_single(self):
        service = CostService(_DB.what_if())
        assert service.trans_matrix([]).shape == (0, 0)
        one = service.trans_matrix(self.CONFIGS[:1])
        assert one.tobytes() == np.zeros((1, 1)).tobytes()
        assert _counters(service) == (0, 0)


@given(picks=st.lists(st.tuples(st.integers(0, len(CONFIGS) - 1),
                                st.booleans()), max_size=10),
       warm=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                     max_size=6))
@settings(max_examples=60, deadline=None)
def test_fill_equals_per_pair_route(picks, warm):
    """Repeated configurations (the same object, or an equal copy) and
    a partly warm cache: the fill still matches the per-pair route."""
    configs = [Configuration(CONFIGS[i].structures) if copy else CONFIGS[i]
               for i, copy in picks]
    batch = CostService(_DB.what_if())
    pairs = CostService(_DB.what_if())
    for a, b in warm:
        if a < len(configs) and b < len(configs):
            for service in (batch, pairs):
                service.trans_cost(configs[a], configs[b])
    matrix = batch.trans_matrix(configs)
    expected = per_pair_trans_matrix(pairs, configs)
    assert matrix.tobytes() == expected.tobytes()
    assert matrix.shape == expected.shape
    assert _counters(batch) == _counters(pairs)
