"""Columnar backend: kernel equivalence, backend plumbing, HARE parity.

The load-bearing guarantee of the columnar backend is *bit-identical
counts*: every test here compares against the pure-Python loops, which
are themselves validated against the brute-force reference elsewhere.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.api import count_motifs
from repro.core.columnar_kernels import (
    _STAR_STATIC,
    TRI_FILL,
    count_star_pair_columnar,
    count_triangle_columnar,
    export_delta_cache,
    install_delta_cache,
)
from repro.core.counters import TriangleCounter
from repro.core.fast_star import count_star_pair, count_star_pair_tasks
from repro.core.fast_tri import count_triangle, count_triangle_tasks
from repro.core.motifs import tri_cell_motif
from repro.core.registry import CountRequest, execute, get_algorithm
from repro.errors import ValidationError
from repro.graph.columnar import ColumnarGraph
from repro.graph.generators import (
    powerlaw_temporal_graph,
    triangle_rich_graph,
    uniform_temporal_graph,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.scheduler import build_batches
from tests.conftest import random_edges, random_graph

#: Every registered algorithm (the seven built-ins).
ALL_ALGORITHMS = ("fast", "ex", "bruteforce", "bt", "twoscent", "bts", "ews")


class TestKernelEquivalence:
    """Property tests: columnar kernels == Python loops, cell for cell."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("delta", [0, 1, 4, 7.5, 50])
    def test_star_pair_kernel_matches(self, seed, delta):
        g = random_graph(seed, num_nodes=5 + seed % 4, num_edges=12 + 3 * seed)
        star_py, pair_py = count_star_pair(g, delta)
        star_col, pair_col = count_star_pair_columnar(g, delta)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("delta", [0, 1, 4, 7.5, 50])
    def test_triangle_kernel_matches(self, seed, delta):
        g = random_graph(seed, num_nodes=5 + seed % 4, num_edges=12 + 3 * seed)
        assert list(count_triangle_columnar(g, delta)) == count_triangle(g, delta).data

    @pytest.mark.parametrize("seed", range(4))
    def test_float_timestamps(self, seed):
        rng = random.Random(seed)
        edges = []
        for _ in range(40):
            u = rng.randrange(7)
            v = (u + rng.randrange(1, 7)) % 7
            edges.append((u, v, rng.uniform(0, 30)))
        g = TemporalGraph(edges)
        star_py, pair_py = count_star_pair(g, 6.5)
        star_col, pair_col = count_star_pair_columnar(g, 6.5)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 6.5)) == count_triangle(g, 6.5).data

    def test_generator_graphs(self):
        for g, delta in [
            (powerlaw_temporal_graph(120, 1200, seed=5), 5000.0),
            (uniform_temporal_graph(40, 600, seed=2), 50.0),
            (triangle_rich_graph(60, gap=4, seed=3), 40.0),
        ]:
            star_py, pair_py = count_star_pair(g, delta)
            star_col, pair_col = count_star_pair_columnar(g, delta)
            assert list(star_col) == star_py.data
            assert list(pair_col) == pair_py.data
            tri_py = count_triangle(g, delta)
            assert list(count_triangle_columnar(g, delta)) == tri_py.data

    @pytest.mark.parametrize(
        "edges",
        [
            [],
            [(0, 1, 5)],
            [(0, 1, 1), (1, 0, 1)],
            [(0, 1, 1), (0, 1, 1), (0, 1, 1)],  # duplicate multi-edges
        ],
    )
    def test_degenerate_graphs(self, edges):
        g = TemporalGraph(edges)
        star_py, pair_py = count_star_pair(g, 2)
        star_col, pair_col = count_star_pair_columnar(g, 2)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 2)) == count_triangle(g, 2).data

    @pytest.mark.parametrize("seed", range(6))
    def test_task_union_matches(self, seed):
        """Merged task results equal the serial count (HARE contract)."""
        g = random_graph(seed, num_nodes=8, num_edges=40)
        tasks = [t for b in build_batches(g, workers=3, thrd=5) for t in b.tasks]
        star_py, pair_py = count_star_pair_tasks(g, 4, tasks)
        tri_py = count_triangle_tasks(g, 4, tasks)
        star_col, pair_col = count_star_pair_columnar(g, 4, tasks)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 4, tasks, chunk_pairs=5)) == tri_py.data

    def test_tiny_chunks_change_nothing(self):
        g = random_graph(9, num_nodes=7, num_edges=35)
        tri_big = count_triangle_columnar(g, 6)
        tri_small = count_triangle_columnar(g, 6, chunk_pairs=3)
        assert list(tri_big) == list(tri_small)


def random_cover(graph: TemporalGraph, rng: random.Random):
    """A random complete task cover, dealt into random worker groups.

    Every center's row is cut at random ``i_lo``/``i_hi`` points (the
    last piece ends at ``None`` or at the row size), and the pieces are
    shuffled into one to four groups, so a group holds a random subset
    of nodes and of row ranges.
    """
    tasks = []
    for node in range(graph.num_nodes):
        size = len(graph.node_sequence(node).times)
        cuts = sorted(rng.sample(range(1, size), rng.randint(0, max(size - 1, 0))))
        bounds = [0] + cuts + [rng.choice([None, size])]
        tasks.extend((node, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    rng.shuffle(tasks)
    groups = rng.randint(1, 4)
    return [tasks[g::groups] for g in range(groups)]


class TestPartialCounters:
    """HARE contract for the columnar kernels, on random task covers."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        delta=st.integers(min_value=0, max_value=15),
    )
    def test_partials_symmetric_and_union_exact(self, seed, delta):
        rng = random.Random(seed)
        g = TemporalGraph(
            random_edges(rng, rng.randint(2, 8), rng.randint(0, 30), t_max=18)
        )
        star = np.zeros(24, dtype=np.int64)
        pair = np.zeros(8, dtype=np.int64)
        tri = np.zeros(24, dtype=np.int64)
        for group in random_cover(g, rng):
            part = count_triangle_columnar(g, delta, group, chunk_pairs=rng.randint(1, 64))
            assert TriangleCounter(part.tolist()).check_corner_symmetry()
            tri += part
            s, p = count_star_pair_columnar(g, delta, group)
            star += s
            pair += p
        star_py, pair_py = count_star_pair(g, delta)
        assert star.tolist() == star_py.data
        assert pair.tolist() == pair_py.data
        assert tri.tolist() == count_triangle(g, delta).data

    def test_fill_table_maps_isomorphic_cells(self):
        """Each cell copies the Type-III cell of the same motif."""
        cells = [(di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)]
        flat = [(t,) + cell for t in (0, 1, 2) for cell in cells]
        for index, cell in enumerate(flat):
            source = (2,) + cells[TRI_FILL[index]]
            assert tri_cell_motif(*cell) == tri_cell_motif(*source)
        for t in (0, 1, 2):
            assert sorted(TRI_FILL[8 * t:8 * t + 8]) == list(range(8))


def attached_twin(graph: TemporalGraph) -> TemporalGraph:
    """A graph over a ``ColumnarGraph._attach``-ed copy of the store,
    the way a pool worker or a packed file reassembles it."""
    col = graph.columnar()
    arrays, scalars = {}, {}
    for name in ColumnarGraph.__slots__:
        if name == "delta_cache":
            continue
        value = getattr(col, name)
        (arrays if isinstance(value, np.ndarray) else scalars)[name] = value
    twin = TemporalGraph.from_canonical_arrays(
        graph.sources, graph.destinations, graph.timestamps,
        num_nodes=graph.num_nodes,
    )
    twin._columnar = ColumnarGraph._attach(arrays, scalars)
    twin._columnar_version = twin.version
    return twin


class TestDeltaMemo:
    """Lifecycle of the δ-free star tables kept across δ."""

    def test_static_tables_shared_across_deltas(self):
        g = random_graph(3, num_nodes=7, num_edges=40)
        col = g.columnar()
        count_star_pair_columnar(g, 4)
        static = col.delta_cache[_STAR_STATIC]
        count_star_pair_columnar(g, 9)
        assert col.delta_cache[_STAR_STATIC] is static
        # One δ stays resident; its tables reuse the δ-free arrays.
        assert ("star", 4.0) not in col.delta_cache
        prefixes = col.delta_cache[("star", 9.0)][2]
        for name, arrays in static[1].items():
            assert prefixes[name] is arrays

    def test_rebuilt_after_mutation(self):
        g = random_graph(4, num_nodes=6, num_edges=30)
        count_star_pair_columnar(g, 5)
        static = g.columnar().delta_cache[_STAR_STATIC]
        g._t *= 2  # in place, order kept
        g.invalidate_caches()
        star, pair = count_star_pair_columnar(g, 5)
        assert g.columnar().delta_cache[_STAR_STATIC] is not static
        star_py, pair_py = count_star_pair(g, 5)
        assert star.tolist() == star_py.data
        assert pair.tolist() == pair_py.data

    def test_attached_copy_counts_installed_and_fresh_delta(self):
        g = random_graph(5, num_nodes=7, num_edges=45)
        twin = attached_twin(g)
        install_delta_cache(twin.columnar(), 6, export_delta_cache(g.columnar(), 6))
        assert _STAR_STATIC not in twin.columnar().delta_cache
        for delta in (6, 11):  # installed, then never installed
            star, pair = count_star_pair_columnar(twin, delta)
            star_py, pair_py = count_star_pair(g, delta)
            assert star.tolist() == star_py.data
            assert pair.tolist() == pair_py.data
            tri = count_triangle_columnar(twin, delta)
            assert tri.tolist() == count_triangle(g, delta).data
        assert _STAR_STATIC in twin.columnar().delta_cache


class TestBackendAcrossAlgorithms:
    """Backend *plumbing* checks.

    The per-algorithm python-vs-columnar equivalence (and category
    masking) assertions that used to live here are subsumed by the
    systematic matrix in ``tests/test_conformance.py``, which also
    covers fork/spawn/persistent-pool execution.  Only the
    backend-resolution metadata checks remain.
    """

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_backend_metadata_resolution(self, paper_graph, algorithm):
        spec = get_algorithm(algorithm)
        kwargs = {} if spec.is_exact else {"seed": 7, "n_samples": 2}
        py = count_motifs(paper_graph, 6, algorithm=algorithm, backend="python", **kwargs)
        col = count_motifs(paper_graph, 6, algorithm=algorithm, backend="columnar", **kwargs)
        assert py.meta["backend"] == "python"
        # Algorithms without a columnar implementation fall back.
        expected = "columnar" if "columnar" in spec.backends else "python"
        assert col.meta["backend"] == expected

    def test_auto_prefers_columnar_for_fast(self, paper_graph):
        result = count_motifs(paper_graph, 10)
        assert result.backend == "columnar"
        assert result.total() == 27

    def test_auto_is_python_for_bt(self, paper_graph):
        result = count_motifs(paper_graph, 10, algorithm="bt")
        assert result.backend == "python"


class TestBackendPlumbing:
    def test_unknown_backend_rejected(self, paper_graph):
        with pytest.raises(ValidationError, match="backend"):
            CountRequest(graph=paper_graph, delta=10, backend="gpu")

    def test_resolve_concretizes_auto(self, paper_graph):
        spec = get_algorithm("fast")
        req = CountRequest(graph=paper_graph, delta=10).resolve(spec)
        assert req.backend == "columnar"
        spec = get_algorithm("bt")
        req = CountRequest(graph=paper_graph, delta=10, algorithm="bt").resolve(spec)
        assert req.backend == "python"

    def test_remove_centers_rejects_columnar(self, paper_graph):
        with pytest.raises(ValidationError, match="sequential"):
            count_triangle(paper_graph, 10, remove_centers=True, backend="columnar")

    def test_phase_seconds_include_columnar_build(self, paper_graph):
        result = execute(
            CountRequest(graph=paper_graph, delta=10, backend="columnar")
        )
        assert "columnar_build" in result.phase_seconds
        assert "star_pair" in result.phase_seconds
        assert result.dominant_phase() is not None

    def test_replicate_phases_are_surfaced(self, paper_graph):
        result = count_motifs(
            paper_graph, 10, algorithm="bts", seed=0, n_samples=2, q=0.5
        )
        # phase_seconds partitions the runtime (inner phases summed
        # across replicates, or per-sample totals as fallback) ...
        assert result.phase_seconds
        assert result.dominant_phase() is not None
        # ... and per-sample wall-clock lives in meta, not mixed in:
        # sample[i] keys appear only as the all-or-nothing fallback.
        assert len(result.meta["sample_seconds"]) == 2
        sample_keys = {
            key for key in result.phase_seconds if key.startswith("sample[")
        }
        assert sample_keys in (set(), set(result.phase_seconds))


class TestHareColumnar:
    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    def test_parallel_columnar_matches_serial(self, schedule):
        g = powerlaw_temporal_graph(80, 900, seed=4)
        serial = count_motifs(g, 4000, backend="python")
        parallel = count_motifs(
            g, 4000, workers=2, schedule=schedule, backend="columnar"
        )
        assert serial.same_counts(parallel)
        assert parallel.meta["backend"] == "columnar"

    def test_single_worker_pool_fallback(self, paper_graph):
        parallel = count_motifs(paper_graph, 10, workers=2, backend="columnar")
        assert parallel.total() == 27
