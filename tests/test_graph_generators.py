"""Synthetic graph generators: structure, determinism, parameter checks."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphGenerationError
from repro.graph import generators
from repro.graph.builder import build_csr
from repro.graph.generators import (
    chung_lu_graph,
    complete_graph,
    grid_graph,
    kronecker_graph,
    path_graph,
    star_graph,
    uniform_random_graph,
)


class TestUniformRandom:
    def test_vertex_count(self):
        assert uniform_random_graph(8, 4.0, seed=0).num_vertices == 256

    def test_average_degree_near_target(self):
        g = uniform_random_graph(12, 16.0, seed=0)
        assert g.average_degree(exclude_isolated=False) == pytest.approx(16.0, rel=0.1)

    def test_symmetric_by_default(self):
        g = uniform_random_graph(6, 4.0, seed=1)
        edges = set(g.iter_edges())
        assert all((v, u) in edges for u, v in edges)

    def test_no_self_loops_or_duplicates(self):
        g = uniform_random_graph(6, 8.0, seed=2)
        edges = list(g.iter_edges())
        assert len(edges) == len(set(edges))
        assert all(u != v for u, v in edges)

    def test_deterministic_per_seed(self):
        a = uniform_random_graph(8, 4.0, seed=5)
        b = uniform_random_graph(8, 4.0, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = uniform_random_graph(8, 4.0, seed=5)
        b = uniform_random_graph(8, 4.0, seed=6)
        assert not np.array_equal(a.indices, b.indices)

    def test_invalid_scale_rejected(self):
        with pytest.raises(GraphGenerationError, match="scale"):
            uniform_random_graph(0, 4.0)

    def test_invalid_degree_rejected(self):
        with pytest.raises(GraphGenerationError, match="degree"):
            uniform_random_graph(8, -1.0)


class TestKronecker:
    def test_vertex_count(self):
        assert kronecker_graph(9, 8.0, seed=0).num_vertices == 512

    def test_heavier_tail_than_urand(self):
        """R-MAT's signature: max degree far above the mean."""
        kron = kronecker_graph(12, 16.0, seed=0)
        urand = uniform_random_graph(12, 16.0, seed=0)
        assert kron.degrees.max() > 4 * urand.degrees.max()

    def test_has_isolated_vertices(self):
        """Large R-MAT graphs leave many vertices isolated (Table 1 note)."""
        g = kronecker_graph(12, 16.0, seed=0)
        assert (g.degrees == 0).sum() > 0

    def test_probability_validation(self):
        with pytest.raises(GraphGenerationError, match="distribution"):
            kronecker_graph(8, 8.0, a=0.9, b=0.9, c=0.9)

    def test_nan_probability_rejected(self):
        with pytest.raises(GraphGenerationError, match="distribution"):
            kronecker_graph(8, 8.0, a=float("nan"))

    def test_deterministic_per_seed(self):
        a = kronecker_graph(8, 8.0, seed=3)
        b = kronecker_graph(8, 8.0, seed=3)
        assert np.array_equal(a.indptr, b.indptr)


def choice_kronecker_graph(scale, edge_factor, *, a, b, c, seed, symmetrize=True):
    """Reference: the one-batch ``rng.choice((num_edges, scale))`` formulation."""
    d = 1.0 - (a + b + c)
    n = 1 << scale
    num_edges = int(round(n * edge_factor))
    rng = np.random.default_rng(seed)
    quadrants = rng.choice(4, size=(num_edges, scale), p=[a, b, c, d])
    powers = 1 << np.arange(scale - 1, -1, -1, dtype=np.int64)
    src = (((quadrants >> 1) & 1) * powers).sum(axis=1)
    dst = ((quadrants & 1) * powers).sum(axis=1)
    perm = rng.permutation(n).astype(np.int64)
    return build_csr(
        perm[src],
        perm[dst],
        num_vertices=n,
        symmetrize=symmetrize,
        dedupe=True,
        drop_self_loops=True,
    )


class TestKroneckerMatchesChoiceFormula:
    """The chunked draws reproduce the one-batch formula bit for bit."""

    @pytest.mark.parametrize(
        "scale,edge_factor", [(1, 16.0), (2, 16.0), (9, 16.0), (12, 40.0)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "abc",
        [(0.57, 0.19, 0.19), (0.45, 0.15, 0.15), (0.25, 0.25, 0.25), (0.7, 0.0, 0.3)],
    )
    def test_equal_to_reference(self, scale, edge_factor, seed, abc):
        a, b, c = abc
        got = kronecker_graph(scale, edge_factor, a=a, b=b, c=c, seed=seed)
        want = choice_kronecker_graph(scale, edge_factor, a=a, b=b, c=c, seed=seed)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize(
        "chunk,scale,edge_factor",
        [(1, 2, 5.25), (7, 2, 5.5), (7, 9, 16.0), (1000, 9, 16.0), (1000, 12, 3.3)],
    )
    def test_edge_count_not_a_multiple_of_the_chunk(
        self, monkeypatch, chunk, scale, edge_factor
    ):
        monkeypatch.setattr(generators, "_KRONECKER_CHUNK_EDGES", chunk)
        abc = dict(a=0.57, b=0.19, c=0.19)
        got = kronecker_graph(scale, edge_factor, seed=3, symmetrize=False, **abc)
        want = choice_kronecker_graph(
            scale, edge_factor, seed=3, symmetrize=False, **abc
        )
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_memory_stays_bounded(self):
        kronecker_graph(10, 40.0)  # warm imports and allocator pools
        tracemalloc.start()
        try:
            kronecker_graph(14, 40.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def choice_chung_lu_graph(scale, avg_degree, *, exponent, seed):
    """Reference: endpoints drawn with ``rng.choice(n, size, p=probs)``."""
    n = 1 << scale
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=n)
    w_max = float(np.sqrt(n))
    alpha = exponent - 1.0
    weights = (1.0 - u * (1.0 - w_max ** -alpha)) ** (-1.0 / alpha)
    probs = weights / weights.sum()
    num_edges = int(round(n * avg_degree / 2))
    src = rng.choice(n, size=num_edges, p=probs).astype(np.int64)
    dst = rng.choice(n, size=num_edges, p=probs).astype(np.int64)
    return build_csr(
        src,
        dst,
        num_vertices=n,
        symmetrize=True,
        dedupe=True,
        drop_self_loops=True,
    )


class TestGuidedSearchsorted:
    """The guide-table search equals ``searchsorted(side="right")``."""

    @staticmethod
    def adversarial_u(cdf):
        k = 1 << ((cdf.size - 1).bit_length() + 1)
        below_one = np.nextafter(1.0, 0.0)
        u = np.concatenate(
            [
                [0.0, below_one],
                np.arange(k) / k,
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
            ]
        )
        return u[(u >= 0.0) & (u < 1.0)]

    @staticmethod
    def normalised_cdf(probs):
        cdf = np.asarray(probs, dtype=np.float64).cumsum()
        return cdf / cdf[-1]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_cdf(self, n, seed):
        rng = np.random.default_rng(seed)
        cdf = self.normalised_cdf(rng.pareto(1.5, size=n) + 1e-3)
        u = np.concatenate([self.adversarial_u(cdf), rng.random(5000)])
        got = generators._guided_searchsorted(cdf, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize(
        "probs",
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
            [0.25, 0.0, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0],
            [1e-300, 1.0, 1e-300, 0.0],
            np.r_[np.zeros(500), np.ones(3), np.zeros(500), [1e-12] * 40],
        ],
    )
    def test_plateaus(self, probs):
        cdf = self.normalised_cdf(probs)
        u = self.adversarial_u(cdf)
        got = generators._guided_searchsorted(cdf, u)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_empty_draw(self):
        cdf = self.normalised_cdf([0.5, 0.5])
        got = generators._guided_searchsorted(cdf, np.empty(0))
        assert got.dtype == np.int64 and got.size == 0

    @pytest.mark.parametrize("scale", [1, 6, 12])
    def test_matches_choice_and_leaves_the_generator_in_step(self, scale):
        n = 1 << scale
        probs = np.random.default_rng(scale).pareto(1.5, size=n) + 1.0
        probs /= probs.sum()
        ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        want = ref_rng.choice(n, size=3000, p=probs)
        got = generators._guided_searchsorted(
            self.normalised_cdf(probs), rng.random(3000)
        )
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()


_CHUNG_LU_CASES = [
    (scale, seed, avg_degree, exponent)
    for scale in (1, 2, 3, 6, 10)
    for seed in (0, 1, 17)
    for avg_degree, exponent in ((55.0, 2.5), (8.0, 2.1), (3.3, 3.5))
] + [(14, 0, 55.0, 2.5), (14, 2, 8.0, 2.1)]


class TestChungLu:
    @pytest.mark.parametrize("scale,seed,avg_degree,exponent", _CHUNG_LU_CASES)
    def test_equal_to_reference(self, scale, seed, avg_degree, exponent):
        """Endpoints are drawn exactly as ``rng.choice(p=...)`` draws them."""
        got = chung_lu_graph(scale, avg_degree, exponent=exponent, seed=seed)
        want = choice_chung_lu_graph(
            scale, avg_degree, exponent=exponent, seed=seed
        )
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_average_degree_near_target(self):
        g = chung_lu_graph(12, 32.0, seed=0)
        assert g.average_degree(exclude_isolated=False) == pytest.approx(32.0, rel=0.15)

    def test_power_law_tail(self):
        g = chung_lu_graph(12, 32.0, seed=0)
        deg = g.degrees[g.degrees > 0]
        assert np.percentile(deg, 99) > 3 * np.median(deg)

    def test_exponent_validation(self):
        with pytest.raises(GraphGenerationError, match="exponent"):
            chung_lu_graph(8, 8.0, exponent=0.5)


class TestToyGraphs:
    def test_path_structure(self):
        g = path_graph(4)
        assert sorted(g.iter_edges()) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]

    def test_directed_path(self):
        g = path_graph(3, directed=True)
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2)]

    def test_star_hub_degree(self):
        g = star_graph(50)
        assert g.degrees[0] == 49
        assert np.all(g.degrees[1:] == 1)

    def test_complete_graph_degrees(self):
        g = complete_graph(5)
        assert np.all(g.degrees == 4)
        assert g.num_edges == 20

    def test_grid_degrees(self):
        g = grid_graph(3, 3)
        # Corners 2, edges 3, center 4.
        assert sorted(g.degrees.tolist()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_single_vertex_cases(self):
        assert path_graph(1).num_edges == 0
        assert star_graph(1).num_edges == 0
        assert grid_graph(1, 1).num_edges == 0

    @pytest.mark.parametrize("fn", [path_graph, star_graph, complete_graph])
    def test_zero_vertices_rejected(self, fn):
        with pytest.raises(GraphGenerationError):
            fn(0)

    def test_grid_bad_dims_rejected(self):
        with pytest.raises(GraphGenerationError):
            grid_graph(0, 3)
