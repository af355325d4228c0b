import ctypes
import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import bicov as bc
from bicov import BivariateModel, FieldSample, matern, stable
from bicov.bimodels import _entries, _terms
from bicov.field import (_D, _LEAF, _block_distances, _cokrige, _GramCache, _invert_lower,
                         _lapack, _mirror, _nll_core, _ParamSpec, _parsimonious_matern_rho_bound,
                         _precision, _ProfiledNll, check_pd, cho_factor, cho_solve, gram)
from bicov.spectral import cross_spectral_profile


def colocated_design(seed, n_sites, extent=10.0, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, extent, size=(n_sites, d))
    return np.repeat(pts, 2, axis=0), np.tile([1, 2], n_sites)


MODEL = bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8)


class TestFieldSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldSample(np.zeros((4, 5)), np.ones(4, dtype=int))
        with pytest.raises(ValueError):
            FieldSample(np.zeros((4, 2)), np.ones(3, dtype=int))
        with pytest.raises(ValueError):
            FieldSample(np.zeros((4, 2)), np.array([1, 2, 3, 1]))
        with pytest.raises(ValueError):
            FieldSample(np.zeros((4, 2)), np.ones(4, dtype=int),
                        values=np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_locations(self, bad):
        locs = np.zeros((4, 2))
        locs[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FieldSample(locs, np.array([1, 2, 1, 2]))

    @pytest.mark.parametrize("bad", [1.7, 2.2, math.nan])
    def test_rejects_components_other_than_one_or_two_without_truncating(self, bad):
        # a cast to int first would read 1.7 as 1 and 2.2 as 2, and warn of NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be 1 or 2"):
                FieldSample(np.zeros((3, 2)), np.array([1.0, bad, 2.0]))

    def test_integral_float_components_are_accepted(self):
        s = FieldSample(np.zeros((3, 2)), np.array([1.0, 2.0, 1.0]))
        assert s.components.dtype.kind == "i" and s.components.tolist() == [1, 2, 1]

    def test_multidraw_values_align(self):
        s = FieldSample(np.zeros((4, 2)), np.array([1, 2, 1, 2]),
                        values=np.zeros((3, 4)))
        assert s.values.shape == (3, 4)


class TestGram:
    def test_bitwise_symmetry(self):
        locs, comps = colocated_design(7, 40)
        m = gram(MODEL, FieldSample(locs, comps))
        assert np.array_equal(m, m.T)

    def test_entries_match_member_correlations(self):
        locs = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 2.0]])
        comps = np.array([1, 2, 1])
        m = gram(MODEL, FieldSample(locs, comps))
        s1, s2, rho = MODEL.sigma1, MODEL.sigma2, MODEL.rho
        assert m[0, 0] == s1 * s1
        assert m[1, 1] == s2 * s2
        assert m[0, 1] == pytest.approx(
            rho * s1 * s2 * bc.evaluate(MODEL.psi12, 1.5), rel=1e-15)
        assert m[0, 2] == pytest.approx(
            s1 * s1 * bc.evaluate(MODEL.psi11, 2.0), rel=1e-15)

    def test_nugget_on_matching_component_only(self):
        locs = np.array([[0.0, 0.0], [1.0, 1.0]])
        comps = np.array([1, 2])
        m = gram(MODEL, FieldSample(locs, comps), nugget1=0.5, nugget2=0.125)
        assert m[0, 0] == MODEL.sigma1 ** 2 + 0.5
        assert m[1, 1] == MODEL.sigma2 ** 2 + 0.125

    @pytest.mark.parametrize("nuggets", [(math.nan, 0.0), (0.0, math.inf), (-1.0, 0.0),
                                         (0.0, -1e-300)])
    def test_rejects_bad_nuggets(self, nuggets):
        sample = FieldSample(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1, 2]))
        with pytest.raises(ValueError, match="nuggets must be finite and nonnegative"):
            gram(MODEL, sample, *nuggets)


def scatter_gram(model, sample, nugget1=0.0, nugget2=0.0):
    """Reference Gram: every upper-triangle pair of rows evaluated in sample
    order, scattered into a zero matrix and mirrored."""
    comp = sample.components
    n_obs = comp.size
    iu, ju = np.triu_indices(n_obs, k=1)
    dist = np.linalg.norm(sample.locations[iu] - sample.locations[ju], axis=1)
    key = comp[iu] + comp[ju]   # 2 -> 11, 3 -> 12, 4 -> 22
    vals = np.empty(iu.shape)
    for code, pair in ((2, "11"), (3, "12"), (4, "22")):
        mask = key == code
        if np.any(mask):
            vals[mask] = _entries(model, (pair,), dist[mask])[0]
    out = np.zeros((n_obs, n_obs))
    out[iu, ju] = vals
    out[ju, iu] = vals
    var1 = float(_entries(model, ("11",), np.zeros(1))[0][0])
    var2 = float(_entries(model, ("22",), np.zeros(1))[0][0])
    di = np.arange(n_obs)
    out[di, di] = np.where(comp == 1, var1 + nugget1, var2 + nugget2)
    return out


def sample_layouts(d):
    rng = np.random.default_rng(10 + d)
    pts = rng.uniform(0.0, 10.0, size=(12, d))
    perm = rng.permutation(12)
    return {
        "colocated-interleaved": (np.repeat(pts, 2, axis=0), np.tile([1, 2], 12)),
        "colocated-sorted": (np.vstack([pts, pts]), np.repeat([1, 2], 12)),
        "colocated-reordered": (np.vstack([pts, pts[perm]]), np.repeat([1, 2], 12)),
        "heterotopic": (rng.uniform(0.0, 10.0, size=(20, d)),
                        rng.permutation(np.tile([1, 2], 10))),
        "partly-colocated": (np.vstack([pts[:8], pts[4:]]), np.repeat([1, 2], 8)),
        "one-component": (pts, np.full(12, 2)),
        "repeated-locations": (np.vstack([pts[:6], pts[:3], pts[:6]]),
                               np.repeat([1, 2], [9, 6])),
        "colocated-repeated": (np.repeat(np.vstack([pts[:5], pts[:2]]), 2, axis=0),
                               np.tile([1, 2], 7)),
        # component 1 on every other row, component 2 on the rest, bunched at the
        # end: the 11 block is placed through strided views, 12 and 22 through np.ix_
        "strided-and-scattered": (np.vstack([np.repeat(pts[:6], 2, axis=0), pts[6:10]]),
                                  np.concatenate([np.tile([1, 2], 6), np.full(4, 2)])),
    }


GRAM_MODELS = [
    bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8),
    bc.cauchy_bivariate(1.0, 1.2, 0.3, 0.8, 0.9, 0.6, 1.5, 2.0, 2.5, 0.9, 1.1, 0.8),
    bc.matern_bivariate(1.0, 1.3, 0.2, 0.5, 1.0, 1.5, 0.7, 0.7, 0.7),
    bc.spherical_bivariate(1.0, 0.8, 0.0, 0.3, 0.2, 0.25),
    bc.LmcBivariate(b1=(1.0, 0.3, 0.5), b2=(0.4, 0.1, 0.9),
                    psi1=stable(1.0, 0.7), psi2=stable(1.5, 1.3)),
]
GRAM_MODEL_IDS = ["stable", "cauchy", "matern", "spherical", "lmc"]


def layout_data(locs, comps):
    """A layout's rows with seeded values around the means 1 and -2."""
    values = np.where(comps == 1, 1.0, -2.0) + np.random.default_rng(8).standard_normal(comps.size)
    return FieldSample(locs, comps, values=values)


def dense_gls_means(k, comps, z):
    """(mean1, mean2): the GLS means under the dense covariance k, 0.0 for an
    unobserved component, as the profiled likelihood takes them."""
    cols = [c for c in (1, 2) if np.any(comps == c)]
    design = np.column_stack([comps == c for c in cols]).astype(float)
    solved = np.linalg.solve(k, design)
    fitted = dict(zip(cols, np.linalg.solve(design.T @ solved, solved.T @ z)))
    return fitted.get(1, 0.0), fitted.get(2, 0.0)


def below_is_untouched_or_entries(got, before, want, comps):
    """Whether each cell of got below the diagonal holds what it held (before)
    or, in a block written whole, its entry in want; with every component's
    rows evenly spaced, only the former."""
    lower = np.tril_indices(comps.size, -1)
    kept = (got[lower] == before[lower]) | (np.isnan(got[lower]) & np.isnan(before[lower]))
    if all(np.unique(np.diff(np.flatnonzero(comps == c))).size <= 1 for c in (1, 2)):
        return bool(np.all(kept))
    return bool(np.all(kept | (got[lower] == want[lower])))


class TestGramAgainstScatter:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("layout", list(sample_layouts(1)))
    def test_bit_identical_and_symmetric(self, d, layout):
        locs, comps = sample_layouts(d)[layout]
        sample = FieldSample(locs, comps)
        cache = _GramCache(sample)   # one cache serving every model in turn
        upper = np.triu_indices(comps.size)
        for model in GRAM_MODELS:
            for nuggets in ((0.0, 0.0), (0.3, 0.05)):
                want = scatter_gram(model, sample, *nuggets)
                got = gram(model, sample, *nuggets)
                assert np.array_equal(got, want)
                assert np.array_equal(got, got.T)
                # a build writes the cells on and above the diagonal; below,
                # zeros or, in a block written whole, the entries
                built = cache.build(model, *nuggets)
                assert np.array_equal(built[upper], want[upper])
                assert below_is_untouched_or_entries(built, np.zeros(want.shape), want,
                                                     sample.components)
                out = np.full(want.shape, np.nan)   # a workspace the build fills in place
                assert cache.build(model, *nuggets, out=out) is out
                assert np.array_equal(out[upper], want[upper])
                assert below_is_untouched_or_entries(out, np.full(want.shape, np.nan), want,
                                                     sample.components)

    def test_colocated_build_evaluates_each_site_pair_once(self, monkeypatch):
        n_sites = 9
        locs, comps = colocated_design(4, n_sites)
        cache = _GramCache(FieldSample(locs, comps))
        sizes, frees = [], []
        evaluate = bc.field._param_derivatives

        def counting(families, r, free):
            sizes.append(np.size(r))
            frees.extend(free)
            return evaluate(families, r, free)

        monkeypatch.setattr(bc.field, "_param_derivatives", counting)
        cache.build(MODEL, 0.0, 0.0)
        pairs = n_sites * (n_sites - 1) // 2
        # 11 and 22: pairs of distinct sites (a self-pair is the diagonal, which
        # reads the variance slot, the amplitude itself); 12: every site pair,
        # self-pairs included
        assert sizes == [pairs, pairs + n_sites, pairs]
        # and a build asks for no derivative
        assert len(frees) == 3 and not any(any(free) for free in frees)


def reference_cache(sample):
    """idx, dist and slots of a _GramCache built pair by pair: each pair measures
    its own block and numbers its own triangle."""
    comp = sample.components
    rows = {c: np.flatnonzero(comp == c) for c in (1, 2)}
    pts = {c: sample.locations[r] for c, r in rows.items()}
    idx = np.empty((comp.size,) * 2, dtype=np.intp)
    dist, slots, start = {}, {}, 0
    for pair in ("11", "12", "22"):
        i, j = int(pair[0]), int(pair[1])
        full = _block_distances(pts[i], pts[j])
        if np.array_equal(pts[i], pts[j]):
            upper = np.triu(np.ones(full.shape, dtype=bool), k=int(i == j))
            block = np.zeros(full.shape, dtype=np.intp)
            block[upper] = block.T[upper] = start + np.arange(np.count_nonzero(upper))
            dist[pair], mirror = full[upper], block
        else:
            block = start + np.arange(full.size).reshape(full.shape)
            dist[pair], mirror = full.ravel(), block.T
        slots[pair] = slice(start, start + dist[pair].size)
        start += dist[pair].size
        idx[np.ix_(rows[i], rows[j])] = block
        if i != j:
            idx[np.ix_(rows[j], rows[i])] = mirror
    for c in (1, 2):
        idx[rows[c], rows[c]] = start + c - 1
    return idx, dist, slots


class TestGramCacheGeometry:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("layout", list(sample_layouts(1)))
    def test_equals_the_per_pair_construction(self, d, layout):
        sample = FieldSample(*sample_layouts(d)[layout])
        cache = _GramCache(sample)
        idx, dist, slots = reference_cache(sample)
        # the placement of the slot numbers is the slot table on and above the
        # diagonal; mirrored, it is the whole slot table
        placed = cache.place(np.arange(cache.n_slots))
        upper = np.triu_indices(idx.shape[0])
        assert np.array_equal(placed[upper], idx[upper])
        assert below_is_untouched_or_entries(placed, np.zeros(idx.shape), idx,
                                             sample.components)
        assert np.array_equal(_mirror(placed), idx)
        assert cache.slots == slots
        for pair in ("11", "12", "22"):
            assert cache.dist[pair].tobytes() == dist[pair].tobytes()
            assert not cache.dist[pair].flags.writeable

    # numpy warns of the one-component layout's empty component, which has no variance
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layout", list(sample_layouts(2)))
    def test_the_fit_reads_the_whole_slot_table(self, layout):
        data = layout_data(*sample_layouts(2)[layout])
        objective = _ProfiledNll(_ParamSpec("stable", data, 2, False, 0.0, 0.0), data)
        idx, n_slots = reference_cache(data)[0], objective.cache.n_slots
        # each cell on or above the diagonal holds its slot, each below the discard slot
        upper = np.triu(np.ones(idx.shape, dtype=bool))
        got = objective.idx.reshape(idx.shape)
        assert np.array_equal(got[upper], idx[upper])
        assert np.all(got[~upper] == n_slots)
        # so a symmetric W summed from that triangle, the entry slots doubled,
        # gives the sums over the whole slot table
        w = np.random.default_rng(5).standard_normal(idx.shape)
        w = w + w.T
        want = np.bincount(idx.ravel(), w.ravel(), minlength=n_slots)
        got_sums = np.bincount(objective.idx, w.ravel(), minlength=n_slots + 1)[:-1]
        got_sums[:-2] *= 2.0
        scale = np.bincount(idx.ravel(), np.abs(w).ravel(), minlength=n_slots)
        assert np.all(np.abs(got_sums - want) <= 1e-14 * scale)

    def test_colocated_pairs_share_read_only_distances(self):
        cache = _GramCache(FieldSample(*colocated_design(7, 30)))
        assert cache.dist["11"] is cache.dist["22"]
        assert cache.dist["12"].size == cache.dist["11"].size + 30
        for pair in ("11", "12"):
            with pytest.raises(ValueError, match="read-only"):
                cache.dist[pair][0] = 1.0

    def test_placement_takes_both_branches(self):
        cache = _GramCache(FieldSample(*sample_layouts(2)["strided-and-scattered"]))
        (at, above, _), = cache.writes["11"]
        assert at == (slice(0, 12, 2),) * 2 and above.shape == (6, 6)
        rows2 = np.array([1, 3, 5, 7, 9, 11, 12, 13, 14, 15])
        for at, above, take in cache.writes["12"]:   # the full block whole, in stored order
            assert above is None and all(isinstance(ix, np.ndarray) for ix in at)
            assert take == cache.slots["12"]
        # 22's triangle, cell by cell: each cell above the diagonal of rows and
        # columns 2 at its own row and column, in the triangle's stored order
        (at, above, take), = cache.writes["22"]
        above_rows, above_cols = np.triu_indices(rows2.size, 1)
        assert above is None and take == cache.slots["22"]
        assert np.array_equal(at[0], rows2[above_rows]) and np.array_equal(at[1], rows2[above_cols])

    @pytest.mark.parametrize("layout,blocks", [
        ("colocated-interleaved", {"11": 1, "12": 2, "22": 1}),
        # component 2 after component 1: every cell of rows 1 and columns 2 lies
        # above the diagonal, and none of rows 2 and columns 1
        ("colocated-sorted", {"11": 1, "12": 1, "22": 1}),
        ("one-component", {"11": 0, "12": 0, "22": 1}),
    ])
    def test_only_blocks_with_cells_above_the_diagonal_are_written(self, layout, blocks):
        cache = _GramCache(FieldSample(*sample_layouts(2)[layout]))
        assert {pair: len(w) for pair, w in cache.writes.items()} == blocks


class TestBlockDistances:
    def test_overflowed_squares_are_recomputed(self):
        a = np.array([[1e200, 0.0], [0.0, 0.0], [1e308, 1e308], [-1.7e308, 0.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0], [1.7e308, 0.0], [0.0, 1e-3]])
        got = _block_distances(a, b)
        with np.errstate(over="ignore"):
            want = np.array([[math.hypot(*(p - q)) for q in b] for p in a])
        # past the double range the distance is infinite, and only there
        assert np.isinf(got[3, 1]) and np.isinf(want[3, 1])
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        with np.errstate(over="ignore"):
            diffs = a[:, None, :] - b[None, :, :]
            finite_squares = np.sum(diffs * diffs, axis=2) < math.inf
            norms = np.linalg.norm(diffs, axis=2)
        # bit for bit the plain norm wherever its sum of squares is finite
        assert np.array_equal(got[finite_squares], norms[finite_squares])
        assert not finite_squares[0, 0]


class TestCheckPd:
    def test_requires_exact_symmetry(self):
        m = np.eye(3)
        m[0, 1] = 1e-17
        with pytest.raises(ValueError):
            check_pd(m)

    def test_pass_and_fail(self):
        locs, comps = colocated_design(3, 50)
        ok = check_pd(gram(MODEL, FieldSample(locs, comps)))
        assert ok.passed
        assert ok.min_eigenvalue >= ok.threshold

        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        res = check_pd(bad)
        assert not res.passed
        assert res.min_eigenvalue == pytest.approx(-1.0)
        assert res.threshold == pytest.approx(-1e-8)


class TestSimulate:
    def test_deterministic_per_seed(self):
        locs, comps = colocated_design(0, 30)
        a = bc.simulate(MODEL, locs, comps, seed=11)
        b = bc.simulate(MODEL, locs, comps, seed=11)
        c = bc.simulate(MODEL, locs, comps, seed=12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert "jitter" in a.info

    def test_means_and_draw_shape(self):
        locs, comps = colocated_design(1, 20)
        out = bc.simulate(MODEL, locs, comps, seed=5, n_draws=3,
                          mean1=10.0, mean2=-10.0)
        assert out.values.shape == (3, 40)
        assert abs(np.mean(out.values[:, comps == 1]) - 10.0) < 2.0
        assert abs(np.mean(out.values[:, comps == 2]) + 10.0) < 2.0

    @pytest.mark.parametrize("means", [dict(mean1=math.nan), dict(mean2=-math.inf)])
    def test_rejects_non_finite_means(self, means):
        locs, comps = colocated_design(1, 5)
        with pytest.raises(ValueError, match="means must be finite"):
            bc.simulate(MODEL, locs, comps, seed=5, **means)

    @pytest.mark.parametrize("model", [
        # var1 = b1_11 + b2_11 overflows to inf
        pytest.param(bc.LmcBivariate(b1=(1e308, 0.0, 1.0), b2=(1e308, 0.0, 1.0),
                                     psi1=bc.stable(1.0, 1.0), psi2=bc.stable(1.0, 1.0)),
                     id="lmc-variance-overflow"),
    ])
    def test_rejects_non_finite_values(self, model):
        locs = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], 2, axis=0)
        with pytest.raises(ValueError, match="simulated values are not finite"):
            bc.simulate(model, locs, np.tile([1, 2], 3), seed=5)

    def test_matern_nu_where_gamma_overflows_is_white_noise(self):
        # Gamma(5e-324) = inf: psi is 0 at distinct sites, so each component is white noise
        model = bc.matern_bivariate(1.0, 1.0, 0.0, 5e-324, 1.0, 1.0, 1.0, 1.0, 1.0)
        locs = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], 2, axis=0)
        g = bc.gram(model, bc.FieldSample(locs, np.tile([1, 2], 3)))
        assert np.all(g[0::2, 0::2] == np.eye(3))
        assert np.all(np.isfinite(bc.simulate(model, locs, np.tile([1, 2], 3), seed=5).values))

    def test_matern_scale_past_the_double_range_decorrelates(self):
        # s11 r is inf at every pair of distinct sites, where psi is 0, not NaN
        model = bc.matern_bivariate(1.0, 1.0, 0.0, 0.5, 1.0, 1.0, 1.797e308, 1.0, 1.0)
        locs = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], 2, axis=0)
        assert np.array_equal(gram(model, FieldSample(locs, np.tile([1, 2], 3)))[0::2, 0::2],
                              np.eye(3))
        assert np.all(np.isfinite(bc.simulate(model, locs, np.tile([1, 2], 3), seed=5).values))

    def test_colocated_correlation_matches_rho(self):
        # one site observed in both components: correlation over draws is rho
        locs = np.zeros((2, 2))
        comps = np.array([1, 2])
        out = bc.simulate(MODEL, locs, comps, seed=3, n_draws=10_000)
        corr = np.corrcoef(out.values[:, 0], out.values[:, 1])[0, 1]
        assert corr == pytest.approx(MODEL.rho, abs=0.03)

    def test_zero_rho_components_uncorrelated(self):
        m0 = bc.stable_bivariate(1.0, 1.5, 0.0, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8)
        locs = np.zeros((2, 2))
        comps = np.array([1, 2])
        out = bc.simulate(m0, locs, comps, seed=3, n_draws=10_000)
        corr = np.corrcoef(out.values[:, 0], out.values[:, 1])[0, 1]
        assert corr == pytest.approx(0.0, abs=0.03)


class TestNll:
    def test_matches_direct_gaussian_density(self):
        locs, comps = colocated_design(9, 20)
        data = bc.simulate(MODEL, locs, comps, seed=21, mean1=1.0, mean2=2.0)
        value, mu1, mu2 = bc.nll(MODEL, data)
        cov = gram(MODEL, data)
        mean = np.where(comps == 1, mu1, mu2)
        direct = -multivariate_normal(mean=mean, cov=cov).logpdf(data.values)
        assert value == pytest.approx(direct, rel=1e-9)

    def test_requires_values(self):
        locs, comps = colocated_design(9, 12)
        with pytest.raises(ValueError):
            bc.nll(MODEL, FieldSample(locs, comps))

    @pytest.mark.parametrize("big", [1e160, 1e300, 1.797e308])
    @pytest.mark.parametrize("fn", [bc.nll, bc.loo_rmse])
    def test_data_past_the_double_range_are_refused(self, fn, big):
        # 24 rows, one value at big: the GLS products and z^T K^-1 z overflow, which
        # gave a NaN NLL and an infinite RMSE with RuntimeWarnings
        base = bc.stable_bivariate(1.0, 1.0, 0.2, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)
        pts = np.random.default_rng(0).uniform(0.0, 5.0, size=(12, 2))
        sample = bc.simulate(base, np.repeat(pts, 2, axis=0), np.tile([1, 2], 12), seed=0)
        values = sample.values.copy()
        values[3] = big
        data = FieldSample(sample.locations, sample.components, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="double range"):
                fn(base, data)


class TestFitMl:
    def test_rejects_constant_component(self):
        locs, comps = colocated_design(2, 15)
        vals = np.where(comps == 1, 3.25, np.arange(30, dtype=float))
        data = FieldSample(locs, comps, values=vals)
        with pytest.raises(ValueError, match="degenerate"):
            bc.fit_ml(data, "stable")

    def test_rejects_undersized_component(self):
        rng = np.random.default_rng(0)
        locs = rng.uniform(0, 5, size=(12, 2))
        comps = np.array([1] * 9 + [2] * 3)
        data = FieldSample(locs, comps, values=rng.standard_normal(12))
        with pytest.raises(ValueError, match="at least 10"):
            bc.fit_ml(data, "stable")

    def test_rejects_unknown_kind(self):
        locs, comps = colocated_design(2, 15)
        data = bc.simulate(MODEL, locs, comps, seed=0)
        with pytest.raises(ValueError, match="unknown model kind"):
            bc.fit_ml(data, "gneiting")

    def test_duplicate_rows_fall_back_to_nugget_floor(self):
        # two copies of every row make the Gram exactly singular for any
        # parameter value, forcing the floor of 1e-8 x empirical variance
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 5, size=(10, 2))
        locs = np.vstack([np.repeat(pts, 2, axis=0)] * 2)
        comps = np.tile(np.tile([1, 2], 10), 2)
        half = bc.simulate(MODEL, np.repeat(pts, 2, axis=0),
                           np.tile([1, 2], 10), seed=8)
        data = FieldSample(locs, comps, values=np.concatenate([half.values] * 2))
        fit = bc.fit_ml(data, "stable", n_starts=1, seed=0, max_evals=40)
        emp1 = np.var(data.values[comps == 1])
        assert fit.nugget1 >= 1e-8 * emp1 * (1.0 - 1e-12)
        assert math.isfinite(fit.nll)

    @pytest.mark.parametrize("kind", ["stable", "lmc"])
    def test_evaluation_after_a_floor_fallback_equals_a_fresh_factorization(self, kind):
        # duplicate rows: the first, in-place factorization fails part way and
        # leaves the workspace overwritten, so the fallback must build it again
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 5, size=(10, 2))
        locs, comps = np.vstack([np.repeat(pts, 2, axis=0)] * 2), np.tile([1, 2], 20)
        half = bc.simulate(MODEL, locs[:20], comps[:20], seed=8)
        data = FieldSample(locs, comps, values=np.concatenate([half.values] * 2))
        spec = _ParamSpec(kind, data, 2, False, 0.0, 0.0)
        objective = _ProfiledNll(spec, data)
        theta = spec.starts(1, 0)[0]
        model = spec.decode(theta)[0]
        (value, mu1, mu2, (c, _), solved), nug1, nug2 = objective.core(model, 0.0, 0.0)
        assert (nug1, nug2) == objective.floor
        want = _nll_core(bc.gram(model, data, nug1, nug2), comps, data.values)
        assert (value, mu1, mu2) == want[:3]
        assert np.tril(c).tobytes() == np.tril(want[3][0]).tobytes()
        assert solved.tobytes() == want[4].tobytes()
        assert objective(theta)[0] == value

    def test_a_non_finite_gradient_leaves_the_workspace_usable(self, monkeypatch):
        # W is mirrored into the workspace below its diagonal, which builds leave
        # as it is and cho_factor checks: a non-finite W must not refuse the next Gram
        data = layout_data(*colocated_design(3, 20))
        spec = _ParamSpec("stable", data, 2, False, 0.0, 0.0)
        theta = spec.starts(1, 0)[0]
        objective, precision = _ProfiledNll(spec, data), bc.field._precision

        def poisoned(factor):
            p = precision(factor)
            p *= math.inf
            return p

        monkeypatch.setattr(bc.field, "_precision", poisoned)
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(objective(theta)[1]))
        monkeypatch.undo()
        value, grad = objective(theta)
        fresh_value, fresh_grad = _ProfiledNll(spec, data)(theta)
        assert value == fresh_value < 1e12 and np.array_equal(grad, fresh_grad)

    def test_nugget_floor_only_when_the_returned_model_needs_it(self):
        # five sites repeated 1e-9 away: some LMC iterates need the floor, the
        # winning model factors without it
        truth = bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7)
        pts = np.random.default_rng(2).uniform(0.0, 10.0, size=(40, 2))
        pts = np.vstack([pts, pts[:5] + 1e-9])
        data = bc.simulate(truth, np.repeat(pts, 2, axis=0), np.tile([1, 2], 45), seed=2,
                           mean1=1.0, mean2=2.0, nugget1=0.01, nugget2=0.01)
        fit = bc.fit_ml(data, "lmc", n_starts=4, seed=0)
        value = bc.nll(fit.model, data)[0]
        assert (fit.nugget1, fit.nugget2) == (0.0, 0.0)
        assert fit.nll == value

    def test_separable_truth_recovers_rho(self):
        truth = bc.stable_bivariate(1.0, 1.5, 0.5, 0.8, 0.8, 0.8, 1.2, 1.2, 1.2)
        locs, comps = colocated_design(0, 60)
        data = bc.simulate(truth, locs, comps, seed=0, mean1=0.5, mean2=-0.25)
        fit = bc.fit_ml(data, "stable", n_starts=2, seed=0)
        assert fit.kind == "stable"
        assert fit.model.rho == pytest.approx(0.5, abs=0.05)
        assert fit.aic == pytest.approx(2.0 * fit.n_params + 2.0 * fit.nll)
        # the returned model passes its own validity pipeline
        rep = bc.max_rho_stable(fit.model, 2)
        assert abs(fit.model.rho) <= rep.rho_bound + 1e-12

    @pytest.mark.parametrize("cap", [5, 20])
    def test_max_evals_caps_every_start(self, cap, monkeypatch):
        locs, comps = colocated_design(3, 40)
        data = bc.simulate(MODEL, locs, comps, seed=5)
        calls = []
        original = _ProfiledNll.__call__
        monkeypatch.setattr(_ProfiledNll, "__call__",
                            lambda self, theta: calls.append(1) or original(self, theta))
        fit = bc.fit_ml(data, "stable", n_starts=2, seed=0, max_evals=cap)
        assert fit.n_iter == len(calls) <= 2 * cap
        assert not fit.converged

    @pytest.mark.parametrize("seed", range(4))
    def test_single_start_reaches_the_truth_likelihood(self, seed):
        # criterion 9's truth and data generation: a fit that stops above the
        # generating model's NLL has stopped early
        truth = bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7)
        pts = np.random.default_rng(seed).uniform(0.0, 10.0, size=(150, 2))
        data = bc.simulate(truth, np.repeat(pts, 2, axis=0), np.tile([1, 2], 150),
                           seed=seed, mean1=1.0, mean2=2.0)
        fit = bc.fit_ml(data, "stable", n_starts=1, seed=0)
        assert fit.nll <= bc.nll(truth, data)[0]

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_rejects_fewer_than_one_start(self, n_starts):
        locs, comps = colocated_design(5, 12)
        data = bc.simulate(MODEL, locs, comps, seed=2)
        with pytest.raises(ValueError, match="n_starts must be at least 1"):
            bc.fit_ml(data, "stable", n_starts=n_starts)

    def test_rejects_bad_nuggets_before_the_first_start(self, monkeypatch):
        # inside the objective the check would read as a failed start; with
        # no objective to build, only a check before the first start answers
        locs, comps = colocated_design(5, 12)
        data = bc.simulate(MODEL, locs, comps, seed=2)
        monkeypatch.setattr(bc.field, "_ProfiledNll", None)
        for bad in (math.nan, -1.0):
            with pytest.raises(ValueError, match="nuggets must be finite and nonnegative"):
                bc.fit_ml(data, "stable", n_starts=1, nugget1=bad)

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 3), (3, 3)])
    def test_bound_dimension_follows_the_coordinates(self, d, n, monkeypatch):
        # every engine call of the fit answers in R^n, and the returned rho
        # lies within the R^n bound
        reports = []
        original = bc.validity.max_rho_stable

        def recording(*args, **kw):
            reports.append(original(*args, **kw))
            return reports[-1]
        monkeypatch.setattr(bc.validity, "max_rho_stable", recording)
        locs, comps = colocated_design(5, 12, d=d)
        data = bc.simulate(MODEL, locs, comps, seed=2)
        fit = bc.fit_ml(data, "stable", n_starts=1, seed=0, max_evals=10)
        assert reports and {r.n for r in reports} == {n}
        assert abs(fit.model.rho) <= original(replace(fit.model, rho=0.0), n).rho_bound

    def test_kind_aliases(self):
        locs, comps = colocated_design(5, 12)
        data = bc.simulate(MODEL, locs, comps, seed=2)
        fit = bc.fit_ml(data, "StableBivariate", n_starts=1, seed=0,
                        max_evals=30)
        assert fit.kind == "stable"


class TestOneEngineMode:
    """The fit's rho cap is certify's bound: smooth, and never exceeded."""

    def test_the_cap_is_smooth_along_a_scale(self):
        # the README library model in R^3 with s12 over [0.69, 0.71] at steps of
        # 1e-5: the cap's largest second difference.  A 512-point scan without
        # the zoom, the fit's cap before, read 7.7e-7 here; with the zoom 3.6e-11
        locs, comps = colocated_design(5, 12)
        spec = _ParamSpec("stable", bc.simulate(MODEL, locs, comps, seed=2), 2, False, 0.0, 0.0)
        zero = np.zeros(spec.dim)
        caps = []
        for s12 in np.linspace(0.69, 0.71, 2001):
            probe = bc.stable_bivariate(1.0, 1.0, 0.0, 0.8, 0.9, 0.6, 0.5, s12, 0.7)
            params = {p: [_D(f.params.alpha, zero), _D(math.log(f.params.scale), zero)]
                      for p, f in zip(("11", "12", "22"), (probe.psi11, probe.psi12, probe.psi22))}
            caps.append(spec._member_bound(probe, params).x)
        assert np.abs(np.diff(caps, 2)).max() <= 1e-9

    @pytest.mark.parametrize("kind", ["stable", "cauchy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_fitted_rho_lies_within_the_certified_bound(self, kind, seed):
        locs, comps = colocated_design(seed, 15)
        data = bc.simulate(MODEL, locs, comps, seed=seed)
        fit = bc.fit_ml(data, kind, n_starts=1, seed=seed, max_evals=40)
        bound = bc.certify(replace(fit.model, rho=0.0), 2).rho_bound
        assert abs(fit.model.rho) <= bound


GRAD_LOCS, GRAD_COMPS = colocated_design(0, 40)
GRAD_DATA = bc.simulate(MODEL, GRAD_LOCS, GRAD_COMPS, seed=0, mean1=1.0, mean2=2.0)


def _gradient_error(kind, fit_nugget, theta=None, seed=1):
    """Largest gap between the analytic gradient and central differences of
    the same objective, relative to the largest difference quotient."""
    spec = _ParamSpec(kind, GRAD_DATA, 3, fit_nugget, 0.0, 0.0)
    objective = _ProfiledNll(spec, GRAD_DATA)
    theta = spec.starts(1, seed)[0] if theta is None else theta
    _, grad = objective(theta)
    num = np.empty_like(grad)
    for i in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        num[i] = (objective(up)[0] - objective(down)[0]) / (2.0 * h)
    return float(np.max(np.abs(grad - num)) / np.max(np.abs(num)))


def _cauchy_theta(seed, **moved):
    """A seeded start with the named cross edges moved to a logistic box draw."""
    spec = _ParamSpec("cauchy", GRAD_DATA, 3, False, 0.0, 0.0)
    theta = spec.starts(1, seed)[0]
    names = [entry[0] for entry in spec.table]
    for name, value in moved.items():
        k = names.index(name)
        theta[k] = spec.table[k][3](value, None)
    model = spec.decode(theta)[0]
    report = bc.max_rho_cauchy(replace(model, rho=0.0), 3, grid_points=512,
                               refine_brackets=0)
    return theta, report


class TestNllGradient:
    @pytest.mark.parametrize("kind", ["stable", "cauchy", "matern", "lmc"])
    @pytest.mark.parametrize("fit_nugget", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_central_differences(self, kind, fit_nugget, seed):
        assert _gradient_error(kind, fit_nugget, seed=seed) < 1e-5

    @pytest.mark.parametrize("fit_nugget", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_matern_gradient_is_exact(self, fit_nugget, seed):
        # the nu rows too: Richardson-extrapolated central differences of the NLL
        # (steps 1e-3 and 5e-4) agree within 2e-7 of the largest component, where
        # a central difference in nu inside the objective was off by up to 4e-6
        spec = _ParamSpec("matern", GRAD_DATA, 3, fit_nugget, 0.0, 0.0)
        objective = _ProfiledNll(spec, GRAD_DATA)
        theta = spec.starts(1, seed)[0]
        _, grad = objective(theta)
        num = np.empty_like(grad)
        for i in range(theta.size):
            def quotient(h):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                return (objective(up)[0] - objective(down)[0]) / (2.0 * h)
            num[i] = (4.0 * quotient(5e-4) - quotient(1e-3)) / 3.0
        assert np.max(np.abs(grad - num)) <= 2e-7 * np.max(np.abs(num))

    @pytest.mark.parametrize("kind", ["stable", "cauchy", "matern", "lmc"])
    def test_one_evaluation_per_term(self, kind, monkeypatch):
        # the Gram's value table and its derivatives come from the same pass
        spec = _ParamSpec(kind, GRAD_DATA, 3, False, 0.0, 0.0)
        objective = _ProfiledNll(spec, GRAD_DATA)
        theta = spec.starts(1, 1)[0]
        calls, tables = [], []

        def counted(fn):
            return lambda families, r, frees: (calls.append((families, np.size(r)))
                                               or fn(families, r, frees))

        # field's evaluator, and corrfn's, which evaluate and bimodels reach
        for module in (bc.field, bc.corrfn):
            monkeypatch.setattr(module, "_param_derivatives",
                                counted(bc.corrfn._param_derivatives))
        sums = bc.corrfn._k_sums
        monkeypatch.setattr(bc.corrfn, "_k_sums", lambda x, orders, tail=False: (
            tables.append((len(orders), tail)) or sums(x, orders, tail)))
        value, _ = objective(theta)
        assert value < 1e12
        model = spec.decode(theta)[0]
        if kind == "matern":
            # the three members share one scale, and 12's distances hold those of 11
            # and 22: psi, d/dnu and d/dlog s of all three from one table evaluation;
            # d/dnu where psi > 1/2 from one tail sum per member at most
            assert calls == [([fam for _, _, fam in _terms(model)],
                              objective.cache.dist["12"].size)]
            assert tables[0] == (9, False) and len(tables) <= 4
            assert all(t == (1, True) for t in tables[1:])
        else:
            # one call per distance array: an LMC's two members of a pair together
            assert calls == [([fam for p, _, fam in _terms(model) if p == pair],
                              objective.cache.dist[pair].size) for pair in ("11", "12", "22")]
            assert tables == []

    @pytest.mark.parametrize("kind", ["stable", "cauchy", "lmc"])
    def test_fixed_parameters_get_no_derivative(self, kind, monkeypatch):
        # LMC structures fix alpha at 1: no term may carry a d/d alpha array
        spec = _ParamSpec(kind, GRAD_DATA, 3, False, 0.0, 0.0)
        objective = _ProfiledNll(spec, GRAD_DATA)
        built, make = [], bc.field._param_derivatives

        def recorded(*args):
            out = make(*args)
            built.extend(derivs for _, derivs in out)
            return out

        monkeypatch.setattr(bc.field, "_param_derivatives", recorded)
        objective(spec.starts(1, 1)[0])
        assert len(built) == (6 if kind == "lmc" else 3)
        for derivs in built:
            assert (derivs[0] is None) == (kind == "lmc")
            assert all(d is not None for d in derivs[1:])

    @pytest.mark.parametrize("seed,moved,where", [
        (60, dict(a12=-40.0), "AtZero"),                 # alpha12 on its edge
        (41, dict(a12=-40.0, b12=-40.0), "AtInfinity"),  # both on their edges
    ])
    def test_limit_sets_the_bound(self, seed, moved, where):
        theta, report = _cauchy_theta(seed, **moved)
        assert report.infimum_location == where and 0.0 < report.rho_bound < 1.0
        assert _gradient_error("cauchy", False, theta) < 1e-5

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cauchy_beta12_near_its_edge(self, seed):
        theta, report = _cauchy_theta(seed, b12=-9.0)
        assert 0.0 < report.rho_bound < 1.0
        assert _gradient_error("cauchy", False, theta) < 1e-5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["stable", "cauchy"]),
       theta=st.lists(st.floats(-30.0, 30.0), min_size=12, max_size=12),
       encoded=st.booleans())
def test_decoded_cross_smoothness_is_at_or_above_its_edge(kind, theta, encoded):
    # raw theta is what L-BFGS-B searches; there an m_ii in [-30, 30] can decode to a
    # scale beyond the double range, which decode refuses and the objective prices
    # at 1e13.  Encoded, the values are start-box draws (log scales), which all decode
    spec = _ParamSpec(kind, GRAD_DATA, 3, False, 0.0, 0.0)
    theta = np.array(theta[:spec.dim])
    if encoded:
        theta = spec.encode([theta])[0]
    try:
        model = spec.decode(theta)[0]
    except (OverflowError, ValueError):
        assert not encoded
        assert _ProfiledNll(spec, GRAD_DATA)(theta)[0] == 1e13
        return
    a11, a12, a22 = (f.params.alpha for f in (model.psi11, model.psi12, model.psi22))
    if kind == "stable":
        assert a12 >= max(a11, a22)
    else:
        b11, b12, b22 = (f.params.beta for f in (model.psi11, model.psi12, model.psi22))
        assert a12 >= 0.5 * (a11 + a22) and b12 >= 0.5 * (b11 + b22)


def _marginal_microergodic(model):
    """sigma_i^2 c s_ii^alpha_ii of both marginals, c = beta_ii / alpha_ii for Cauchy, else 1."""
    out = []
    for sigma, fam in ((model.sigma1, model.psi11), (model.sigma2, model.psi22)):
        c = getattr(fam.params, "beta", fam.params.alpha) / fam.params.alpha
        out.append(sigma ** 2 * c * fam.params.scale ** fam.params.alpha)
    return np.array(out)


class TestMicroergodicCoordinates:
    """Stable and Cauchy fits carry each marginal log scale as m_ii = log(sigma_i^2 c s_ii^alpha_ii)."""

    @pytest.mark.parametrize("kind", ["stable", "cauchy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_only_m_ii_moves_the_marginal_microergodic_parameter(self, kind, seed):
        rng = np.random.default_rng(seed)
        spec = _ParamSpec(kind, GRAD_DATA, 3, False, 0.0, 0.0)
        theta = rng.uniform(-3.0, 3.0, spec.dim)
        before = _marginal_microergodic(spec.decode(theta)[0])
        for k, (name, *_) in enumerate(spec.table):
            moved = theta.copy()
            moved[k] += rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            after = _marginal_microergodic(spec.decode(moved)[0])
            changed = np.abs(after / before - 1.0) > 1e-12
            assert list(changed) == [name == "ls11", name == "ls22"], name

    # the models the starts decoded to in the plain coordinates (log scales, logistic boxes,
    # tanh(u)): sigma1, sigma2, rho, alpha11, alpha12, alpha22[, beta11, beta12, beta22],
    # s11, s12, s22
    LOG_SCALE_STARTS = {
        "stable": [[0.9059336114353155, 0.6207723253374738, 0.1333011216345576,
                    0.6576372332526113, 1.007618793220791, 0.9452310051066343,
                    1.111206169747926, 0.3087810140121956, 0.31093919132918835],
                   [0.4425095791475928, 1.2417878016132764, -0.013747646948665197,
                    0.8974442482795193, 1.0544673855555469, 0.360520437691302,
                    0.06290877614782048, 0.9383300165415162, 1.1474971128814773]],
        "cauchy": [[0.4971869074843855, 1.1311209247595446, 0.0025100845370800576,
                    0.9194570033588547, 0.9954940364817209, 0.9452310051066343,
                    0.7164333390305049, 13.016295732741163, 1.227760599342967,
                    0.3409703503774594, 1.5736095740934628, 0.6822591229914952],
                   [1.1311603573002693, 0.5618400195968568, -0.2246451349707005,
                    0.4153699762232127, 0.9181234704862665, 0.6136914831209593,
                    2.083395761124423, 3.7158925560874594, 4.6514413405047765,
                    0.19779765140495448, 0.2993815599182228, 0.05860648804371738]],
    }

    @pytest.mark.parametrize("kind", ["stable", "cauchy"])
    def test_starts_decode_to_the_same_models_as_log_scale_starts(self, kind):
        spec = _ParamSpec(kind, GRAD_DATA, 3, False, 0.0, 0.0)
        for theta, want in zip(spec.starts(2, 5), self.LOG_SCALE_STARTS[kind]):
            model = spec.decode(theta)[0]
            fams = (model.psi11, model.psi12, model.psi22)
            got = ([model.sigma1, model.sigma2, model.rho] + [f.params.alpha for f in fams]
                   + ([f.params.beta for f in fams] if kind == "cauchy" else [])
                   + [f.params.scale for f in fams])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed,optimum", [(22, 367.528758), (51, 351.03287)])
def test_stable_fit_leaves_the_cross_edges(seed, optimum):
    # criterion 9's design.  With s12 held while the marginal scales moved along their
    # ridges, and alpha12 in a logistic box, these fits ended 0.056 and 1.13 nats higher:
    # starts stranded where rho = 0 or with alpha12 on its edge max(alpha11, alpha22)
    truth = bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7)
    pts = np.random.default_rng(seed).uniform(0.0, 10.0, size=(150, 2))
    data = bc.simulate(truth, np.repeat(pts, 2, axis=0), np.tile([1, 2], 150), seed=seed,
                       mean1=1.0, mean2=2.0)
    assert bc.fit_ml(data, "stable", n_starts=2, seed=0).nll < optimum + 1e-3


class TestCokrige:
    def test_exact_interpolation_at_observations(self):
        locs, comps = colocated_design(6, 25)
        data = bc.simulate(MODEL, locs, comps, seed=13, mean1=1.0, mean2=-2.0)
        idx = np.where(comps == 1)[0][:5]
        pred, var = bc.cokrige(MODEL, data, data.locations[idx], 1,
                               mean1=1.0, mean2=-2.0)
        assert pred == pytest.approx(data.values[idx], abs=1e-7)
        assert np.all(var <= 1e-8)
        assert np.all(var >= -1e-8)

    def test_zero_rho_ignores_other_component(self):
        # with rho = 0 the cross covariance vanishes, so component 1 rows
        # cannot influence a component 2 prediction
        m0 = bc.stable_bivariate(1.0, 1.5, 0.0, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8)
        locs, comps = colocated_design(8, 20)
        data = bc.simulate(m0, locs, comps, seed=17)
        only2 = FieldSample(data.locations[comps == 2], comps[comps == 2],
                            values=data.values[comps == 2])
        targets = np.array([[2.0, 3.0], [7.5, 1.0]])
        full_pred, full_var = bc.cokrige(m0, data, targets, 2)
        part_pred, part_var = bc.cokrige(m0, only2, targets, 2)
        assert full_pred == pytest.approx(part_pred, abs=1e-10)
        assert full_var == pytest.approx(part_var, abs=1e-10)

    def test_validation(self):
        locs, comps = colocated_design(6, 12)
        data = bc.simulate(MODEL, locs, comps, seed=1)
        with pytest.raises(ValueError):
            bc.cokrige(MODEL, data, np.zeros((2, 2)), 3)
        with pytest.raises(ValueError):
            bc.cokrige(MODEL, data, np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            bc.cokrige(MODEL, FieldSample(locs, comps), np.zeros((2, 2)), 1)
        with pytest.raises(ValueError, match="means must be finite"):
            bc.cokrige(MODEL, data, np.zeros((2, 2)), 1, mean1=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_targets_before_the_gram(self, bad, monkeypatch):
        locs, comps = colocated_design(6, 12)
        data = bc.simulate(MODEL, locs, comps, seed=1)

        def no_gram(*args, **kwargs):
            raise AssertionError("the Gram was built")

        monkeypatch.setattr(bc.field, "_upper_gram", no_gram)
        with pytest.raises(ValueError, match="targets must be finite"):
            bc.cokrige(MODEL, data, [[bad, 1.0]], 1)

    @pytest.mark.parametrize("profiled", [False, True], ids=["given-means", "profiled-means"])
    @pytest.mark.parametrize("layout", ["colocated-interleaved", "heterotopic",
                                        "partly-colocated", "colocated-sorted",
                                        "colocated-reordered", "one-component",
                                        "repeated-locations", "colocated-repeated",
                                        "strided-and-scattered"])
    @pytest.mark.parametrize("target_component", [1, 2])
    @pytest.mark.parametrize("model", GRAM_MODELS, ids=GRAM_MODEL_IDS)
    def test_matches_a_dense_solve(self, layout, target_component, model, profiled):
        locs, comps = sample_layouts(2)[layout]
        nuggets = (0.01, 0.02)
        data = layout_data(locs, comps)
        targets = np.vstack([locs[:3], np.random.default_rng(5).uniform(0.0, 10.0, (6, 2))])
        k = scatter_gram(model, data, *nuggets)
        dist = np.linalg.norm(targets[:, None, :] - locs[None, :, :], axis=2)
        cross = np.column_stack([_entries(model, ("".join(sorted(f"{target_component}{c}")),),
                                          dist[:, i])[0] for i, c in enumerate(comps)])
        weights = np.linalg.solve(k, cross.T)
        if profiled:   # the GLS means, as bicov krige takes them
            means = dense_gls_means(k, comps, data.values)
            pred, var = _cokrige(model, data, targets, target_component, *nuggets)
        else:
            means = (0.5, -1.5)
            pred, var = bc.cokrige(model, data, targets, target_component, *nuggets, *means)
        centred = data.values - np.where(comps == 1, *means)
        sill = float(_entries(model, (f"{target_component}{target_component}",), 0.0)[0])
        assert pred == pytest.approx(means[target_component - 1] + centred @ weights,
                                     abs=1e-12 * sill, rel=0.0)
        assert var == pytest.approx(sill - np.einsum("ij,ji->i", cross, weights),
                                    abs=1e-12 * sill, rel=0.0)


class TestFitResultArguments:
    """cokrige and loo_rmse take a FitResult's nuggets and means; an explicit
    argument overrides the fit's."""

    LOCS, COMPS = colocated_design(6, 20)
    DATA = bc.simulate(MODEL, LOCS, COMPS, seed=3, mean1=1.0, mean2=2.0,
                       nugget1=0.05, nugget2=0.02)
    FIT = bc.FitResult(model=MODEL, kind="stable", nugget1=0.05, nugget2=0.02,
                       mean1=0.9, mean2=2.1, nll=0.0, n_params=11, aic=22.0,
                       converged=True, n_iter=1)
    TARGETS = np.array([[2.0, 3.0], [7.5, 1.0], [0.3, 9.1]])

    @pytest.mark.parametrize("component", [1, 2])
    def test_cokrige_uses_the_fit(self, component):
        got = bc.cokrige(self.FIT, self.DATA, self.TARGETS, component)
        want = bc.cokrige(MODEL, self.DATA, self.TARGETS, component, nugget1=0.05,
                          nugget2=0.02, mean1=0.9, mean2=2.1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        bare = bc.cokrige(MODEL, self.DATA, self.TARGETS, component)
        assert not np.array_equal(got[0], bare[0])

    def test_cokrige_override_wins(self):
        got = bc.cokrige(self.FIT, self.DATA, self.TARGETS, 1, nugget1=0.0, mean1=0.5)
        want = bc.cokrige(MODEL, self.DATA, self.TARGETS, 1, nugget1=0.0,
                          nugget2=0.02, mean1=0.5, mean2=2.1)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not np.array_equal(got[0], bc.cokrige(self.FIT, self.DATA, self.TARGETS, 1)[0])

    def test_loo_rmse_uses_the_fit(self):
        assert bc.loo_rmse(self.FIT, self.DATA) == bc.loo_rmse(
            MODEL, self.DATA, nugget1=0.05, nugget2=0.02)
        assert bc.loo_rmse(self.FIT, self.DATA, nugget2=0.3) == bc.loo_rmse(
            MODEL, self.DATA, nugget1=0.05, nugget2=0.3)
        assert bc.loo_rmse(self.FIT, self.DATA) != bc.loo_rmse(MODEL, self.DATA)


class TestLooRmse:
    def test_matches_deleted_point_refits(self):
        locs, comps = colocated_design(10, 16)
        data = bc.simulate(MODEL, locs, comps, seed=29, mean1=3.0, mean2=1.0)
        shortcut = bc.loo_rmse(MODEL, data)

        _, mu1, mu2 = bc.nll(MODEL, data)
        sq = []
        for i in range(len(comps)):
            keep = np.arange(len(comps)) != i
            rest = FieldSample(data.locations[keep], comps[keep],
                               values=data.values[keep])
            pred, _ = bc.cokrige(MODEL, rest, data.locations[i:i + 1],
                                 int(comps[i]), mean1=mu1, mean2=mu2)
            sq.append((data.values[i] - pred[0]) ** 2)
        assert shortcut == pytest.approx(math.sqrt(np.mean(sq)), rel=1e-9)


    # the predict benchmark's four models: the criterion-9 stable truth, a Cauchy
    # model of case v, a parsimonious Matern model at 0.8 of its rho limit, an LMC
    PREDICT_MODELS = {
        "stable": bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7),
        "cauchy": bc.cauchy_bivariate(1.0, 1.2, 0.5, 0.5, 0.8, 0.7, 1.5, 2.5, 2.0,
                                      0.5, 0.6, 0.7),
        "matern": bc.matern_bivariate(1.0, 0.8, 0.8 * _parsimonious_matern_rho_bound(0.5, 1.0, 2),
                                      0.5, 0.75, 1.0, 1.0, 1.0, 1.0),
        "lmc": bc.LmcBivariate(b1=(1.0, 0.5, 0.8), b2=(0.5, -0.2, 0.6),
                               psi1=stable(1.0, 0.5), psi2=stable(0.5, 1.0)),
    }

    @pytest.mark.parametrize("name", list(PREDICT_MODELS))
    def test_matches_the_explicit_inverse(self, name):
        model = self.PREDICT_MODELS[name]
        locs, comps = colocated_design(17, 100, extent=20.0)
        data = bc.simulate(model, locs, comps, seed=8, mean1=1.0, mean2=2.0)
        _, mu1, mu2 = bc.nll(model, data)
        precision = np.linalg.inv(gram(model, data))
        resid = precision @ (data.values - np.where(comps == 1, mu1, mu2))
        want = math.sqrt(np.mean((resid / np.diag(precision)) ** 2))
        assert bc.loo_rmse(model, data) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestOneShotPathsOnEveryLayout:
    """nll, loo_rmse and simulate on every sample layout and Gram model, each
    against a dense computation on scatter_gram (cokrige: TestCokrige)."""

    NUGGETS = (0.01, 0.02)

    @pytest.mark.parametrize("model", GRAM_MODELS, ids=GRAM_MODEL_IDS)
    @pytest.mark.parametrize("layout", list(sample_layouts(2)))
    def test_nll_matches_the_dense_gaussian_density(self, layout, model):
        locs, comps = sample_layouts(2)[layout]
        data = layout_data(locs, comps)
        k = scatter_gram(model, data, *self.NUGGETS)
        means = dense_gls_means(k, comps, data.values)
        value, mu1, mu2 = bc.nll(model, data, *self.NUGGETS)
        direct = -multivariate_normal(mean=np.where(comps == 1, *means), cov=k).logpdf(data.values)
        assert value == pytest.approx(direct, rel=1e-10)
        assert (mu1, mu2) == pytest.approx(means, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("model", GRAM_MODELS, ids=GRAM_MODEL_IDS)
    @pytest.mark.parametrize("layout", list(sample_layouts(2)))
    def test_loo_rmse_matches_the_explicit_inverse(self, layout, model):
        locs, comps = sample_layouts(2)[layout]
        data = layout_data(locs, comps)
        k = scatter_gram(model, data, *self.NUGGETS)
        precision = np.linalg.inv(k)
        resid = precision @ (data.values - np.where(comps == 1, *dense_gls_means(k, comps,
                                                                                   data.values)))
        want = math.sqrt(np.mean((resid / np.diag(precision)) ** 2))
        assert bc.loo_rmse(model, data, *self.NUGGETS) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("model", GRAM_MODELS, ids=GRAM_MODEL_IDS)
    @pytest.mark.parametrize("layout", list(sample_layouts(2)))
    def test_simulate_whitens_to_its_draws(self, layout, model):
        locs, comps = sample_layouts(2)[layout]
        sim = bc.simulate(model, locs, comps, seed=9, n_draws=2, mean1=1.0, mean2=-2.0,
                          nugget1=self.NUGGETS[0], nugget2=self.NUGGETS[1])
        assert sim.info["jitter"] == 0.0
        chol = np.linalg.cholesky(scatter_gram(model, sim, *self.NUGGETS))
        eps = np.random.Generator(np.random.Philox(9)).standard_normal((2, comps.size))
        white = np.linalg.solve(chol, (sim.values - np.where(comps == 1, 1.0, -2.0)).T).T
        assert white == pytest.approx(eps, rel=0.0, abs=1e-9)


    # LMC amplitudes whose sums overflow: the variances and the 11 entries are inf
    OVERFLOWING = bc.LmcBivariate(b1=(1e308, 0.0, 1.0), b2=(1e308, 0.0, 1.0),
                                  psi1=stable(1.0, 0.7), psi2=stable(1.5, 1.3))

    @pytest.mark.parametrize("layout", ["colocated-interleaved", "colocated-sorted",
                                        "heterotopic"])
    def test_a_gram_with_a_non_finite_entry_is_refused(self, layout):
        data = layout_data(*sample_layouts(2)[layout])
        model, targets = self.OVERFLOWING, [[1.0, 2.0]]
        assert not np.all(np.isfinite(gram(model, data)))
        for call in (lambda: bc.nll(model, data), lambda: bc.loo_rmse(model, data),
                     lambda: bc.cokrige(model, data, targets, 1),
                     lambda: _cokrige(model, data, targets, 2, 0.0, 0.0)):
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                call()

    # sigma1^2 = 1e400 is past the double range; rho sigma1 sigma2 = 4e199 is not
    HUGE_SIGMA = bc.stable_bivariate(1e200, 1.0, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8)

    def test_a_variance_past_the_double_range_is_refused(self):
        locs, comps = sample_layouts(2)["colocated-interleaved"]
        data, model, targets = layout_data(locs, comps), self.HUGE_SIGMA, [[1.0, 2.0]]
        for call in (lambda: gram(model, data), lambda: bc.nll(model, data),
                     lambda: bc.loo_rmse(model, data),
                     lambda: bc.cokrige(model, data, targets, 1),
                     lambda: bc.simulate(model, locs, comps, seed=5)):
            with pytest.raises(ValueError, match=r"sigma2\^2 leaves the double range"):
                call()
        # the model itself is accepted: its bound does not depend on sigma1
        assert bc.certify(model, 3) == bc.certify(replace(model, sigma1=1.0), 3)


def longdouble_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix by forward substitution in
    long double, a reference some bits finer than any double routine."""
    ell = lower.astype(np.longdouble)
    inv = np.zeros(ell.shape, dtype=np.longdouble)
    for i in range(ell.shape[0]):
        inv[i] = -(ell[i, :i] @ inv[:i])
        inv[i, i] += 1.0
        inv[i] /= ell[i, i]
    return inv


class TestInvertLower:
    @staticmethod
    def factor(n: int, seed: int = 0) -> np.ndarray:
        a = np.random.default_rng(seed).standard_normal((n, n))
        return np.asfortranarray(np.linalg.cholesky(a @ a.T + n * np.eye(n)))

    @pytest.mark.parametrize("n", [1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 300])
    def test_matches_a_triangular_solve_in_place(self, n):
        from scipy.linalg import solve_triangular
        lower = self.factor(n)
        c = lower.copy(order="F")
        upper = np.triu_indices(n, 1)
        c[upper] = np.nan   # never read: a NaN there would reach every product
        assert _invert_lower(c) is c
        assert np.isnan(c[upper]).all()
        want = solve_triangular(lower, np.eye(n), lower=True)
        assert np.allclose(np.tril(c), want, rtol=1e-13, atol=1e-15 * np.abs(want).max())

    @pytest.mark.parametrize("zero_at", [0, 70, 299])
    def test_a_zero_on_the_diagonal_raises(self, zero_at):
        c = self.factor(300)
        c[zero_at, zero_at] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match=f"diagonal entry {zero_at + 1} is zero"):
            _invert_lower(c)

    def test_refuses_what_it_cannot_write_in_place(self):
        for c in (self.factor(5).T, np.asfortranarray(self.factor(5)[:, :4]),
                  self.factor(5).astype(np.float32)):
            with pytest.raises(ValueError, match="Fortran-ordered float64"):
                _invert_lower(c)

    def test_keeps_no_reference_to_the_factor(self):
        # a reference cycle through the factor would keep a one-shot Gram of
        # 1,600 rows, 20 MB, alive until the cyclic collector ran
        c = self.factor(2 * _LEAF + 1)
        gone = weakref.ref(c)
        gc.disable()
        try:
            _invert_lower(c)
            del c
            assert gone() is None
        finally:
            gc.enable()

    def test_error_within_four_times_trtri_on_an_ill_conditioned_gram(self):
        from scipy.linalg import get_lapack_funcs
        # 150 colocated sites within 0.02 of each other, scales 2, alphas near 1
        pts = np.random.default_rng(0).uniform(0.0, 0.02, size=(150, 2))
        model = bc.stable_bivariate(1.0, 1.5, 0.4, 0.95, 0.97, 0.99, 2.0, 2.0, 2.0)
        lower = np.asfortranarray(np.linalg.cholesky(
            gram(model, FieldSample(np.repeat(pts, 2, axis=0), np.tile([1, 2], 150)))))
        assert np.linalg.cond(lower) > 1e3
        want = longdouble_inverse(lower)
        trtri, = get_lapack_funcs(("trtri",), (lower,))
        errors = [np.linalg.norm(np.tril(inv) - want) / np.linalg.norm(want)
                  for inv in (_invert_lower(lower.copy(order="F")), trtri(lower, lower=1)[0])]
        assert errors[0] <= 4.0 * errors[1]


class TestLapackBinding:
    """The LAPACK and BLAS pointers come from the library's own symbols, or,
    where a lookup misses, from scipy's cython_lapack and cython_blas capsules,
    which call the same routines: every result is the same to the bit."""

    @staticmethod
    def results():
        # 140 rows: the triangular inverse recurses past its leaves
        locs, comps = colocated_design(3, 70)
        data = bc.simulate(MODEL, locs, comps, seed=4, mean1=1.0, mean2=-2.0)
        targets = np.random.default_rng(5).uniform(0.0, 10.0, size=(7, 2))
        k = gram(MODEL, data, 0.1, 0.2)
        factor = cho_factor(k.copy(order="F"))
        spec = _ParamSpec("stable", data, 2, False, 0.0, 0.0)
        value, grad = _ProfiledNll(spec, data)(spec.starts(1, 0)[0])
        return [factor[0], cho_solve(factor, data.values), cho_solve(factor, k[:, :3]),
                *_cokrige(MODEL, data, targets, 1, 0.1, 0.2),
                *_cokrige(MODEL, data, np.empty((0, 2)), 2, 0.1, 0.2),
                np.array(bc.loo_rmse(MODEL, data, 0.1, 0.2)),
                np.tril(_precision(cho_factor(k.copy(order="F")))), np.array(value), grad]

    def test_both_pointer_sources_give_the_same_bits(self, monkeypatch):
        _lapack.cache_clear()
        by_symbol, symbols = self.results(), _lapack()
        monkeypatch.setattr(bc.field, "_cython_lapack", object)   # every symbol lookup misses
        _lapack.cache_clear()
        try:
            by_capsule, capsules = self.results(), _lapack()
        finally:
            monkeypatch.undo()
            _lapack.cache_clear()
        address = [{name: ctypes.cast(f, ctypes.c_void_p).value for name, f in vars(ns).items()}
                   for ns in (symbols, capsules)]
        assert address[0].keys() == address[1].keys()
        assert not set(address[0].values()) & set(address[1].values())
        assert [r.shape for r in by_symbol[5:7]] == [(0,), (0,)]   # no targets
        for got, want in zip(by_capsule, by_symbol, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("call", [
        lambda data: bc.nll(MODEL, data),
        lambda data: bc.loo_rmse(MODEL, data),
        lambda data: bc.cokrige(MODEL, data, [[1.0, 1.0]], 1),
    ], ids=["nll", "loo_rmse", "cokrige"])
    def test_a_repeated_row_without_nugget_raises_scipys_message(self, call):
        locs, comps = colocated_design(0, 6)
        # row 13 repeats row 4: the 13th leading minor is singular
        data = layout_data(np.vstack([locs, locs[3]]), np.append(comps, comps[3]))
        with pytest.raises(np.linalg.LinAlgError, match="^13-th leading minor of the array "
                                                        "is not positive definite$"):
            call(data)

    def test_cho_solve_refuses_a_right_hand_side_of_another_size(self):
        factor = cho_factor(np.asfortranarray(np.eye(3)))
        with pytest.raises(ValueError, match="incompatible dimensions"):
            cho_solve(factor, np.ones(4))


class TestParsimoniousMaternBound:
    @pytest.mark.parametrize("nu1,nu2,d", [(0.6, 1.4, 1), (0.6, 1.4, 3),
                                           (1.0, 2.5, 3)])
    def test_bound_is_sharp_on_spectral_profile(self, nu1, nu2, d):
        # common scale and nu12 = mean: the density ratio is frequency free,
        # so the margin sits at zero across u when rho equals the bound
        b = _parsimonious_matern_rho_bound(nu1, nu2, d)
        assert 0.0 < b < 1.0
        assert b == _parsimonious_matern_rho_bound(nu2, nu1, d)
        s = 1.2
        m = BivariateModel(1.0, 1.0, b, matern(nu1, s),
                           matern(0.5 * (nu1 + nu2), s), matern(nu2, s))
        prof = cross_spectral_profile(m, d, np.array([0.1, 0.5, 1.0, 2.0, 5.0]))
        margin = prof.f11 * prof.f22 - b * b * prof.f12 ** 2
        assert np.max(np.abs(margin) / (prof.f11 * prof.f22)) < 1e-7

    def test_gram_pd_at_bound(self):
        b = _parsimonious_matern_rho_bound(0.6, 1.4, 2)
        m = BivariateModel(1.0, 1.3, b, matern(0.6, 1.1),
                           matern(1.0, 1.1), matern(1.4, 1.1))
        locs, comps = colocated_design(12, 60)
        assert check_pd(gram(m, FieldSample(locs, comps))).passed
