import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from perpetua.errors import DrawError, NonConvergentError, PreconditionError
from perpetua.laws import (Beta, Exponential, FiniteDiscrete, FiniteJoint,
                           Independent, PointMass, UniformContinuous)
from perpetua.sampling import (_CF_SPACING, _CF_TILE, _STAGE, EmpiricalDistribution,
                               PerpetuityConfig, _batch_chunk, _cf_parts,
                               atom_scan, cf_modulus_grid, empirical_cf,
                               empirical_moment, fixed_point_residual,
                               ks_distance, sample_batch, sample_perpetuity,
                               to_csv, two_sample_ks)
from perpetua.streams import STREAM_SCHEME, RandomStream

HALF_ONE = Independent(PointMass(0.5), PointMass(1.0))
GEO = Independent(FiniteDiscrete((0.0, 1.0), (0.3, 0.7)), PointMass(1.0))
U_EXP = Independent(Beta(1.0, 1.0), Exponential(1.0))


def test_deterministic_series_truncates_at_epsilon():
    out = sample_perpetuity(PerpetuityConfig(HALF_ONE), RandomStream(0, 0))
    # |Pi_k| = 2^-k crosses 1e-15 at k = 50; the sum is exactly 2 - 2^-49
    assert out.terms == 50
    assert out.truncated and not out.exhausted
    assert out.value == 2.0 - 2.0 ** -49
    assert abs(out.value - 2.0) < 2e-15


def test_exact_stop_samples_are_exact():
    emp = sample_batch(PerpetuityConfig(GEO, seed=1), 2000)
    assert emp.n_truncated == 0
    assert emp.n_exhausted == 0
    assert np.all(emp.samples >= 1.0)
    assert np.all(emp.samples == np.floor(emp.samples))


def test_exhaustion_is_flagged():
    slow = Independent(PointMass(0.9999), PointMass(1.0))
    cfg = PerpetuityConfig(slow, epsilon=1e-15, max_terms=100, seed=0)
    out = sample_perpetuity(cfg, RandomStream(0, 0))
    assert out.exhausted and out.truncated
    assert out.terms == 100
    emp = sample_batch(cfg, 10)
    assert emp.n_exhausted == 10


def test_batch_determinism_same_seed():
    cfg = PerpetuityConfig(U_EXP, seed=5)
    a = sample_batch(cfg, 500)
    b = sample_batch(cfg, 500)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = sample_batch(PerpetuityConfig(U_EXP, seed=6), 500)
    assert not np.array_equal(a.samples, c.samples)


def test_batch_prefix_property():
    # ids are stable, so a longer batch extends a shorter one setwise
    cfg = PerpetuityConfig(U_EXP, seed=9)
    small = sample_batch(cfg, 100)
    big = sample_batch(cfg, 200)
    assert set(small.samples) <= set(big.samples)


@pytest.mark.parametrize("cuts", [np.linspace(0, 1024, 17).astype(int).tolist(),
                                  np.linspace(0, 1024, 33).astype(int).tolist(),
                                  [0, 1, 255, 256, 700, 1024]],
                         ids=["16-spans", "32-spans", "uneven"])
def test_chunking_does_not_change_output(cuts):
    # draw i uses stream (seed, i) alone, so any split of the ids gives the
    # same sorted batch
    cfg = PerpetuityConfig(U_EXP, seed=2)
    base = sample_batch(cfg, 1024)
    chunks = [_batch_chunk(cfg, range(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
    got = np.sort(np.concatenate([c[0] for c in chunks]))
    assert got.tobytes() == base.samples.tobytes()
    assert sum(c[1] for c in chunks) == base.n_truncated
    assert sum(c[2] for c in chunks) == base.n_exhausted


def test_non_convergent_config_refuses_to_sample():
    div = Independent(PointMass(1.0), Exponential(1.0))
    with pytest.raises(NonConvergentError):
        sample_perpetuity(PerpetuityConfig(div), RandomStream(0, 0))
    with pytest.raises(NonConvergentError):
        sample_batch(PerpetuityConfig(div), 10)


def test_config_validation():
    with pytest.raises(PreconditionError):
        PerpetuityConfig(U_EXP, epsilon=1.5)
    with pytest.raises(PreconditionError):
        PerpetuityConfig(U_EXP, epsilon=0.0)
    with pytest.raises(PreconditionError):
        PerpetuityConfig(U_EXP, max_terms=0)
    with pytest.raises(PreconditionError):
        PerpetuityConfig(U_EXP, seed=1.5)


_BAD_SETTINGS = [{"max_terms": True}, {"seed": True}, {"seed": False}, {"epsilon": True},
                 {"epsilon": "0.1"}, {"epsilon": None}, {"epsilon": 0.1j}]


@pytest.mark.parametrize("kwargs", _BAD_SETTINGS,
                         ids=[f"{k}={v!r}" for kw in _BAD_SETTINGS for k, v in kw.items()])
def test_config_rejects_bools_and_non_real_epsilon(kwargs):
    with pytest.raises(PreconditionError):
        PerpetuityConfig(U_EXP, **kwargs)


def test_overflowed_draws_are_inf_not_nan():
    # E log M = -57.6, yet about a quarter of the paths overflow float64: the
    # product runs on from the carried one, so an infinite product times a
    # tiny factor stays infinite and the sum of positive terms is +inf
    joint = Independent(FiniteDiscrete((1e200, 1e-250), (0.5, 0.5)), Exponential(1.0))
    samples = sample_batch(PerpetuityConfig(joint, max_terms=2000), 2000).samples
    assert not np.isnan(samples).any()
    overflowed = samples[~np.isfinite(samples)]
    assert overflowed.size > 0 and (overflowed == np.inf).all()


def test_partial_sum_trajectory_deterministic_maps():
    # a draw that exhausts max_terms = k is the backward partial sum Z_k
    for k, want in enumerate((1.0, 1.5, 1.75, 1.875), start=1):
        out = sample_perpetuity(PerpetuityConfig(HALF_ONE, max_terms=k), RandomStream(0, 0))
        assert out.exhausted and out.terms == k
        assert out.value == want


def test_partial_sums_are_cauchy_for_contracting_config():
    # one path read to 400, 200 and 50 terms; epsilon stops none of them
    z = {k: sample_perpetuity(PerpetuityConfig(U_EXP, epsilon=1e-300, max_terms=k),
                              RandomStream(0, 7)).value for k in (50, 200, 400)}
    assert abs(z[400] - z[200]) < 1e-12
    assert abs(z[400] - z[50]) < 1e-3


def test_failed_draw_names_its_stream_id(monkeypatch):
    def fail(self, gen, size):
        raise RuntimeError("no draw")
    monkeypatch.setattr(Beta, "_draw", fail)
    with pytest.raises(DrawError, match="^sample with stream id 9 failed: no draw$"):
        sample_perpetuity(PerpetuityConfig(U_EXP), RandomStream(0, 9))


def test_failed_continued_draw_names_its_stream_id(monkeypatch):
    # Beta(19, 1) paths run about 660 terms, so stream 9 outruns the first
    # wave's one row and fails where the batch draws its pairs one stream
    # at a time
    draw_pairs = Independent.draw_pairs

    def fail(self, stream, size):
        if stream.stream_id == 9:
            raise RuntimeError("no draw")
        return draw_pairs(self, stream, size)
    monkeypatch.setattr(Independent, "draw_pairs", fail)
    cfg = PerpetuityConfig(Independent(Beta(19.0, 1.0), Exponential(1.0)))
    with pytest.raises(DrawError, match="^sample with stream id 9 failed: no draw$"):
        sample_batch(cfg, 40)


@pytest.mark.parametrize("cfg, n, exhausted", [
    (PerpetuityConfig(Independent(Beta(2000.0, 1.0), Exponential(1.0))), 300, 0),
    (PerpetuityConfig(Independent(UniformContinuous(0.999, 1.0), Exponential(1.0)),
                      epsilon=1e-300, max_terms=10 ** 5), 40, 40),
], ids=["beta-2000", "exhausted"])
def test_long_paths_working_memory_is_bounded(cfg, n, exhausted):
    # paths of about 7e4 and exactly 1e5 terms, many _MAX_ROWS super-blocks
    # each, and the first wave's 32 run on together; a stage holds about
    # four float arrays of _STAGE elements (2 MiB), without the bound 17 MiB
    tracemalloc.start()
    try:
        emp = sample_batch(cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert emp.n_exhausted == exhausted
    assert peak < 2 * 4 * 8 * _STAGE


def _emp(values) -> EmpiricalDistribution:
    arr = np.sort(np.asarray(values, dtype=float))
    return EmpiricalDistribution(arr, arr.size, 0, 0, {})


def test_ks_distance_exact_grid():
    n = 10
    emp = _emp((np.arange(1, n + 1) - 0.5) / n)
    assert ks_distance(emp, lambda x: np.clip(x, 0, 1)) == pytest.approx(0.5 / n)


def test_ks_distance_scalar_cdf_fallback():
    emp = _emp([0.1, 0.4, 0.9])
    got = ks_distance(emp, lambda x: min(max(float(x), 0.0), 1.0))
    arr = ks_distance(emp, lambda x: np.clip(x, 0, 1))
    assert got == pytest.approx(arr)


def test_ks_distance_detects_wrong_law():
    gen = RandomStream(1).generator()
    emp = _emp(gen.exponential(1.0, 3000))
    from scipy import stats
    assert ks_distance(emp, stats.expon().cdf) < 0.03
    assert ks_distance(emp, stats.gamma(a=2).cdf) > 0.2


def test_two_sample_ks_conventions():
    assert two_sample_ks([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert two_sample_ks([0.0, 0.0], [5.0, 5.0]) == 1.0
    assert two_sample_ks([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == pytest.approx(1 / 3)
    with pytest.raises(PreconditionError):
        two_sample_ks([], [1.0])


def test_truncation_error_shrinks_with_epsilon():
    coarse = sample_batch(PerpetuityConfig(U_EXP, epsilon=1e-6, seed=4), 400)
    fine = sample_batch(PerpetuityConfig(U_EXP, epsilon=1e-12, seed=4), 400)
    # same stream ids: the fine run extends each coarse path, so the gap is
    # the truncated tail, of order epsilon times the tail perpetuity
    diff = np.abs(np.sort(fine.samples) - np.sort(coarse.samples))
    assert float(np.median(diff)) < 1e-4
    assert float(np.max(diff)) < 0.05


def test_fixed_point_residual_small_for_true_law():
    res = fixed_point_residual(PerpetuityConfig(U_EXP, seed=0), 4000)
    assert res < 0.05


def test_fixed_point_residual_zero_for_degenerate():
    cfg = PerpetuityConfig(FiniteJoint(((0.5, 0.5, 1.0),)), seed=0)
    assert fixed_point_residual(cfg, 500) == 0.0


def test_two_sample_ks_separates_different_laws():
    a = sample_batch(PerpetuityConfig(U_EXP, seed=0), 2000).samples
    b = sample_batch(PerpetuityConfig(HALF_ONE, seed=0), 2000).samples
    assert two_sample_ks(a, b) > 0.1


def test_empirical_distribution_statistics():
    emp = _emp([1.0, 2.0, 3.0, 4.0])
    assert emp.mean() == pytest.approx(2.5)
    assert emp.variance() == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
    assert emp.quantile(0.5) == pytest.approx(2.5)
    s = emp.summary()
    assert s["n"] == 4 and s["min"] == 1.0 and s["max"] == 4.0
    assert set(s) == {"n", "n_truncated", "n_exhausted", "mean", "variance",
                      "min", "max", "quantiles", "atoms"}


def test_summary_of_infinite_samples_warns_nothing():
    for values in ([1.0, 2.0, 3.0, np.inf, np.inf], [-np.inf, 1.0, np.inf]):
        emp = _emp(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = emp.summary()
            emp.mean(), emp.variance(), emp.quantile(0.99)
        assert math.isnan(s["variance"])


def test_quantile_next_to_infinite_sample_is_order_statistic():
    emp = _emp([1.0, 2.0, 3.0, np.inf, np.inf])
    assert emp.quantile(0.5) == 3.0
    assert emp.quantile(0.6) == emp.quantile(0.7) == emp.quantile(0.99) == np.inf
    qs = emp.summary()["quantiles"]
    assert qs["50"] == 3.0 and qs["75"] == qs["99"] == np.inf
    assert qs["25"] == float(np.quantile(emp.samples, 0.25))
    assert math.isnan(_emp([-np.inf, np.inf]).quantile(0.5))
    assert _emp([-np.inf, np.inf]).quantile(0.0) == -np.inf
    assert math.isnan(_emp([1.0, np.inf, np.nan]).quantile(0.25))


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1001])
def test_summary_quantiles_equal_single_quantiles(n):
    emp = _emp(np.random.default_rng(n).standard_cauchy(n))
    qs = emp.summary()["quantiles"]
    assert qs == {str(p): float(np.quantile(emp.samples, p / 100))
                  for p in (1, 5, 25, 50, 75, 95, 99)}


def test_empty_empirical_distribution_guards():
    emp = _emp([])
    with pytest.raises(PreconditionError):
        emp.mean()
    with pytest.raises(PreconditionError):
        ks_distance(emp, lambda x: x)


def test_empirical_cf_and_grid():
    emp = _emp([0.0, math.pi / 2])
    re, im = empirical_cf(emp, 1.0)
    assert re == pytest.approx(0.5)
    assert im == pytest.approx(0.5)
    grid = cf_modulus_grid(emp, np.array([0.0, 1.0]))
    assert grid[0] == pytest.approx(1.0)
    assert grid[1] == pytest.approx(math.sqrt(0.5))


def _cf_direct(x, ts):
    """Reference CF: a cos and a sin of every product, a few t at a time."""
    re = np.empty(ts.size)
    im = np.empty(ts.size)
    with np.errstate(invalid="ignore"):
        for a in range(0, ts.size, 16):
            tx = np.multiply.outer(ts[a : a + 16], x)
            re[a : a + 16] = np.cos(tx).mean(axis=1)
            im[a : a + 16] = np.sin(tx).mean(axis=1)
    return re, im


def _cf_deviation(x, ts):
    re, im = _cf_parts(x, ts)
    want_re, want_im = _cf_direct(x, ts)
    return float(np.max(np.hypot(re - want_re, im - want_im)))


def _assert_cf_near_direct(x, ts):
    """Within a few ulp per rotation step plus the rounding of t * x."""
    eps = np.finfo(float).eps
    bound = 4 * eps * (_CF_SPACING + np.max(np.abs(ts)) * np.max(np.abs(x)))
    assert _cf_deviation(x, ts) <= bound


def test_cf_rotation_matches_direct_on_battery_grids():
    # the samples and grids of check_singularity and check_uniform_symmetric
    rng = np.random.default_rng(0)
    signs = rng.integers(0, 2, (10 ** 5, 36)) * 2.0 - 1.0
    bern = signs @ (1.0 / 3.0) ** np.arange(36)
    unif = rng.uniform(-2.0, 2.0, 10 ** 5)
    for x, ts in ((bern, np.arange(2.0, 300.0 + 0.125, 0.25)),
                  (unif, np.arange(0.5, 100.0 + 1e-9, 0.25))):
        # arange grids take the rotation path
        assert np.array_equal(ts, ts[0] + np.arange(ts.size) * (ts[1] - ts[0]))
        assert _cf_deviation(x, ts) <= 1e-12


def _normal(n):
    return np.random.default_rng(1).standard_normal(n)


@pytest.mark.parametrize("ts, x", [
    *(pytest.param(ts, _normal(3000), id=f"ts{i}") for i, ts in enumerate([
        np.linspace(-3.0, 7.0, 250),
        np.geomspace(0.1, 100.0, 300),                 # not arithmetic
        np.arange(-50.0, 50.0, 0.25),                  # crosses t = 0
        np.arange(40.0, -40.0, -0.5),                  # descending
        np.arange(0.3, 0.3 + 0.1 * (3 * _CF_SPACING + 5), 0.1)[: 3 * _CF_SPACING + 5],
        np.arange(1.0, 1.0 + _CF_SPACING + 1),         # one point past an anchor
        np.array([1.7]),
        np.array([-2.5]),
    ])),
    # the kernel's seams: a last tile of one sample, a second block of
    # anchors that ends part-way through its last anchor's points, and
    # coherent phases, whose sums grow with n in the matrix products
    pytest.param(np.arange(0.5, 40.0, 0.25), _normal(5 * _CF_TILE + 1),
                 id="tile-remainder"),
    pytest.param(np.arange(-20.0, 25.0, 0.01)[: _CF_SPACING ** 2 + 5 * _CF_SPACING + 7],
                 _normal(3000), id="partial-block"),
    pytest.param(np.arange(0.0, 3.0, 0.01),
                 np.random.default_rng(5).uniform(0.0, 1.0, 2 * 10 ** 5 + 3),
                 id="coherent-phases"),
])
def test_cf_rotation_matches_direct_on_other_grids(ts, x):
    _assert_cf_near_direct(x, ts)


def test_cf_rotation_large_samples():
    x = np.random.default_rng(2).uniform(0.9e4, 1.1e4, 3000) * np.repeat([1, -1], 1500)
    ts = np.arange(0.5, 40.0, 0.25)
    _assert_cf_near_direct(x, ts)


def test_cf_rotation_drift_stays_bounded_on_long_grids():
    # 2e5 steps of one rotation would drift far past the bound; anchors stop it
    x = np.random.default_rng(4).standard_normal(200)
    ts = np.arange(0.0, 20.0, 1e-4)
    _assert_cf_near_direct(x, ts)


def test_cf_at_zero_is_one():
    x = np.random.default_rng(3).standard_normal(500)
    re, im = _cf_parts(x, np.array([0.0]))
    assert (re[0], im[0]) == (1.0, 0.0)
    re, im = _cf_parts(x, np.arange(0.0, 10.0, 0.5))
    assert (re[0], im[0]) == (1.0, 0.0)


def test_cf_of_infinite_samples_is_nan_where_direct_is():
    for x in (np.array([0.5, 1.0, np.inf, -2.0, -np.inf]), np.array([0.5, np.nan, -2.0])):
        for ts in (np.arange(0.0, 30.0, 0.25), np.array([0.0]), np.array([2.0])):
            with np.errstate(invalid="ignore"):
                re, im = _cf_parts(x, ts)
            want_re, want_im = _cf_direct(x, ts)
            np.testing.assert_array_equal(np.isnan(re), np.isnan(want_re))
            np.testing.assert_array_equal(np.isnan(im), np.isnan(want_im))


def test_cf_working_memory_does_not_grow_with_n():
    # the battery's t <= 300 grid at n = 10^6: two blocks of at most 64 rows
    # of _CF_TILE complex values are 4 MB, one complex row of all n is 16 MB
    x = np.random.default_rng(6).uniform(-2.0, 2.0, 10 ** 6)
    ts = np.arange(2.0, 300.0 + 0.125, 0.25)
    tracemalloc.start()
    try:
        _cf_parts(x, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_empirical_moment():
    emp = _emp([1.0, 2.0, 3.0])
    assert empirical_moment(emp, 0.0) == 1.0
    assert empirical_moment(emp, 1.0) == pytest.approx(2.0)
    assert empirical_moment(emp, 2.0) == pytest.approx((1 + 4 + 9) / 3)


def test_atom_scan_orders_by_mass():
    emp = _emp([1.0] * 6 + [2.0] * 3 + [3.5] * 1)
    atoms = atom_scan(emp, min_prob=0.15)
    assert atoms == [(1.0, 0.6), (2.0, 0.3)]
    assert atom_scan(_emp(np.linspace(0, 1, 100)), min_prob=0.05) == []


def test_geometric_batch_atoms():
    emp = sample_batch(PerpetuityConfig(GEO, seed=3), 20000)
    atoms = dict(atom_scan(emp, min_prob=0.05))
    assert atoms[1.0] == pytest.approx(0.3, abs=0.02)
    assert atoms[2.0] == pytest.approx(0.21, abs=0.02)


def test_to_csv_round_trip(tmp_path):
    emp = sample_batch(PerpetuityConfig(U_EXP, seed=8), 50)
    path = tmp_path / "z.csv"
    to_csv(emp, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z"
    back = np.array([float(s) for s in lines[1:]])
    np.testing.assert_array_equal(back, emp.samples)


def test_to_csv_bytes_match_one_write_per_sample(tmp_path):
    # the file is one join; the reference is the per-sample loop it replaced
    emp = _emp([-0.0, 5e-324, 1e308, math.inf, -math.inf, 0.1, -2.5, 1.0 / 3.0])
    path = tmp_path / "z.csv"
    to_csv(emp, path)
    want = "z\n" + "".join(f"{float(v)!r}\n" for v in emp.samples)
    assert path.read_bytes() == want.encode("ascii")


def test_to_csv_empty_batch(tmp_path):
    emp = sample_batch(PerpetuityConfig(U_EXP, seed=8), 0)
    path = tmp_path / "empty.csv"
    to_csv(emp, path)
    assert path.read_text() == "z\n"


def test_provenance_recorded():
    cfg = PerpetuityConfig(U_EXP, epsilon=1e-10, max_terms=500, seed=12)
    emp = sample_batch(cfg, 10)
    prov = emp.provenance
    assert prov["seed"] == 12
    assert prov["epsilon"] == 1e-10
    assert prov["max_terms"] == 500
    assert prov["stream_ids"] == [0, 10]
    assert prov["joint"]["coupling"] == "independent"
    assert prov["stream_scheme"] == STREAM_SCHEME == "philox4x64-lane-v3"


def test_sample_batch_rejects_bad_n():
    with pytest.raises(PreconditionError):
        sample_batch(PerpetuityConfig(U_EXP), -1)
    with pytest.raises(PreconditionError):
        sample_batch(PerpetuityConfig(U_EXP), 2.5)
