"""Observation-model tests.

Oracles used here, written independently of the implementation:
- trapezoid quadrature of the scalar reading densities, checking that
  density mass plus the generative max-range probability is 1;
- direct ray-segment geometry for predicted laser impact distances;
- a fixed-probability stub for the exclusive-return recursion, with
  hand-computed values;
- from-scratch recomputation of cached likelihood totals after a chain
  of accepted edits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prfmap.coloring import Coloring
from prfmap.geometry import (Point2, Rect, Segment, VisibleFeature,
                             _clip_to_wedge, _point_at,
                             point_segment_distance, ray_rect_exit,
                             ray_segment_intersection, unit_vector)
from prfmap.moves import MoveParams
from prfmap.prior import PriorParams
from prfmap.sampler import Sampler, run_chain
from prfmap.sensors import (_TOUCH_EPS, CompositeLikelihood, LaserObs,
                            LaserParams, _wedge_clip_distance,
                            ObservationCache, PointColorLikelihood,
                            PointColorObs, SonarObs, SonarParams,
                            beam_direction, laser_log_likelihood,
                            laser_true_distance, return_probabilities,
                            sonar_features, sonar_log_likelihood)
from prfmap.sim import SonarRingSpec

WINDOW = Rect(0.0, 0.0, 4.0, 3.0)


def wall_scene() -> Coloring:
    """One 0.2 m thick wall across x = 2.0..2.2, y = 0.5..2.5."""
    return Coloring.from_rectangles(WINDOW, [Rect(2.0, 0.5, 2.2, 2.5)],
                                    cell_size=0.5)


# ---------------------------------------------------------------------------
# laser


def test_laser_true_distance_hits_wall_front_face():
    col = wall_scene()
    d, eid = laser_true_distance(col, Point2(0.5, 1.5), (1.0, 0.0), 8.0)
    assert eid is not None
    assert d == pytest.approx(1.5, abs=1e-12)


def test_laser_true_distance_no_hit_is_window_exit():
    col = wall_scene()
    # beam pointing away from the wall: exit through x = 0 at distance 0.5
    d, eid = laser_true_distance(col, Point2(0.5, 1.5), (-1.0, 0.0), 8.0)
    assert eid is None
    assert d == pytest.approx(0.5, abs=1e-12)


def test_laser_true_distance_capped_at_max_range():
    col = Coloring.empty(WINDOW, cell_size=0.5)
    d, eid = laser_true_distance(col, Point2(0.5, 1.5), (1.0, 0.0), 2.0)
    assert eid is None
    assert d == pytest.approx(2.0, abs=1e-12)


def test_laser_true_distance_matches_brute_force():
    rng = np.random.default_rng(4)
    rects = [Rect(0.6, 0.4, 1.2, 1.1), Rect(2.4, 1.6, 3.1, 2.4),
             Rect(1.8, 0.3, 2.2, 0.9)]
    col = Coloring.from_rectangles(WINDOW, rects, cell_size=0.5)
    segs = {eid: col.segment_of(eid) for eid in col.edges}
    for _ in range(300):
        origin = Point2(0.05 + rng.random() * 3.9, 0.05 + rng.random() * 2.9)
        direction = unit_vector(rng.random() * 2.0 * math.pi)
        max_range = 0.5 + rng.random() * 8.0
        got_d, got_eid = laser_true_distance(col, origin, direction, max_range)
        cap = min(ray_rect_exit(origin, direction, WINDOW), max_range)
        best = (cap, None)
        for eid, seg in segs.items():
            t = ray_segment_intersection(origin, direction, seg)
            if t is not None and t <= cap and (t < best[0] - 1e-12
                                               or (abs(t - best[0]) <= 1e-12
                                                   and best[1] is not None
                                                   and eid < best[1])):
                best = (t, eid)
        assert got_eid == best[1]
        assert got_d == pytest.approx(best[0], abs=1e-9)


def test_laser_density_normalizes():
    # quadrature of the unflagged density over (0, max] plus the generative
    # probability of a flagged reading (Gaussian mass past max_range plus
    # the dedicated max-range mixture weight) accounts for all probability;
    # only the Gaussian tail below zero is missing.
    p = LaserParams()
    max_range = 8.0
    for d_star in (0.5, 2.0, 6.0):
        sigma = p.sigma(d_star)
        r = np.linspace(1e-9, max_range, 400001)
        dens = (p.w_gauss * np.exp(-0.5 * ((r - d_star) / sigma) ** 2)
                / (sigma * math.sqrt(2.0 * math.pi))
                + p.w_uniform / max_range)
        mass = np.trapezoid(dens, r)
        flag_mass = p.w_maxrange + p.w_gauss * 0.5 * math.erfc(
            (max_range - d_star) / (sigma * math.sqrt(2.0)))
        below_zero = p.w_gauss * 0.5 * math.erfc(
            d_star / (sigma * math.sqrt(2.0)))
        assert mass + flag_mass + below_zero == pytest.approx(1.0, abs=2e-4)


def test_laser_density_peaks_at_predicted_distance():
    col = wall_scene()
    base = dict(x=0.5, y=1.5, heading=0.0, bearing=0.0, max_range=8.0)
    p = LaserParams()
    ll_at = {r: laser_log_likelihood(LaserObs(range=r, **base), col, p)
             for r in (1.40, 1.50, 1.60)}
    assert ll_at[1.50] > ll_at[1.40]
    assert ll_at[1.50] > ll_at[1.60]


def test_laser_flagged_reading_in_open_space():
    # facing down a long empty window, the Gaussian sits far below the
    # range limit, so a flagged reading scores the uniform + max-range
    # weights almost exactly
    col = Coloring.empty(Rect(0.0, 0.0, 4.0, 3.0), cell_size=0.5)
    o = LaserObs(0.5, 1.5, 0.0, 0.0, 8.0, 8.0, is_max_range=True)
    p = LaserParams()
    expected = math.log(p.w_uniform / 8.0 + p.w_maxrange)
    assert laser_log_likelihood(o, col, p) == pytest.approx(expected, abs=1e-9)


def test_laser_flagged_atom_raises_likelihood():
    col = wall_scene()
    p = LaserParams()
    base = dict(x=0.5, y=1.5, heading=0.0, bearing=0.0, max_range=8.0)
    plain = laser_log_likelihood(LaserObs(range=8.0, **base), col, p)
    flagged = laser_log_likelihood(
        LaserObs(range=8.0, is_max_range=True, **base), col, p)
    assert flagged > plain


def test_laser_sensor_inside_occupied_space_impossible():
    col = wall_scene()
    o = LaserObs(2.1, 1.5, 0.0, 0.0, 1.0, 8.0)
    assert laser_log_likelihood(o, col, LaserParams()) == -math.inf


def test_laser_params_validation():
    with pytest.raises(ValueError):
        LaserParams(w_gauss=0.5, w_uniform=0.1, w_maxrange=0.1)
    with pytest.raises(ValueError):
        LaserObs(0.5, 0.5, 0.0, 0.0, 9.0, 8.0)
    with pytest.raises(ValueError):
        LaserObs(0.5, 0.5, 0.0, 0.0, 0.0, 8.0)


# ---------------------------------------------------------------------------
# sonar: exclusive-return recursion


class _FixedQ:
    """Stands in for SonarParams with preset per-feature probabilities."""

    def __init__(self, by_depth):
        self.by_depth = dict(by_depth)

    def independent_return_probability(self, f):
        return self.by_depth[f.depth]


def _feature(depth, kind="face"):
    a = Point2(depth, -0.1)
    b = Point2(depth, 0.1)
    return VisibleFeature(kind, 1, a, b, depth, math.pi / 2.0, 0.05, -0.05,
                          0.05)


def test_return_probabilities_hand_case():
    feats = [_feature(1.0), _feature(2.0)]
    trips = return_probabilities(feats, _FixedQ({1.0: 0.5, 2.0: 0.8}))
    assert [q for _, q, _ in trips] == [0.5, 0.8]
    assert trips[0][2] == pytest.approx(0.5)
    assert trips[1][2] == pytest.approx(0.4)  # 0.8 * (1 - 0.5)


def test_return_probabilities_saturate_at_one():
    feats = [_feature(1.0), _feature(2.0), _feature(3.0)]
    trips = return_probabilities(feats,
                                 _FixedQ({1.0: 0.5, 2.0: 0.8, 3.0: 1.0}))
    assert sum(r for _, _, r in trips) == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0,
                max_size=8))
def test_return_probabilities_total(qs):
    feats = [_feature(float(i + 1)) for i in range(len(qs))]
    trips = return_probabilities(feats,
                                 _FixedQ({float(i + 1): q
                                          for i, q in enumerate(qs)}))
    rs = [r for _, _, r in trips]
    assert all(r >= 0.0 for r in rs)
    total = sum(rs)
    assert total <= 1.0 + 1e-12
    # total return probability is one minus the chance every feature
    # independently stays silent
    expect = 1.0 - math.prod(1.0 - q for q in qs)
    assert total == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# sonar: logistic calibration anchors


def test_face_head_on_at_one_meter_is_strong_reflector():
    p = SonarParams()
    f = _feature(1.0)  # perpendicular viewing, 0.05 rad subtended
    f = VisibleFeature("face", 1, f.point_a, f.point_b, 1.0, math.pi / 2.0,
                       math.radians(10.0), -0.05, 0.05)
    q = p.independent_return_probability(f)
    assert q == pytest.approx(0.95, abs=0.005)


def test_face_sixty_degree_tilt_is_coin_flip():
    p = SonarParams()
    f = VisibleFeature("face", 1, Point2(1, 0), Point2(1, 0.1), 1.0,
                       math.pi / 2.0 - math.radians(60.0),
                       math.radians(10.0), -0.05, 0.05)
    q = p.independent_return_probability(f)
    assert q == pytest.approx(0.5, abs=0.005)


def test_corner_at_one_meter_is_coin_flip():
    p = SonarParams()
    f = VisibleFeature("corner", 1, Point2(1, 0), Point2(1, 0), 1.0, 0.0,
                       0.0, 0.0, 0.0)
    assert p.independent_return_probability(f) == pytest.approx(0.5,
                                                                abs=1e-12)
    far = VisibleFeature("corner", 1, Point2(3, 0), Point2(3, 0), 3.0, 0.0,
                         0.0, 0.0, 0.0)
    assert p.independent_return_probability(far) < 0.2


# ---------------------------------------------------------------------------
# sonar: scene-level likelihood


def _sonar_obs(r, flagged=False):
    return SonarObs(0.5, 1.5, 0.0, 0.0, math.radians(10.0), r, 3.5,
                    is_max_range=flagged)


def test_sonar_features_sorted_and_in_cone():
    col = wall_scene()
    trips = sonar_features(_sonar_obs(3.5, True), col, SonarParams())
    assert trips, "the wall ahead must be visible"
    depths = [f.depth for f, _, _ in trips]
    assert depths == sorted(depths)
    assert min(depths) == pytest.approx(1.5, abs=1e-9)


def test_sonar_likelihood_peaks_at_wall_distance():
    col = wall_scene()
    p = SonarParams()
    ll = {r: sonar_log_likelihood(_sonar_obs(r), col, p)
          for r in (1.0, 1.5, 2.5)}
    assert ll[1.5] > ll[1.0]
    assert ll[1.5] > ll[2.5]


def test_sonar_density_normalizes():
    col = wall_scene()
    p = SonarParams()
    trips = sonar_features(_sonar_obs(3.5, True), col, p)
    max_range = 3.5
    r = np.linspace(1e-9, max_range, 400001)
    total_r = sum(rf for _, _, rf in trips)
    dens = np.zeros_like(r)
    for f, _, rf in trips:
        dens += (rf * np.exp(-0.5 * ((r - f.depth) / p.sigma) ** 2)
                 / (p.sigma * math.sqrt(2.0 * math.pi)))
    rate = p.outlier_rate
    dens += (1.0 - total_r) * (
        p.w_uniform / max_range
        + p.w_exponential * rate * np.exp(-rate * r)
        / -math.expm1(-rate * max_range))
    mass = np.trapezoid(dens, r)
    flag_mass = (1.0 - total_r) * p.w_maxrange
    for f, _, rf in trips:
        flag_mass += rf * 0.5 * math.erfc(
            (max_range - f.depth) / (p.sigma * math.sqrt(2.0)))
    assert mass + flag_mass == pytest.approx(1.0, abs=1e-3)


def test_sonar_sensor_inside_occupied_space_impossible():
    col = wall_scene()
    o = SonarObs(2.1, 1.5, 0.0, 0.0, math.radians(10.0), 1.0, 3.5)
    assert sonar_log_likelihood(o, col, SonarParams()) == -math.inf


def test_sonar_likelihood_always_finite_in_free_space():
    col = wall_scene()
    p = SonarParams()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(0.1, 1.8)
        y = rng.uniform(0.1, 2.9)
        o = SonarObs(x, y, rng.uniform(0, 2 * math.pi),
                     rng.uniform(0, 2 * math.pi), math.radians(10.0),
                     rng.uniform(0.05, 3.5), 3.5)
        assert math.isfinite(sonar_log_likelihood(o, col, p))


# ---------------------------------------------------------------------------
# point-color observations


def test_point_likelihood_prefers_matching_color():
    col = wall_scene()  # (2.1, 1.5) black; (0.5, 0.5) white
    obs = [PointColorObs(2.1, 1.5, 0.9, 1.0, 0.0, 0.25),
           PointColorObs(0.5, 0.5, 0.1, 1.0, 0.0, 0.25)]
    lik = PointColorLikelihood(col, obs)
    # totals are Gaussian exponents: -(v - mu)^2 / (2 sigma^2) per point
    expected = (-0.5 * ((0.9 - 1.0) / 0.25) ** 2
                - 0.5 * ((0.1 - 0.0) / 0.25) ** 2)
    assert lik.log_likelihood() == pytest.approx(expected, abs=1e-12)
    empty = Coloring.empty(WINDOW, cell_size=0.5)
    lik_empty = PointColorLikelihood(empty, obs)
    assert lik.log_likelihood() > lik_empty.log_likelihood()


# ---------------------------------------------------------------------------
# the cache's cone touch test vs the sweep's scalar clip


def _sweep_clip_distance(apex, heading, half_angle, seg):
    """Reference: the clip visibility_sweep applies, then its range distance."""
    span = _clip_to_wedge(seg, apex, unit_vector(heading - half_angle),
                          unit_vector(heading + half_angle))
    if span is None:
        return math.inf
    return point_segment_distance(apex, _point_at(seg, span[0]),
                                  _point_at(seg, span[1]))


def _check_wedge_test(apexes, headings, half_angles, segs):
    px = np.array([a.x for a in apexes])
    py = np.array([a.y for a in apexes])
    lo = np.array([unit_vector(h - b) for h, b in zip(headings, half_angles)])
    hi = np.array([unit_vector(h + b) for h, b in zip(headings, half_angles)])
    for seg in segs:
        got = _wedge_clip_distance(px, py, lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1], seg)
        want = np.array([_sweep_clip_distance(a, h, b, seg) for a, h, b
                         in zip(apexes, headings, half_angles)])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12, atol=1e-15)
        # a cone truncated exactly at the reference distance still sees seg
        missed = fin & ~(got <= want + _TOUCH_EPS)
        assert not missed.any(), f"missed touch of {seg} by cones {np.flatnonzero(missed)}"


def _awkward_segments(apex, heading, half_angle, rng, n):
    """Random segments plus ones ending on, or parallel to, a wedge edge."""
    segs = []
    for _ in range(n):
        a = Point2(*rng.uniform(-4.0, 4.0, 2))
        b = Point2(*rng.uniform(-4.0, 4.0, 2))
        segs.append(Segment(a, b))
        ux, uy = unit_vector(heading + rng.choice([-1.0, 1.0]) * half_angle)
        s = rng.uniform(0.1, 3.0)
        on_edge = Point2(apex.x + s * ux, apex.y + s * uy)
        segs.append(Segment(on_edge, b))
        off = rng.uniform(-0.3, 0.3)
        base = Point2(on_edge.x - off * uy, on_edge.y + off * ux)
        segs.append(Segment(base, Point2(base.x + ux, base.y + uy)))
    return segs


def test_wedge_touch_matches_sweep_clip_on_random_cones():
    rng = np.random.default_rng(11)
    n = 60
    apexes = [Point2(*rng.uniform(-2.0, 2.0, 2)) for _ in range(n)]
    headings = rng.uniform(-math.pi, math.pi, n)
    half_angles = rng.uniform(0.02, 1.5, n)
    # a lower edge along +x, so horizontal segments are exactly parallel to it
    headings[:6] = half_angles[:6]
    segs = [Segment(Point2(-4.0, a.y + dy), Point2(4.0, a.y + dy))
            for a in apexes[:6] for dy in (-0.5, 0.0, 0.5)]
    for k in range(0, n, 6):
        segs += _awkward_segments(apexes[k], headings[k], half_angles[k], rng, 5)
    _check_wedge_test(apexes, headings, half_angles, segs)


def test_wedge_touch_matches_sweep_clip_on_a_sonar_ring():
    rng = np.random.default_rng(12)
    ring = SonarRingSpec()
    apex = Point2(0.7, -0.4)
    headings = 0.3 + ring.bearings()
    half_angles = np.full(ring.n_transducers, ring.half_angle)
    segs = [Segment(Point2(-3.0, 1.0), Point2(3.0, 1.0)),
            Segment(Point2(0.7, -0.4), Point2(2.0, 2.0))]
    for h in headings[::4]:
        segs += _awkward_segments(apex, h, ring.half_angle, rng, 10)
    _check_wedge_test([apex] * ring.n_transducers, headings, half_angles, segs)


# ---------------------------------------------------------------------------
# incremental cache vs recomputation


def _random_observations(col, rng, n_laser=40, n_sonar=20, n_point=25):
    lasers, sonars, points = [], [], []
    while len(lasers) < n_laser:
        x = rng.uniform(0.1, 3.9)
        y = rng.uniform(0.1, 2.9)
        if col.color_at(Point2(x, y)) != 0:
            continue
        heading = rng.uniform(0.0, 2.0 * math.pi)
        d, _ = laser_true_distance(col, Point2(x, y),
                                   beam_direction(heading, 0.0), 8.0)
        r = min(max(d + rng.normal(0.0, 0.05), 0.05), 8.0)
        lasers.append(LaserObs(x, y, heading, 0.0, r, 8.0, r >= 8.0))
    while len(sonars) < n_sonar:
        x = rng.uniform(0.1, 3.9)
        y = rng.uniform(0.1, 2.9)
        if col.color_at(Point2(x, y)) != 0:
            continue
        r = rng.uniform(0.2, 3.5)
        sonars.append(SonarObs(x, y, rng.uniform(0, 2 * math.pi), 0.0,
                               math.radians(10.0), r, 3.5, r >= 3.5))
    for _ in range(n_point):
        points.append(PointColorObs(rng.uniform(0.1, 3.9),
                                    rng.uniform(0.1, 2.9),
                                    rng.normal(0.5, 0.5), 1.0, 0.0, 0.4))
    return lasers, sonars, points


def test_cache_total_tracks_recomputation_over_chain():
    col = wall_scene()
    rng = np.random.default_rng(5)
    lasers, sonars, points = _random_observations(col, rng)
    cache = ObservationCache(col, lasers, sonars)
    point_lik = PointColorLikelihood(col, points)
    lik = CompositeLikelihood([cache, point_lik])
    samp = Sampler(col, PriorParams(intensity=0.3), MoveParams(),
                   np.random.default_rng(6), lik)

    class CachedMatchesScratch:
        """Each cached log likelihood equals its recomputation after every
        accept, so a missed touch cannot hide until the end of the chain."""
        checks = 0

        def on_accept(self, col, result):
            for i, o in enumerate(cache.obs):
                if i < cache.n_laser:
                    want = laser_log_likelihood(o, col, cache.lp)
                else:
                    want = sonar_log_likelihood(o, col, cache.sp)
                assert cache.ll[i] == pytest.approx(want, rel=1e-12), \
                    f"observation {i} stale after accept {self.checks}"
            self.checks += 1

    listener = CachedMatchesScratch()
    samp.listeners.append(listener)
    run_chain(samp, 3000)
    assert samp.stats.accepted > 100, "chain must actually move"
    assert listener.checks == samp.stats.accepted
    fresh = cache.recompute_total(col)
    assert cache.log_likelihood() == pytest.approx(
        fresh, rel=1e-9, abs=1e-9)
    direct_points = sum(
        (-0.5 * ((o.value - (o.mu_black if col.color_at(Point2(o.x, o.y))
                             else o.mu_white)) / o.sigma) ** 2)
        for o in points)
    assert point_lik.log_likelihood() == pytest.approx(direct_points,
                                                       rel=1e-9, abs=1e-9)


def test_cache_rejects_start_inside_occupied_space():
    col = wall_scene()
    bad = [LaserObs(2.1, 1.5, 0.0, 0.0, 1.0, 8.0)]
    with pytest.raises(ValueError):
        ObservationCache(col, bad, [])


def test_composite_sums_parts():
    col = wall_scene()
    rng = np.random.default_rng(8)
    lasers, sonars, points = _random_observations(col, rng, 10, 5, 5)
    cache = ObservationCache(col, lasers, sonars)
    plik = PointColorLikelihood(col, points)
    comp = CompositeLikelihood([cache, plik])
    assert comp.log_likelihood() == pytest.approx(
        cache.log_likelihood() + plik.log_likelihood(), abs=1e-12)
