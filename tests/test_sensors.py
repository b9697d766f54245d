"""Observation-model tests.

Oracles used here, written independently of the implementation:
- trapezoid quadrature of the scalar reading densities, checking that
  density mass plus the generative max-range probability is 1;
- direct ray-segment geometry for predicted laser impact distances;
- a fixed-probability stub for the exclusive-return recursion, with
  hand-computed values;
- from-scratch recomputation of cached likelihood totals after a chain
  of accepted edits;
- the scalar reference functions of ``tests/reference.py`` (the sweep of
  one cone ``visibility_sweep``, ``_sonar_eval``, ``laser_log_likelihood``,
  ``sonar_log_likelihood``, ``beam_cap``) for the batched beam and cone
  evaluation, value for value by ``float.hex``.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prfmap.sensors
from prfmap.cli import main
from prfmap.coloring import BLACK, INTERIOR, Coloring, Edit
from prfmap.config import RunConfig
from prfmap.geometry import (Point2, Rect, Segment, point_segment_distance,
                             ray_segment_intersection, unit_vector)
from prfmap.grid_index import EdgeGridIndex
from prfmap.moves import MoveParams
from prfmap.prior import PriorParams
from prfmap.sampler import Sampler, run_chain
from prfmap.sensors import (_TOUCH_EPS, CompositeLikelihood, LaserObs,
                            LaserParams, _laser_density_log_batch,
                            _LaserBeams, _SonarCones, _wedge_clip_distance,
                            ObservationCache, beam_caps, cast_beams,
                            PointColorLikelihood, PointColorObs, SonarObs,
                            SonarParams, beam_direction, laser_true_distance)
from prfmap.sim import SonarRingSpec, WorldSpec, make_world
from reference import (VisibleFeature, _clip_to_wedge, _laser_density_log, _point_at,
                       _seg_batch_min_dist, _sonar_density_log, _sonar_eval,
                       _sweep_contact_radius_points, beam_cap,
                       independent_return_probability, laser_log_likelihood,
                       ray_rect_exit, return_probabilities, sonar_cone, sonar_features,
                       sonar_log_likelihood, visibility_sweep)

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


def _prior_chain_colorings(n: int, proposals: int = 400):
    """Three rectangles, each then moved by its own prior-only chain."""
    out = []
    for seed in range(n):
        col = Coloring.from_rectangles(
            WINDOW, [Rect(2.0, 0.5, 2.2, 2.5), Rect(0.4, 0.3, 0.9, 0.8),
                     Rect(2.8, 1.9, 3.6, 2.6)], cell_size=0.3)
        samp = Sampler(col, PriorParams(intensity=3.0), MoveParams(),
                       np.random.default_rng(100 + seed))
        run_chain(samp, proposals)
        out.append(col)
    return out


def _first_hit_brute_force(col, origin, direction, cap):
    """Smallest (t, eid) over every live edge hit within cap; (cap, None)."""
    hits = []
    for eid in col.edges:
        t = ray_segment_intersection(origin, direction, col.segment_of(eid))
        if t is not None and t <= cap:
            hits.append((t, eid))
    return min(hits) if hits else (cap, None)


def _awkward_beams(col, rng):
    """Beams through shared vertices and endpoints, along and parallel to
    edges, and with the cap exactly at (or just short of) the first hit."""
    beams = []
    for eid in sorted(col.edges):
        seg = col.segment_of(eid)
        ex, ey = seg.b.x - seg.a.x, seg.b.y - seg.a.y
        length = math.hypot(ex, ey)
        ux, uy = ex / length, ey / length
        # collinear with the edge, from just behind its first endpoint
        beams.append((Point2(seg.a.x - 0.01 * ux, seg.a.y - 0.01 * uy), (ux, uy)))
        # parallel to the edge, slightly off its line
        beams.append((Point2(seg.a.x - 0.01 * ux - 0.02 * uy,
                             seg.a.y - 0.01 * uy + 0.02 * ux), (ux, uy)))
        # aimed at each endpoint; every vertex here is shared by two edges
        for v in seg:
            o = Point2(*rng.uniform((0.05, 0.05), (3.95, 2.95)))
            dx, dy = v.x - o.x, v.y - o.y
            norm = math.hypot(dx, dy)
            if norm > 1e-6:
                beams.append((o, (dx / norm, dy / norm)))
            # diagonally at it from a dyadic offset: at an axis-parallel
            # corner both edges then give bit-equal t, a tie for the id rule
            r = math.sqrt(0.5)
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                beams.append((Point2(v.x - sx * 0.125, v.y - sy * 0.125), (sx * r, sy * r)))
    return [(o, d) for o, d in beams if WINDOW.contains_strict(o)]


def test_cast_beams_matches_ray_cast_and_brute_force():
    rng = np.random.default_rng(31)
    colorings = ([Coloring.empty(WINDOW, cell_size=0.3)]
                 + _prior_chain_colorings(1, proposals=0) + _prior_chain_colorings(6))
    assert max(c.n_edges for c in colorings) >= 20
    cases = {"tie": 0, "cap_hit": 0, "cap_short": 0, "miss": 0}
    for col in colorings:
        index = EdgeGridIndex(col.grid)
        for eid in col.edges:
            index.add(eid, col.segment_of(eid))
        beams = _awkward_beams(col, rng)
        for _ in range(200):
            o = Point2(*rng.uniform((0.05, 0.05), (3.95, 2.95)))
            beams.append((o, unit_vector(rng.uniform(-math.pi, math.pi))))
        origins, dirs, caps = [], [], []
        for k, (o, d) in enumerate(beams):
            cap = beam_cap(col, o, d, 0.5 + 8.0 * rng.random())
            t, eid = _first_hit_brute_force(col, o, d, cap)
            if eid is not None and k % 3 == 1:     # cap exactly at the hit
                cap = t
                cases["cap_hit"] += 1
            elif eid is not None and k % 3 == 2:   # cap just short of it
                cap = float(np.nextafter(t, 0.0))
                cases["cap_short"] += 1
            origins.append(o)
            dirs.append(d)
            caps.append(cap)
        got_t, got_eid = cast_beams(col, [o.x for o in origins], [o.y for o in origins],
                                    [d[0] for d in dirs], [d[1] for d in dirs], caps)
        for k, (o, d, cap) in enumerate(zip(origins, dirs, caps)):
            want = _first_hit_brute_force(col, o, d, cap)
            hit = index.ray_cast(o, d, cap, col.segment_of)
            assert (hit if hit is not None else (cap, None)) == want
            assert (float(got_t[k]), None if got_eid[k] < 0 else int(got_eid[k])) == want
            assert laser_true_distance(col, o, d, cap) == want
            cases["miss"] += want[1] is None
            ties = [e for e in col.edges if ray_segment_intersection(
                o, d, col.segment_of(e)) == want[0]]
            cases["tie"] += want[1] is not None and len(ties) > 1
    assert all(n >= 20 for n in cases.values()), cases


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_batched_beam_caps_match_the_scalar_bit_for_bit(corridor_log):
    lasers = corridor_log.lasers
    assert len(lasers) == 5_400
    col = Coloring.empty(corridor_log.window)
    beams = _LaserBeams(lasers, col, LaserParams())
    dirs = [beam_direction(o.heading, o.bearing) for o in lasers]
    assert _hexes(beams.dirx) == _hexes(d[0] for d in dirs)
    assert _hexes(beams.diry) == _hexes(d[1] for d in dirs)
    assert _hexes(beams.cap) == _hexes(beam_cap(col, Point2(o.x, o.y), d, o.max_range)
                                       for o, d in zip(lasers, dirs))
    # Exact axis directions (dx or dy zero, either sign), sensors on the
    # window edge (a zero exit, whose sign Python's max keeps), and caps at
    # or below the window exit.
    cases = [((1.0, 1.0), (0.0, 1.0), 8.0), ((1.0, 1.0), (-1.0, 0.0), 8.0),
             ((1.0, 1.0), (0.0, -1.0), 8.0), ((1.0, 1.0), (1.0, -0.0), 8.0),
             ((1.0, 1.0), (-0.0, 1.0), 8.0), ((0.0, 1.0), (-0.6, 0.8), 8.0),
             ((0.0, 1.0), (-1.0, 0.0), 8.0), ((4.0, 1.0), (1.0, 0.0), 8.0),
             ((4.0, 1.0), (0.6, 0.8), 8.0), ((2.0, 3.0), (0.6, 0.8), 8.0),
             ((2.0, 0.0), (0.0, -1.0), 8.0), ((0.0, 1.0), (0.6, 0.8), 8.0),
             ((1.0, 1.0), (0.6, 0.8), 0.5), ((1.0, 1.0), (1.0, 0.0), 3.0),
             ((1.0, 1.0), (1.0, 0.0), 2.5), ((0.0, 1.0), (-0.6, 0.8), 0.0)]
    sx, sy, dx, dy, max_range = (np.array(v) for v in zip(*(
        (*p, *d, m) for p, d, m in cases)))
    got = beam_caps(WINDOW, sx, sy, dx, dy, max_range)
    empty = Coloring.empty(WINDOW)
    want = [beam_cap(empty, Point2(*p), d, m) for p, d, m in cases]
    assert _hexes(got) == _hexes(want)
    assert _hexes(want[5:7]) == ["-0x0.0p+0"] * 2 and want[7] == 0.0
    assert want[12:15] == [0.5, 3.0, 2.5]


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


def test_laser_density_underflow_is_zero_likelihood():
    # with no uniform term, a reading far from the prediction has a
    # Gaussian density that underflows to exactly zero
    p = LaserParams(w_gauss=0.9, w_uniform=0.0, w_maxrange=0.1)
    assert _laser_density_log(0.79, False, 3.0, 8.0, p) == -math.inf
    assert _laser_density_log(0.79, True, 3.0, 8.0, p) == pytest.approx(math.log(0.1))
    assert math.isfinite(_laser_density_log(3.0, False, 3.0, 8.0, p))


def test_batched_laser_density_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 5_000
    checked = {"floor": 0, "flagged": 0, "at_cap": 0, "zero": 0}
    for p in (LaserParams(), LaserParams(w_gauss=0.9, w_uniform=0.0, w_maxrange=0.1)):
        max_range = rng.choice([4.0, 8.0], n)
        d_star = rng.uniform(0.0, 1.0, n) * max_range
        d_star[:n // 5] = rng.uniform(0.001, 0.9, n // 5)   # sigma on its floor
        d_star[-n // 10:] = max_range[-n // 10:]            # beam reached its cap
        # most readings within a few sigma, where the Gaussian term dominates
        # and a last-bit difference in exp would show; some anywhere
        r = d_star + rng.normal(0.0, 3.0, n) * np.maximum(0.01 * d_star, 0.01)
        anywhere = rng.random(n) < 0.2
        r[anywhere] = rng.uniform(0.0, 1.0, anywhere.sum()) * max_range[anywhere]
        r = np.clip(r, 1e-3, max_range)
        flagged = (r == max_range) | (rng.random(n) < 0.1)
        got = _laser_density_log_batch(r, flagged, d_star, max_range, p)
        want = np.array([_laser_density_log(*args, p) for args in zip(
            r.tolist(), flagged.tolist(), d_star.tolist(), max_range.tolist())])
        assert got.tobytes() == want.tobytes()
        checked["floor"] += int((0.01 * d_star < 0.01).sum())
        checked["flagged"] += int(flagged.sum())
        checked["at_cap"] += int((d_star == max_range).sum())
        checked["zero"] += int((want == -math.inf).sum())
    assert all(v >= 100 for v in checked.values()), checked


def test_sample_with_underflowing_laser_names_the_observation(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.delenv("PRFMAP_CONFIG", raising=False)
    log = tmp_path / "beam.log"
    log.write_text("# scanlog v1\n# window 0.0 0.0 8.0 6.0\n# laser_max_range 8.0\n"
                   "LASER 0.0 1.2 3.0 0.0 -1.5707963267948966 0.79 0\n")
    code = main(["sample", "--log", str(log), "--out", str(tmp_path / "out"),
                 "--laser-w-uniform", "0", "--laser-w-maxrange", "0.1",
                 "--proposals", "10"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: observation 0 starts with zero likelihood")


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
    """Stands in for the logistic return model with preset per-feature
    probabilities."""

    def __init__(self, by_depth):
        self.by_depth = dict(by_depth)

    def __call__(self, params, f):
        return self.by_depth[f.depth]


def _feature(depth, kind="face"):
    a = Point2(depth, -0.1)
    b = Point2(depth, 0.1)
    return VisibleFeature(kind, 1, a, b, depth, math.pi / 2.0, 0.05, -0.05,
                          0.05)


def test_return_probabilities_hand_case():
    feats = [_feature(1.0), _feature(2.0)]
    trips = return_probabilities(feats, None, _FixedQ({1.0: 0.5, 2.0: 0.8}))
    assert [q for _, q, _ in trips] == [0.5, 0.8]
    assert trips[0][2] == pytest.approx(0.5)
    assert trips[1][2] == pytest.approx(0.4)  # 0.8 * (1 - 0.5)


def test_return_probabilities_saturate_at_one():
    feats = [_feature(1.0), _feature(2.0), _feature(3.0)]
    trips = return_probabilities(feats, None,
                                 _FixedQ({1.0: 0.5, 2.0: 0.8, 3.0: 1.0}))
    assert sum(r for _, _, r in trips) == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0,
                max_size=8))
def test_return_probabilities_total(qs):
    feats = [_feature(float(i + 1)) for i in range(len(qs))]
    trips = return_probabilities(feats, None,
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
    q = independent_return_probability(p, f)
    assert q == pytest.approx(0.95, abs=0.005)


def test_face_sixty_degree_tilt_is_coin_flip():
    p = SonarParams()
    f = VisibleFeature("face", 1, Point2(1, 0), Point2(1, 0.1), 1.0,
                       math.pi / 2.0 - math.radians(60.0),
                       math.radians(10.0), -0.05, 0.05)
    q = independent_return_probability(p, f)
    assert q == pytest.approx(0.5, abs=0.005)


def test_corner_at_one_meter_is_coin_flip():
    p = SonarParams()
    f = VisibleFeature("corner", 1, Point2(1, 0), Point2(1, 0), 1.0, 0.0,
                       0.0, 0.0, 0.0)
    assert independent_return_probability(p, f) == pytest.approx(0.5,
                                                                abs=1e-12)
    far = VisibleFeature("corner", 1, Point2(3, 0), Point2(3, 0), 3.0, 0.0,
                         0.0, 0.0, 0.0)
    assert independent_return_probability(p, far) < 0.2


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
            beams, cones = cache.parts
            for i, o in enumerate(lasers):
                assert beams.ll[i] == laser_log_likelihood(o, col, beams.p), \
                    f"observation {i} stale after accept {self.checks}"
            for i, o in enumerate(sonars):
                want = sonar_log_likelihood(o, col, cones.p)
                assert cones.ll[i] == pytest.approx(want, rel=1e-12), \
                    f"observation {len(lasers) + i} stale after accept {self.checks}"
            # the flipped-sensor early exit rests on this: no accepted
            # state ever puts a sensor in occupied space
            assert not col.colors_at(cache.sx, cache.sy).any(), \
                f"a sensor is black after accept {self.checks}"
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


def test_edit_flipping_a_sensor_is_rejected_before_any_evaluation(monkeypatch):
    col = wall_scene()
    lasers = [LaserObs(1.1, 1.3, 0.0, 0.0, 0.9, 8.0),   # inside the new triangle
              LaserObs(0.5, 1.5, 0.0, 0.0, 1.5, 8.0)]   # its beam crosses it
    sonars = [SonarObs(0.3, 1.5, 0.0, 0.0, math.radians(10.0), 1.7, 3.5)]
    cache = ObservationCache(col, lasers, sonars)
    before = cache.log_likelihood()
    edit = Edit(new_vertices=((-1, 0.8, 1.0, INTERIOR), (-2, 1.4, 1.0, INTERIOR),
                              (-3, 1.1, 2.0, INTERIOR)),
                added_edges=((-1, -2), (-2, -3), (-3, -1)))
    assert col.edit_is_valid(edit)
    result = col.apply_edit(edit)
    assert col.color_at(Point2(1.1, 1.3)) == BLACK
    # the edit also reaches the other beam and the cone
    beams, cones = cache.parts
    assert _touched(beams, result.delta_segments) == [0, 1]
    assert _touched(cones, result.delta_segments) == [0]

    calls = []
    cast, sweep = EdgeGridIndex.ray_cast, prfmap.sensors.visibility_sweep
    batch = prfmap.sensors.cast_beams
    monkeypatch.setattr(EdgeGridIndex, "ray_cast",
                        lambda *a: calls.append("ray_cast") or cast(*a))
    monkeypatch.setattr(prfmap.sensors, "cast_beams",
                        lambda *a: calls.append("cast_beams") or batch(*a))
    monkeypatch.setattr(prfmap.sensors, "visibility_sweep",
                        lambda *a: calls.append("sweep") or sweep(*a))
    assert cache.delta_for_edit(col, result) == -math.inf
    assert calls == []
    cache.rollback()
    col.revert(result.token)
    assert cache.log_likelihood() == before
    assert cache.recompute_total(col) == pytest.approx(before, rel=1e-12)


def _touched(part, segs) -> list[int]:
    """The observations of a cache part that the segments touch."""
    return part.touched(*np.array(segs, dtype=np.float64).reshape(-1, 4).T).tolist()


def _touched_beams_unfiltered(beams, segs) -> list[int]:
    """Every beam within _TOUCH_EPS of a segment, by one exact pass over all."""
    hit = np.zeros(len(beams.ll), dtype=bool)
    for seg in segs:
        hit |= _seg_batch_min_dist(beams.sx, beams.sy, beams.impact_x, beams.impact_y,
                                   seg) <= _TOUCH_EPS
    return np.flatnonzero(hit).tolist()


def test_box_prefilter_keeps_exactly_the_touched_beams():
    col = wall_scene()
    rng = np.random.default_rng(9)
    lasers, _, _ = _random_observations(col, rng, n_laser=60, n_sonar=0, n_point=0)
    # axis-parallel beams, whose [sensor, impact] box has zero width
    for x, y, heading in ((0.5, 1.5, 0.0), (1.0, 0.2, math.pi / 2), (3.0, 2.0, math.pi),
                          (3.5, 0.25, -math.pi / 2), (0.25, 2.75, 0.0)):
        d, _ = laser_true_distance(col, Point2(x, y), beam_direction(heading, 0.0), 8.0)
        lasers.append(LaserObs(x, y, heading, 0.0, d, 8.0))
    cache = ObservationCache(col, lasers, [])
    beams, = cache.parts
    checked = {"edits": 0, "touched": 0}

    class Checked:
        """Passes each proposed edit through after comparing both passes."""
        def log_likelihood(self):
            return cache.log_likelihood()

        def delta_for_edit(self, col, result):
            got = _touched(beams, result.delta_segments)
            assert got == _touched_beams_unfiltered(beams, result.delta_segments)
            checked["edits"] += 1
            checked["touched"] += len(got)
            return cache.delta_for_edit(col, result)

        def commit(self):
            cache.commit()

        def rollback(self):
            cache.rollback()

    samp = Sampler(col, PriorParams(intensity=0.3), MoveParams(),
                   np.random.default_rng(10), Checked())
    run_chain(samp, 1500)
    assert checked["edits"] > 300 and checked["touched"] > 1000, checked
    # segments about _TOUCH_EPS from a beam: beside it, past its sensor, past
    # its impact and across its line, for an axis-parallel beam and a slanted one
    segs = []
    for i in (len(lasers) - 5, len(lasers) - 4, 0):
        sx, sy = float(beams.sx[i]), float(beams.sy[i])
        ix, iy = float(beams.impact_x[i]), float(beams.impact_y[i])
        ux, uy = float(beams.dirx[i]), float(beams.diry[i])
        mx, my = 0.5 * (sx + ix), 0.5 * (sy + iy)
        for gap in (0.5 * _TOUCH_EPS, _TOUCH_EPS, np.nextafter(_TOUCH_EPS, 1.0),
                    2.0 * _TOUCH_EPS, 3.0 * _TOUCH_EPS):
            for px, py, vx, vy in ((mx - gap * uy, my + gap * ux, ux, uy),
                                   (mx + gap * uy, my - gap * ux, ux, uy),
                                   (sx - gap * ux, sy - gap * uy, -uy, ux),
                                   (ix + gap * ux, iy + gap * uy, -uy, ux)):
                segs.append(Segment(Point2(px, py), Point2(px + 0.3 * vx, py + 0.3 * vy)))
                segs.append(Segment(Point2(px - 0.3 * vx, py - 0.3 * vy), Point2(px, py)))
    touched = 0
    for seg in segs:
        got = _touched(beams, [seg])
        assert got == _touched_beams_unfiltered(beams, [seg]), seg
        touched += bool(got)
    assert 0 < touched < len(segs)
    # segments that meet a beam exactly: zero length on its line, collinear
    # with it and overlapping it, and ending exactly at its impact point
    exact = []
    for i in range(0, len(lasers), 3):
        sx, sy = float(beams.sx[i]), float(beams.sy[i])
        ix, iy = float(beams.impact_x[i]), float(beams.impact_y[i])
        mx, my = 0.5 * (sx + ix), 0.5 * (sy + iy)
        qx, qy = sx + 0.75 * (ix - sx), sy + 0.75 * (iy - sy)
        exact += [Segment(Point2(sx, sy), Point2(sx, sy)),
                  Segment(Point2(ix, iy), Point2(ix, iy)),
                  Segment(Point2(mx, my), Point2(mx, my)),
                  Segment(Point2(mx, my), Point2(2.0 * ix - qx, 2.0 * iy - qy)),
                  Segment(Point2(ix + 0.2, iy - 0.3), Point2(ix, iy)),
                  Segment(Point2(ix, iy), Point2(ix - 0.1, iy + 0.4))]
    for seg in exact:
        got = _touched(beams, [seg])
        assert got == _touched_beams_unfiltered(beams, [seg]), seg
        assert got, seg
    # several segments in one call: the one pass equals the union of the
    # per-segment references
    rng = np.random.default_rng(11)
    every = segs + exact
    for k in range(200):
        group = [every[j] for j in rng.choice(len(every), size=1 + k % 6, replace=False)]
        assert _touched(beams, group) == _touched_beams_unfiltered(beams, group), group
    assert _touched(beams, every) == _touched_beams_unfiltered(beams, every)


def _touched_cones_unfiltered(cones, segs) -> list[int]:
    """Every cone a segment touches, by one wedge pass per segment over all."""
    hit = np.zeros(len(cones.ll), dtype=bool)
    for seg in segs:
        hit |= _wedge_clip_distance(cones.sx, cones.sy, cones.ulox, cones.uloy,
                                    cones.uhix, cones.uhiy, seg) \
            <= cones.trunc_radius + _TOUCH_EPS
    return np.flatnonzero(hit).tolist()


def test_box_prefilter_keeps_exactly_the_touched_cones():
    col = wall_scene()
    rng = np.random.default_rng(19)
    lasers, sonars, _ = _random_observations(col, rng, n_laser=30, n_sonar=40, n_point=0)
    # short cones, whose boxes leave out most of the window
    while len(sonars) < 80:
        x, y = rng.uniform(0.1, 3.9), rng.uniform(0.1, 2.9)
        if col.color_at(Point2(x, y)) == 0:
            r = rng.uniform(0.2, 1.0)
            sonars.append(SonarObs(x, y, rng.uniform(0, 2 * math.pi), 0.0,
                                   math.radians(15.0), r, 1.0, r >= 1.0))
    # cones along the axes, whose boxes are as tight as a box gets around them;
    # the last one sees the wall square on
    sonars += [SonarObs(1.0, 1.5, h, 0.0, math.radians(15.0), 0.6, 1.0)
               for h in (0.0, math.pi / 2, math.pi, -math.pi / 2)]
    sonars.append(SonarObs(1.5, 1.5, 0.0, 0.0, math.radians(15.0), 0.5, 1.0))
    cache = ObservationCache(col, lasers, sonars)
    beams, cones = cache.parts

    def filtered(segs):
        return _touched(beams, segs), _touched(cones, segs)

    def unfiltered(segs):
        return _touched_beams_unfiltered(beams, segs), _touched_cones_unfiltered(cones, segs)

    checked = {"edits": 0, "cones": 0}

    class Checked:
        """Passes each proposed edit through after comparing both passes."""
        def log_likelihood(self):
            return cache.log_likelihood()

        def delta_for_edit(self, col, result):
            got_beams, got_cones = filtered(result.delta_segments)
            assert (got_beams, got_cones) == unfiltered(result.delta_segments)
            checked["edits"] += 1
            checked["cones"] += len(got_cones)
            delta = cache.delta_for_edit(col, result)
            if not col.colors_at(cache.sx, cache.sy).any():
                # the delta is the scalar likelihoods' changes added left to
                # right in increasing index, bit for bit
                want = 0.0
                for i in got_beams:
                    want += laser_log_likelihood(lasers[i], col, beams.p) - beams.ll[i]
                for i in got_cones:
                    want += sonar_log_likelihood(sonars[i], col, cones.p) - cones.ll[i]
                assert delta == want
            return delta

        def commit(self):
            cache.commit()

        def rollback(self):
            cache.rollback()

    samp = Sampler(col, PriorParams(intensity=0.3), MoveParams(),
                   np.random.default_rng(20), Checked())
    run_chain(samp, 1000)
    assert samp.stats.accepted > 20 and checked["cones"] > 500, checked
    # segments across each cone's axis about its truncated radius plus
    # _TOUCH_EPS from the apex, the limit of the touch test
    segs = []
    n = len(sonars)
    for i in [*range(0, n, 7), *range(n - 5, n)]:
        ax, ay = float(cones.sx[i]), float(cones.sy[i])
        hx, hy = float(cones.ulox[i] + cones.uhix[i]), float(cones.uloy[i] + cones.uhiy[i])
        ux, uy = hx / math.hypot(hx, hy), hy / math.hypot(hx, hy)
        for gap in (-_TOUCH_EPS, 0.5 * _TOUCH_EPS, _TOUCH_EPS, 2.0 * _TOUCH_EPS,
                    3.0 * _TOUCH_EPS):
            reach = float(cones.trunc_radius[i]) + gap
            px, py = ax + reach * ux, ay + reach * uy
            segs.append(Segment(Point2(px - 0.01 * uy, py + 0.01 * ux),
                                Point2(px + 0.01 * uy, py - 0.01 * ux)))
    touched = 0
    for seg in segs:
        got = filtered([seg])
        assert got == unfiltered([seg]), seg
        touched += bool(got[1])
    assert 0 < touched < len(segs)
    for k in range(0, len(segs), 4):
        assert filtered(segs[k:k + 4]) == unfiltered(segs[k:k + 4])


def test_zero_likelihood_start_names_the_lowest_observation():
    col = wall_scene()
    p = LaserParams(w_gauss=0.9, w_uniform=0.0, w_maxrange=0.1)
    fits = LaserObs(0.5, 1.5, 0.0, 0.0, 1.5, 8.0)       # reads the wall
    short = LaserObs(0.5, 1.5, 0.0, 0.0, 0.79, 8.0)     # Gaussian underflows
    sonar = SonarObs(0.3, 1.5, 0.0, 0.0, math.radians(10.0), 1.7, 3.5)
    assert _laser_density_log(0.79, False, 1.5, 8.0, p) == -math.inf
    with pytest.raises(ValueError, match="^observation 2 starts with zero likelihood$"):
        ObservationCache(col, [fits, fits, short, fits, short], [sonar, sonar], p)
    # a cone facing away from the wall sees nothing, and with all outlier
    # weight on max range its short reading has density zero; the message
    # numbers it after the lasers
    sp = SonarParams(w_uniform=0.0, w_exponential=0.0, w_maxrange=1.0)
    blind = SonarObs(0.3, 1.5, math.pi, 0.0, math.radians(10.0), 1.0, 3.5)
    assert _sonar_eval(sonar, col, sp)[0] > -math.inf
    assert _sonar_eval(blind, col, sp)[0] == -math.inf
    with pytest.raises(ValueError, match="^observation 3 starts with zero likelihood$"):
        ObservationCache(col, [fits, fits], [sonar, blind, sonar, blind], sonar_params=sp)


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


# ---------------------------------------------------------------------------
# sonar candidate edges: the bounding-box rule loses nothing


def _random_cones(w: Rect, rng, n: int) -> list[SonarObs]:
    """Cones of every half-angle in the window, some with their apex near its
    edge, some with the arc across an axis direction, most leaving it."""
    cones = []
    for k in range(n):
        if k % 3 == 0:    # apex within 0.05 of the window edge
            x = rng.choice([rng.uniform(w.xmin, w.xmin + 0.05),
                            rng.uniform(w.xmax - 0.05, w.xmax)])
            y = rng.uniform(w.ymin, w.ymax)
        else:
            x, y = rng.uniform(w.xmin, w.xmax), rng.uniform(w.ymin, w.ymax)
        half = rng.uniform(0.05, 1.5)
        if k % 2:         # the arc straddles an axis direction
            heading = rng.integers(4) * math.pi / 2 + rng.uniform(-half, half)
        else:
            heading = rng.uniform(-math.pi, math.pi)
        # up to 6 m: most cones leave the 4 x 3 window
        max_range = rng.uniform(0.3, 6.0)
        cones.append(SonarObs(x, y, heading, 0.0, half, max_range, max_range, True))
    return cones


def test_sonar_features_match_a_sweep_over_every_live_edge():
    rng = np.random.default_rng(21)
    p = SonarParams()
    checked = 0
    for col in _prior_chain_colorings(4):
        every_edge = [(eid, col.segment_of(eid)) for eid in sorted(col.edges)]
        for o in _random_cones(col.window, rng, 60):
            want = return_probabilities(visibility_sweep(every_edge, sonar_cone(o)), p)
            assert sonar_features(o, col, p) == want
            checked += bool(want)
    assert checked > 100, "most cones must see something"


def test_one_cone_sonar_features_match_the_scalar_bit_for_bit(rooms_log):
    # The package's sonar_features, one cone through the batched sweep, gives
    # the scalar features of each ping in the same order, with the same
    # coordinates and exclusive return probabilities.
    cfg = RunConfig()
    col = make_world(WorldSpec("rooms"), cell_size=cfg.index_cell_size)
    sp = cfg.sonar_params()
    seen = 0
    for o in rooms_log.sonars:
        f, r = prfmap.sensors.sonar_features(o, col, sp)
        want = sonar_features(o, col, sp)
        assert (f.c == 0).all()
        assert f.kind.tolist() == [int(w.kind == "corner") for w, _, _ in want]
        assert [_hexes(v) for v in (f.depth, f.proj, f.subt, f.alo, f.ahi, r)] == [
            _hexes(getattr(w, k) for w, _, _ in want)
            for k in ("depth", "projection_angle", "subtended_angle", "angle_lo", "angle_hi")
        ] + [_hexes(rf for _, _, rf in want)]
        seen += bool(want)
    assert seen > 1_500


# ---------------------------------------------------------------------------
# batched cone evaluation vs the scalar sweep, bit for bit


def _hex_pairs(ll, ext) -> list[tuple[str, str]]:
    return [(float(a).hex(), float(b).hex()) for a, b in zip(ll, ext)]


def _batch_eval(sonars, edges, p):
    """The batched ``(ll, ext)`` of each cone against ``(id, Segment)`` edges.

    The edges need not form a valid coloring, so a stand-in for the
    coloring's edge table serves them.
    """
    edges = sorted(edges)
    eids = np.array([e for e, _ in edges], dtype=np.int64)
    ends = np.array([s for _, s in edges], dtype=np.float64).reshape(-1, 4).T
    table = SimpleNamespace(live_edges=lambda: (eids, *ends))
    return _SonarCones(sonars, p).evaluate(np.arange(len(sonars)), table)


def _sweep_eval(o, edges, p):
    """The scalar ``(ll, ext)`` of one cone: :func:`visibility_sweep` over
    every edge, then the scalar density and contact radius."""
    triples = return_probabilities(visibility_sweep(sorted(edges), sonar_cone(o)), p)
    return (_sonar_density_log(o.range, o.is_max_range, triples, o.max_range, p),
            _sweep_contact_radius_points(triples, o))


def test_batched_cones_match_the_sweep_on_the_rooms_walls(rooms_log):
    cfg = RunConfig()
    col = make_world(WorldSpec("rooms"), cell_size=cfg.index_cell_size)
    sp = cfg.sonar_params()
    cones, = ObservationCache(col, [], rooms_log.sonars, sonar_params=sp).parts
    want = [_sonar_eval(o, col, sp) for o in rooms_log.sonars]
    assert _hex_pairs(cones.ll, cones.trunc_radius) == _hex_pairs(*zip(*want))
    # most cones see a wall, and many see it whole across their arc
    assert sum(e < o.max_range for (_, e), o in zip(want, rooms_log.sonars)) > 1_000


def test_batched_cones_match_the_sweep_on_random_cones(monkeypatch):
    rng = np.random.default_rng(21)
    p = SonarParams()
    for col in _prior_chain_colorings(4):
        cones = _random_cones(col.window, rng, 60)
        # the same cones turned along the axes, where a last-bit change of
        # an atan2 is not absorbed by adding the heading
        cones += [dataclasses.replace(o, heading=(0.0, math.pi / 2, math.pi)[k % 3])
                  for k, o in enumerate(cones)]
        want = [_sonar_eval(o, col, p) for o in cones]
        got = _SonarCones(cones, p).evaluate(np.arange(len(cones)), col)
        assert _hex_pairs(*got) == _hex_pairs(*zip(*want))
        # a subset in any order of increasing indices gives the same values
        some = np.flatnonzero(rng.random(len(cones)) < 0.3)
        sub = _SonarCones(cones, p).evaluate(some, col)
        assert _hex_pairs(*sub) == [_hex_pairs(*got)[i] for i in some]
        # and so do many small blocks of cones
        with monkeypatch.context() as m:
            m.setattr(prfmap.sensors, "_CAST_BLOCK", 48)
            small = _SonarCones(cones, p).evaluate(np.arange(len(cones)), col)
        assert _hex_pairs(*small) == _hex_pairs(*got)


def _degenerate_scenes():
    """(name, cones, edges) scenes on the sweep's tie and boundary rules."""
    P, S = Point2, Segment
    up = math.pi / 2
    h = math.radians(20.0)
    scenes = []
    # a straight wall split at shared vertices, one vertex dead ahead
    wall = [(3, S(P(1.0, 2.0), P(2.0, 2.0))), (1, S(P(2.0, 2.0), P(3.0, 2.0))),
            (8, S(P(3.0, 2.0), P(3.5, 2.0)))]
    scenes.append(("collinear edges sharing endpoints",
                   [SonarObs(2.0, 0.5, up, 0.0, h, 1.5, 3.5),
                    SonarObs(2.5, 0.5, up, 0.3, h, 1.6, 3.5),
                    SonarObs(3.0, 1.0, up, 0.0, 0.5, 1.0, 3.5)], wall))
    # two equal-length collinear edges overlapping on x in [2, 2.5]: a ray
    # there meets both at the same t, and the smaller id wins
    scenes.append(("overlapping collinear edges",
                   [SonarObs(2.1, 0.5, up, 0.0, 0.6, 1.5, 3.5),
                    SonarObs(2.4, 1.0, up, 0.0, 1.2, 1.0, 3.5, True)],
                   [(7, S(P(1.0, 2.0), P(2.5, 2.0))), (5, S(P(2.0, 2.0), P(3.5, 2.0)))]))
    # edges along the wedge's boundary rays
    apex, head = P(0.5, 0.7), 0.4
    lo, hi = unit_vector(head - h), unit_vector(head + h)
    scenes.append(("edges on the wedge boundary rays",
                   [SonarObs(apex.x, apex.y, head, 0.0, h, 1.2, 3.5)],
                   [(2, S(P(apex.x + 0.5 * lo[0], apex.y + 0.5 * lo[1]),
                          P(apex.x + 2.0 * lo[0], apex.y + 2.0 * lo[1]))),
                    (4, S(P(apex.x + 1.0 * hi[0], apex.y + 1.0 * hi[1]),
                          P(apex.x + 3.0 * hi[0], apex.y + 3.0 * hi[1]))),
                    (6, S(P(apex.x + 2.0 * lo[0], apex.y + 2.0 * lo[1]),
                          P(apex.x + 3.0 * hi[0], apex.y + 3.0 * hi[1])))]))
    # a corner exactly at max range on the axis: 0.9 - 0.2 == 0.7 rounds to
    # the range, while 0.2 + 0.7 rounds below 0.9, so the sector's box must
    # be widened to hold the corner
    scenes.append(("corner at exactly max range",
                   [SonarObs(0.2, 0.5, 0.0, 0.0, h, 0.69, 0.7)],
                   [(0, S(P(0.9, 0.5), P(1.2, 0.8)))]))
    # an occluder whose end (1, 0.25) lies on the sight line to a far vertex
    # (2, 0.5), and one ending on the wedge's upper ray
    scenes.append(("occluder ending on an event angle",
                   [SonarObs(0.0, 0.0, 0.0, 0.0, 0.4, 1.9, 3.5),
                    SonarObs(0.0, 0.0, 0.2, 0.0, 0.2, 1.0, 3.5)],
                   [(0, S(P(1.0, -0.1), P(1.0, 0.25))), (1, S(P(2.0, -0.9), P(2.0, 0.5))),
                    (2, S(P(2.0, 0.5), P(2.5, 1.2))),
                    (3, S(P(0.8, 0.3), P(0.8 * math.cos(0.4), 0.8 * math.sin(0.4))))]))
    # a cone whose only candidate is in its box but outside its wedge, and
    # one with no candidate
    scenes.append(("candidate outside the wedge, no candidate",
                   [SonarObs(0.0, 0.0, 0.0, 0.0, h, 2.0, 3.5),
                    SonarObs(5.0, 5.0, 0.0, 0.0, h, 3.5, 3.5, True)],
                   [(0, S(P(0.3, 0.9 * 3.5 * math.sin(h)), P(0.4, 1.15)))]))
    # a saw-tooth wall: one cone sees dozens of faces and corners
    ys = np.linspace(-0.9, 0.9, 19)
    teeth = [(k, S(P(2.0 + 0.1 * (k % 2), ys[k]), P(2.1 - 0.1 * (k % 2), ys[k + 1])))
             for k in range(18)]
    scenes.append(("many features", [SonarObs(0.0, 0.0, 0.0, 0.0, 0.5, 2.02, 3.5)],
                   teeth))
    return scenes


@pytest.mark.parametrize("name, cones, edges", _degenerate_scenes(),
                         ids=[s[0] for s in _degenerate_scenes()])
def test_batched_cones_match_the_sweep_on_degenerate_scenes(name, cones, edges):
    p = SonarParams()
    want = [_sweep_eval(o, edges, p) for o in cones]
    assert _hex_pairs(*_batch_eval(cones, edges, p)) == _hex_pairs(*zip(*want))
    # the scenes are not vacuous
    feats = [visibility_sweep(sorted(edges), sonar_cone(o)) for o in cones]
    if name == "overlapping collinear edges":
        assert {f.source_id for f in feats[0] if f.kind == "face"} == {5, 7}
    elif name == "corner at exactly max range":
        assert [(f.kind, f.depth) for f in feats[0]][-1] == ("corner", 0.7)
    elif name == "candidate outside the wedge, no candidate":
        assert feats == [[], []]
    elif name == "many features":
        assert len(feats[0]) > 30
    else:
        assert all(feats)


def test_fresh_cache_total_equals_recomputation(rooms_log):
    cfg = RunConfig()
    rooms = make_world(WorldSpec("rooms"), cell_size=cfg.index_cell_size)
    col = wall_scene()
    lasers, sonars, _ = _random_observations(col, np.random.default_rng(23),
                                             n_laser=300, n_sonar=100, n_point=0)
    # a log builds only the parts of the families it has
    for c, beams, cones, parts in ((col, lasers, [], [_LaserBeams]),
                                   (rooms, [], rooms_log.sonars, [_SonarCones]),
                                   (col, lasers, sonars, [_LaserBeams, _SonarCones])):
        cache = ObservationCache(c, beams, cones)
        assert [type(part) for part in cache.parts] == parts
        assert cache.log_likelihood() == cache.recompute_total(c)
