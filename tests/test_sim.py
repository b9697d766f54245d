"""Tests for synthetic worlds, scan simulation, and map-quality metrics.

The simulator goodness-of-fit tests check that generated readings follow
the same mixtures the likelihoods evaluate, using closed-form mixture
CDFs (Gaussian via erf, uniform, truncated exponential) as the oracle.
"""

import hashlib
import math

import numpy as np
import pytest

from prfmap.cli import main
from prfmap.coloring import BLACK, WHITE, Coloring
from prfmap.geometry import GridSpec, Point2, Rect
from prfmap.sensors import LaserParams, SonarObs, SonarParams, sonar_features
from prfmap.sim import (
    LaserScanSpec,
    SonarRingSpec,
    TrajectorySpec,
    WorldSpec,
    cell_centers,
    classification_accuracy,
    make_world,
    near_edge_mask,
    rooms_trajectory,
    simulate_laser_beam,
    simulate_laser_scan,
    simulate_point_grid,
    simulate_sonar_ping,
    simulate_trajectory,
    truth_raster,
    world_trajectories,
)


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def wall_scene() -> Coloring:
    return Coloring.from_rectangles(Rect(0.0, 0.0, 4.0, 3.0),
                                    [Rect(2.0, 0.5, 2.2, 2.5)], cell_size=0.5)


# ---------------------------------------------------------------------------
# worlds


def test_all_named_worlds_build_and_validate():
    for name in ("corridor", "rooms", "two_region"):
        col = make_world(WorldSpec(name))
        col.validate()
        assert len(col.edges) > 0


def test_unknown_world_rejected():
    with pytest.raises(ValueError, match="unknown world"):
        WorldSpec("maze")


def test_corridor_colors():
    col = make_world(WorldSpec("corridor"))
    assert col.color_at(Point2(1.0, 2.1)) == BLACK     # inside south wall
    assert col.color_at(Point2(4.0, 3.0)) == WHITE     # corridor interior
    assert col.color_at(Point2(4.0, 1.0)) == WHITE     # outside the corridor


def test_rooms_colors():
    col = make_world(WorldSpec("rooms"))
    assert col.color_at(Point2(1.0, 2.8)) == BLACK     # hallway south wall
    assert col.color_at(Point2(1.8, 0.9)) == BLACK     # pillar
    assert col.color_at(Point2(5.0, 3.5)) == WHITE     # hallway


def test_two_region_colors():
    col = make_world(WorldSpec("two_region"))
    assert col.color_at(Point2(0.25, 0.5)) == BLACK
    assert col.color_at(Point2(0.75, 0.5)) == WHITE


def test_world_trajectories_stay_in_free_space():
    for name in ("corridor", "rooms"):
        col = make_world(WorldSpec(name))
        for traj in world_trajectories(name):
            for x, y, _ in traj.poses():
                assert col.color_at(Point2(x, y)) == WHITE, (name, x, y)


# ---------------------------------------------------------------------------
# trajectories and scan patterns


def test_trajectory_spacing_along_single_leg():
    poses = TrajectorySpec(((0.0, 0.0), (1.0, 0.0)), 0.25).poses()
    xs = [p[0] for p in poses]
    assert np.allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(p[2] == 0.0 for p in poses)


def test_trajectory_carries_arc_length_across_corners():
    poses = TrajectorySpec(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)), 0.4).poses()
    assert np.allclose([p[:2] for p in poses],
                       [(0.0, 0.0), (0.4, 0.0), (0.8, 0.0),
                        (1.0, 0.2), (1.0, 0.6), (1.0, 1.0)])
    assert np.allclose([p[2] for p in poses[3:]], math.pi / 2.0)


def test_trajectory_needs_two_waypoints():
    with pytest.raises(ValueError, match="two waypoints"):
        TrajectorySpec(((0.0, 0.0),)).poses()


def test_trajectory_skips_zero_length_legs():
    poses = TrajectorySpec(((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)), 0.5).poses()
    assert np.allclose([p[0] for p in poses], [0.0, 0.5, 1.0])


def test_laser_bearings_span_fov():
    b = LaserScanSpec(n_beams=5, fov=math.pi).bearings()
    assert np.allclose(b, [-math.pi / 2, -math.pi / 4, 0.0,
                           math.pi / 4, math.pi / 2])
    assert LaserScanSpec(n_beams=1).bearings().tolist() == [0.0]


def test_sonar_ring_bearings_evenly_spaced():
    b = SonarRingSpec(n_transducers=4).bearings()
    assert np.allclose(b, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


# ---------------------------------------------------------------------------
# simulators match their observation models


def test_laser_sim_rejects_pose_in_occupied_space():
    col = wall_scene()
    with pytest.raises(ValueError, match="occupied"):
        simulate_laser_beam(col, 2.1, 1.5, 0.0, 0.0, LaserScanSpec(),
                            LaserParams(), np.random.default_rng(0))


def test_sonar_sim_rejects_pose_in_occupied_space():
    col = wall_scene()
    with pytest.raises(ValueError, match="occupied"):
        simulate_sonar_ping(col, 2.1, 1.5, 0.0, 0.0, SonarRingSpec(),
                            SonarParams(), np.random.default_rng(0))


def test_corridor_simulation_log_is_pinned(tmp_path):
    # Every benchmark input is a log written by this command, and each of its
    # ranges comes from a laser_true_distance cast; a change to the cast, the
    # trajectory or the random stream changes this digest.
    assert main(["simulate", "--world", "corridor", "--out", str(tmp_path / "sim")]) == 0
    text = (tmp_path / "sim.log").read_bytes()
    assert text.count(b"\n") > 5_400
    assert hashlib.sha256(text).hexdigest()[:16] == "67bfa8fd918d91ae"


def test_laser_scan_matches_beam_by_beam_simulation():
    # One batched cast per scan, then the draws in bearing order: the same
    # readings and random stream as one simulate_laser_beam call per bearing.
    col = make_world(WorldSpec("corridor"))
    spec = LaserScanSpec()
    params = LaserParams()
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for x, y, heading in ((1.5, 3.0, 0.3), (6.9, 2.6, 2.5), (4.0, 3.4, -1.0)):
        scan = simulate_laser_scan(col, x, y, heading, spec, params, a)
        beams = [simulate_laser_beam(col, x, y, heading, bearing, spec, params, b)
                 for bearing in spec.bearings()]
        assert scan == beams
    assert a.random() == b.random()


def test_rooms_simulation_log_is_pinned(tmp_path):
    # The rooms log's ranges come from sonar_features over the true walls; a
    # change to the sweep, the trajectory or the random stream changes this
    # digest.
    assert main(["simulate", "--world", "rooms", "--out", str(tmp_path / "sim")]) == 0
    text = (tmp_path / "sim.log").read_bytes()
    assert text.count(b"\n") > 2_688
    assert hashlib.sha256(text).hexdigest()[:16] == "fe5202463926ea79"


def test_laser_readings_match_mixture_cdf():
    # Beam from (1, 1.5) heading east hits the wall face at distance 1.
    col = wall_scene()
    spec = LaserScanSpec(n_beams=1, max_range=8.0)
    params = LaserParams()
    rng = np.random.default_rng(123)
    n = 20_000
    obs = [simulate_laser_beam(col, 1.0, 1.5, 0.0, 0.0, spec, params, rng)
           for _ in range(n)]
    flags = np.array([o.is_max_range for o in obs])
    ranges = np.array([o.range for o in obs])

    d_star, sigma = 1.0, params.sigma(1.0)
    # Max-range probability: the atom plus the Gaussian tail beyond the limit.
    p_flag = params.w_maxrange + params.w_gauss * (1.0 - norm_cdf(
        (spec.max_range - d_star) / sigma))
    assert abs(flags.mean() - p_flag) < 0.007

    for cut in (0.9, 0.98, 1.0, 1.02, 1.1):
        expected = (params.w_gauss * norm_cdf((cut - d_star) / sigma)
                    + params.w_uniform * cut / spec.max_range)
        observed = np.mean(~flags & (ranges <= cut))
        assert abs(observed - expected) < 0.015, cut


def test_sonar_readings_match_mixture_cdf():
    # Cone from 1 m away squarely facing the wall: one visible face, depth 1.
    col = wall_scene()
    spec = SonarRingSpec(n_transducers=1, half_angle=math.radians(10.0),
                         max_range=3.5)
    params = SonarParams()
    probe = SonarObs(1.0, 1.5, 0.0, 0.0, spec.half_angle,
                     spec.max_range, spec.max_range, True)
    triples = sonar_features(probe, col, params)
    assert len(triples) == 1 and triples[0][0].kind == "face"
    q = triples[0][2]
    depth = triples[0][0].depth
    assert abs(depth - 1.0) < 1e-9

    rng = np.random.default_rng(45)
    n = 20_000
    obs = [simulate_sonar_ping(col, 1.0, 1.5, 0.0, 0.0, spec, params, rng)
           for _ in range(n)]
    flags = np.array([o.is_max_range for o in obs])
    ranges = np.array([o.range for o in obs])

    # Flagged fraction: only the outlier branch reaches the limit here.
    assert abs(flags.mean() - (1.0 - q) * params.w_maxrange) < 0.006

    def outlier_cdf(c: float) -> float:
        lam = params.outlier_rate
        expo = -math.expm1(-lam * c) / -math.expm1(-lam * spec.max_range)
        return (params.w_uniform * c / spec.max_range
                + params.w_exponential * expo)

    # Mass within +-3 sigma of the face depth.
    lo, hi = depth - 3 * params.sigma, depth + 3 * params.sigma
    expected = (q * (norm_cdf(3.0) - norm_cdf(-3.0))
                + (1.0 - q) * (outlier_cdf(hi) - outlier_cdf(lo)))
    observed = np.mean(~flags & (ranges >= lo) & (ranges <= hi))
    assert abs(observed - expected) < 0.015

    # CDF cut at the face depth itself.
    expected_half = q * 0.5 + (1.0 - q) * outlier_cdf(depth)
    observed_half = np.mean(~flags & (ranges <= depth))
    assert abs(observed_half - expected_half) < 0.015


def test_deterministic_laser_with_pure_gaussian_tracks_true_distance():
    col = wall_scene()
    spec = LaserScanSpec(n_beams=1, max_range=8.0)
    params = LaserParams(sigma_frac=0.0, sigma_floor=1e-9,
                         w_gauss=1.0, w_uniform=0.0, w_maxrange=0.0)
    rng = np.random.default_rng(7)
    o = simulate_laser_beam(col, 1.0, 1.5, 0.0, 0.0, spec, params, rng)
    assert abs(o.range - 1.0) < 1e-6 and not o.is_max_range


def test_point_grid_values_center_on_region_means():
    col = make_world(WorldSpec("two_region"))
    rng = np.random.default_rng(5)
    pts = simulate_point_grid(col, 5, 5, mu_black=1.0, mu_white=0.0,
                              sigma=0.01, rng=rng)
    assert len(pts) == 25
    for o in pts:
        mu = 1.0 if col.color_at(Point2(o.x, o.y)) == BLACK else 0.0
        assert abs(o.value - mu) < 0.05
        assert o.mu_black == 1.0 and o.mu_white == 0.0 and o.sigma == 0.01


def test_trajectory_stamps_pose_index_as_timestamp():
    col = wall_scene()
    traj = TrajectorySpec(((0.5, 1.5), (1.5, 1.5)), 0.5)
    laser = LaserScanSpec(n_beams=3, fov=1.0, max_range=8.0)
    sonar = SonarRingSpec(n_transducers=2, max_range=3.5)
    lasers, sonars, poses = simulate_trajectory(
        col, traj, laser=laser, sonar=sonar, rng=np.random.default_rng(3))
    assert len(poses) == 3
    assert len(lasers) == 9 and len(sonars) == 6
    assert [o.t for o in lasers] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert [o.t for o in sonars] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]


def test_trajectory_without_sensors_yields_no_observations():
    col = wall_scene()
    traj = TrajectorySpec(((0.5, 1.5), (1.5, 1.5)), 0.5)
    lasers, sonars, poses = simulate_trajectory(col, traj,
                                                rng=np.random.default_rng(0))
    assert lasers == [] and sonars == [] and len(poses) == 3


def test_rooms_trajectory_passes_each_doorway():
    xs = {round(x, 2) for x, _, _ in rooms_trajectory().poses()}
    assert any(2.6 < x < 3.3 for x in xs)    # south-west door
    assert any(5.6 < x < 6.3 for x in xs)    # south-east door
    assert any(4.1 < x < 4.8 for x in xs)    # north door


# ---------------------------------------------------------------------------
# metrics


def test_cell_centers_shapes_and_origin():
    grid = GridSpec(Rect(0.0, 0.0, 1.0, 0.5), 0.25)
    cx, cy = cell_centers(grid)
    assert cx.shape == (grid.ny, grid.nx) == (2, 4)
    assert cx[0, 0] == 0.125 and cy[0, 0] == 0.125
    assert cx[0, -1] == 0.875 and cy[-1, 0] == 0.375


def test_truth_raster_matches_point_queries():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    truth = truth_raster(col, grid)
    assert truth.shape == (10, 10)
    assert truth[5, 2]          # (0.25, 0.55) inside the black block
    assert not truth[5, 7]      # (0.75, 0.55) in white space


def test_near_edge_mask_flags_boundary_cells_only():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    mask = near_edge_mask(col, grid)
    cx, cy = cell_centers(grid)
    near = (0.05, 0.45)    # 0.03 from the left boundary at x = 0.08
    far = (0.25, 0.45)     # well inside the black block
    iy, ix = 4, 0
    assert (cx[iy, ix], cy[iy, ix]) == near and mask[iy, ix]
    iy, ix = 4, 2
    assert (cx[iy, ix], cy[iy, ix]) == far and not mask[iy, ix]


def test_accuracy_is_one_on_the_truth():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    prob = truth_raster(col, grid).astype(float)
    assert classification_accuracy(prob, col, grid) == 1.0


def test_accuracy_of_uninformative_raster_is_free_fraction():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    prob = np.full((grid.ny, grid.nx), 0.5)   # ties classify as free
    keep = ~near_edge_mask(col, grid)
    free_fraction = float((~truth_raster(col, grid))[keep].mean())
    assert classification_accuracy(prob, col, grid) == free_fraction


def test_accuracy_of_inverted_truth_is_zero():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    prob = 1.0 - truth_raster(col, grid).astype(float)
    assert classification_accuracy(prob, col, grid) == 0.0


def test_accuracy_respects_explicit_exclusion_mask():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    prob = truth_raster(col, grid).astype(float)
    exclude = np.zeros((grid.ny, grid.nx), dtype=bool)
    exclude[:, :5] = True
    assert classification_accuracy(prob, col, grid, exclude=exclude) == 1.0
    prob[:, :5] = 1.0 - prob[:, :5]   # corrupt only excluded cells
    assert classification_accuracy(prob, col, grid, exclude=exclude) == 1.0


def test_accuracy_shape_mismatch_rejected():
    col = make_world(WorldSpec("two_region"))
    grid = GridSpec(col.window, 0.1)
    with pytest.raises(ValueError, match="shape"):
        classification_accuracy(np.zeros((3, 3)), col, grid)
