"""Reference grid index tests: ray casts vs brute force, and cone boxes."""

import math
import random

import pytest

from prfmap.geometry import GridSpec, Point2, Rect, Segment, unit_vector
from prfmap.grid_index import EdgeGridIndex
from reference import Cone, cell_of, index_spans


def oracle_ray_hit(origin, direction, seg):
    (ax, ay), (bx, by) = seg
    ex, ey = bx - ax, by - ay
    dx, dy = direction
    det = dx * ey - dy * ex
    if det == 0.0:
        return None
    rx, ry = ax - origin[0], ay - origin[1]
    t = (rx * ey - ry * ex) / det
    u = (rx * dy - ry * dx) / det
    if 0.0 <= u <= 1.0 and t >= 0.0:
        return t
    return None


def oracle_nearest(origin, direction, max_t, segments):
    best = None
    for eid, seg in segments.items():
        t = oracle_ray_hit((origin.x, origin.y), direction, seg)
        if t is None or t > max_t:
            continue
        if best is None or (t, eid) < best:
            best = (t, eid)
    return best


def random_segment(rng, rect, max_len=1.5):
    while True:
        a = Point2(rng.uniform(rect.xmin, rect.xmax), rng.uniform(rect.ymin, rect.ymax))
        ang = rng.uniform(-math.pi, math.pi)
        ln = rng.uniform(0.05, max_len)
        b = Point2(a.x + ln * math.cos(ang), a.y + ln * math.sin(ang))
        if rect.contains(b):
            return Segment(a, b)


def test_index_rejects_duplicate_ids():
    win = Rect(0.0, 0.0, 1.0, 1.0)
    idx = EdgeGridIndex(GridSpec(win, 0.5))
    seg = Segment(Point2(0.1, 0.1), Point2(0.9, 0.9))
    idx.add(1, seg)
    with pytest.raises(ValueError):
        idx.add(1, seg)


def test_ray_cast_matches_bruteforce():
    rng = random.Random(17)
    win = Rect(0.0, 0.0, 6.0, 5.0)
    grid = GridSpec(win, 0.3)
    idx = EdgeGridIndex(grid)
    segments: dict[int, Segment] = {}
    for eid in range(60):
        seg = random_segment(rng, win)
        segments[eid] = seg
        idx.add(eid, seg)
    for _ in range(2000):
        o = Point2(rng.uniform(0.1, 5.9), rng.uniform(0.1, 4.9))
        d = unit_vector(rng.uniform(-math.pi, math.pi))
        max_t = rng.uniform(0.5, 12.0)
        got = idx.ray_cast(o, d, max_t, segments.__getitem__)
        want = oracle_nearest(o, d, max_t, segments)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[1] == want[1]
            assert got[0] == pytest.approx(want[0], abs=1e-12)


def test_cone_bbox_covers_sector_points():
    grid = GridSpec(Rect(0.0, 0.0, 6.0, 5.0), 0.3)
    rng = random.Random(23)
    for _ in range(30):
        apex = Point2(rng.uniform(0.5, 5.5), rng.uniform(0.5, 4.5))
        heading = rng.uniform(-math.pi, math.pi)
        half = rng.uniform(0.05, 1.2)
        radius = rng.uniform(0.3, 3.0)
        xmin, ymin, xmax, ymax = Cone(apex, heading, half, radius).bbox()
        ix0, ix1, iy0, iy1 = index_spans(grid, xmin, ymin, xmax, ymax)
        # every point truly inside the sector must land in a covered cell
        for _ in range(300):
            r = radius * math.sqrt(rng.random())
            a = heading + rng.uniform(-half, half)
            p = Point2(apex.x + r * math.cos(a), apex.y + r * math.sin(a))
            if not grid.window.contains(p):
                continue
            ix, iy = cell_of(grid, p)
            assert ix0 <= ix <= ix1 and iy0 <= iy <= iy1
        # the box never extends beyond the disc's bounding box
        assert apex.x - radius <= xmin and xmax <= apex.x + radius
        assert apex.y - radius <= ymin and ymax <= apex.y + radius
