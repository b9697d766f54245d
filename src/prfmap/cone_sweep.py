"""Visibility sweeps of many cones at once, as numpy passes.

:func:`cone_features` finds, for a group of cones and their candidate
edges, the features :func:`geometry.visibility_sweep` finds in each cone:
faces and corners with their depth, projection and subtended angles and
angular interval, in the sweep's order, bit for bit, without building a
:class:`geometry.VisibleFeature`.  Each step of the sweep runs over
flattened (cone, edge), (cone, event interval, edge) and (corner, edge)
arrays with the scalar code's float operations in its order.  Python's
``max``/``min`` picks are kept, so even the sign of a zero matches.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import (
    EPS_GEOM,
    ZERO_WIDTH_FACE_TOL,
    expand_counts,
    point_segment_distance_batch,
    pymax,
    pymin,
)


def _clamp(v, lo, hi):
    return pymin(hi, pymax(lo, v))


def first_of_runs(*keys) -> np.ndarray:
    """Mask of the entries that differ from their predecessor in some key."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for k in keys:
        first[1:] |= k[1:] != k[:-1]
    return first


def _rel_angle(hx, hy, vx, vy) -> np.ndarray:
    """:func:`geometry.relative_angle` for headings with unit vector (hx, hy)."""
    return np.arctan2(hx * vy - hy * vx, hx * vx + hy * vy)


def _ray_params(ox, oy, dx, dy, ax, ay, bx, by):
    """``(denom, t, u)`` of :func:`geometry.ray_segment_intersection`."""
    ex, ey = bx - ax, by - ay
    denom = dx * ey - dy * ex
    sx, sy = ax - ox, ay - oy
    return denom, (sx * ey - sy * ex) / denom, (sx * dy - sy * dx) / denom


def ray_hits(ox, oy, dx, dy, ax, ay, bx, by):
    """``(hit, t)``: where :func:`geometry.ray_segment_intersection` is not
    None, and its value."""
    denom, t, u = _ray_params(ox, oy, dx, dy, ax, ay, bx, by)
    return (denom != 0.0) & ~(t < 0.0) & ~(u < 0.0) & ~(u > 1.0), t


def wedge_clip(px, py, ulox, uloy, uhix, uhiy, ax, ay, dx, dy):
    """:func:`geometry._clip_to_wedge` of the segments ``a + t * d`` against
    the wedges, over arrays: ``(t0, t1, inside)``, t0 and t1 meaningful
    where ``inside``.  Python's ``max``/``min`` picks are kept, so even the
    sign of a zero matches."""
    shape = np.broadcast(px, ax).shape
    t0 = np.zeros(shape)
    t1 = np.ones(shape)
    inside = np.ones(shape, dtype=bool)
    # cross(u_lo, p - apex) >= 0  and  cross(u_hi, p - apex) <= 0
    for ux, uy, sign in ((ulox, uloy, 1.0), (uhix, uhiy, -1.0)):
        want = sign * (ux * (ay - py) - uy * (ax - px))
        srate = sign * (ux * dy - uy * dx)
        with np.errstate(divide="ignore", invalid="ignore"):
            tcut = -want / srate
        t0 = np.where((srate > 0.0) & (tcut > t0), tcut, t0)
        t1 = np.where((srate < 0.0) & (tcut < t1), tcut, t1)
        inside &= (srate != 0.0) | (want >= 0.0)
    inside &= t0 <= t1
    return t0, t1, inside


def _lenient_hits(ox, oy, dx, dy, ax, ay, bx, by):
    """``(ok, t)`` of :func:`geometry._ray_hit_lenient`: ok where it is not
    None, t its value there."""
    denom, t, u = _ray_params(ox, oy, dx, dy, ax, ay, bx, by)
    ok = (denom != 0.0) & ~(t < -EPS_GEOM) & ~(u < -1e-6) & ~(u > 1.0 + 1e-6)
    return ok, pymax(t, 0.0)


def _clip_to_range(pax, pay, pbx, pby, ox, oy, rng):
    """:func:`geometry._clip_subsegment_to_range` over arrays:
    ``(qax, qay, qbx, qby, ok)``, ok where it is not None.

    A piece of zero length (``a == 0``) is reported not ok: the scalar keeps
    it when within range, but its two ends then have equal angles and the
    face is dropped as zero width anyway.
    """
    ex, ey = pbx - pax, pby - pay
    fx, fy = pax - ox, pay - oy
    a = ex * ex + ey * ey
    b = 2.0 * (fx * ex + fy * ey)
    c = fx * fx + fy * fy - rng * rng
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(disc)
    s0 = pymax((-b - sq) / (2.0 * a), 0.0)
    s1 = pymin((-b + sq) / (2.0 * a), 1.0)
    qax, qay = pax + s0 * ex, pay + s0 * ey
    qbx, qby = pax + s1 * ex, pay + s1 * ey
    ok = (a != 0.0) & ~(disc < 0.0) & ~(s0 > s1) & ~((qax == qbx) & (qay == qby))
    return qax, qay, qbx, qby, ok


def _projection_angles(ox, oy, pax, pay, pbx, pby) -> np.ndarray:
    """:func:`geometry._projection_angle` over arrays."""
    ex, ey = pbx - pax, pby - pay
    L2 = ex * ex + ey * ey
    t = pymin(1.0, pymax(0.0, ((ox - pax) * ex + (oy - pay) * ey) / L2))
    cx, cy = pax + t * ex - ox, pay + t * ey - oy
    nu, nv = np.hypot(cx, cy), np.hypot(ex, ey)
    s = pymin(1.0, np.abs(cx * ey - cy * ex) / (nu * nv))
    s = np.where((nu == 0.0) | (nv == 0.0), 0.0, s)
    return np.where(L2 == 0.0, 0.0, np.arcsin(s))


class ConeRows(NamedTuple):
    """Constants of a group of cones, one row each."""
    cx: np.ndarray          # apex
    cy: np.ndarray
    heading: np.ndarray
    hx: np.ndarray          # heading unit vector
    hy: np.ndarray
    beta: np.ndarray        # half-angle
    rng: np.ndarray         # max range
    ulox: np.ndarray        # wedge boundary unit vectors
    uloy: np.ndarray
    uhix: np.ndarray
    uhiy: np.ndarray


class EdgePairs(NamedTuple):
    """(cone, edge) pairs: the cone's row, the edge's id and its two ends."""
    c: np.ndarray
    sid: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    bx: np.ndarray
    by: np.ndarray

    def take(self, k) -> EdgePairs:
        return EdgePairs(*(v[k] for v in self))


def _clipped(g: ConeRows, e: EdgePairs) -> tuple[EdgePairs, np.ndarray, np.ndarray]:
    """:func:`visibility_sweep`'s first loop: the pairs whose edge has a
    piece in the wedge within range, and the piece's angles ``(lo, hi)``."""
    px, py = g.cx[e.c], g.cy[e.c]
    dx, dy = e.bx - e.ax, e.by - e.ay
    t0, t1, inside = wedge_clip(px, py, g.ulox[e.c], g.uloy[e.c], g.uhix[e.c], g.uhiy[e.c],
                                 e.ax, e.ay, dx, dy)
    pax, pay, pbx, pby = e.ax + t0 * dx, e.ay + t0 * dy, e.ax + t1 * dx, e.ay + t1 * dy
    k = np.flatnonzero(inside & ~((pax == pbx) & (pay == pby)))
    k = k[~(point_segment_distance_batch(px[k], py[k], pax[k], pay[k], pbx[k], pby[k])
            > g.rng[e.c[k]])]
    e = e.take(k)
    hx, hy, b = g.hx[e.c], g.hy[e.c], g.beta[e.c]
    a0 = _clamp(_rel_angle(hx, hy, pax[k] - px[k], pay[k] - py[k]), -b, b)
    a1 = _clamp(_rel_angle(hx, hy, pbx[k] - px[k], pby[k] - py[k]), -b, b)
    swap = a0 > a1
    return e, np.where(swap, a1, a0), np.where(swap, a0, a1)


def _runs(g: ConeRows, e: EdgePairs, lo, hi) -> tuple[EdgePairs, np.ndarray, np.ndarray]:
    """The sweep of :func:`_sweep_faces`: runs of consecutive event intervals
    whose midpoint ray first meets the same clipped edge, as that edge and
    the run's first and last angle."""
    # event angles: {-beta, beta} and every clipped lo, hi, sorted; of equal
    # angles (0.0 and -0.0) the set keeps the first added
    m = len(g.cx)
    ev_c = np.concatenate((np.arange(m), np.arange(m), np.repeat(e.c, 2)))
    ev_a = np.concatenate((-g.beta, g.beta, np.stack((lo, hi), axis=1).ravel()))
    o = np.lexsort((np.arange(len(ev_c)), ev_a, ev_c))
    keep = first_of_runs(ev_c[o], ev_a[o])
    place = np.empty(len(o), dtype=np.int64)
    place[o] = np.cumsum(keep) - 1            # of each added angle among the events
    ev_c, ev_a = ev_c[o][keep], ev_a[o][keep]
    # interval i runs from event i to i + 1 of the same cone; clipped edge j
    # is active (lo <= th0 < hi) on those from its lo up to its hi
    e_lo, e_hi = place[2 * m::2], place[2 * m + 1::2]
    tj, tk = expand_counts(e_hi - e_lo)
    ti = e_lo[tj] + tk
    # the nearest hit at each interval's midpoint; ties in t go to the smaller id
    need = np.zeros(len(ev_a), dtype=bool)
    need[ti] = True
    need = np.flatnonzero(need)
    ang = g.heading[ev_c[need]] + 0.5 * (ev_a[need] + ev_a[need + 1])
    ux, uy = np.empty(len(ev_a)), np.empty(len(ev_a))
    ux[need], uy[need] = np.cos(ang), np.sin(ang)
    c = e.c[tj]
    hit, t = ray_hits(g.cx[c], g.cy[c], ux[ti], uy[ti], e.ax[tj], e.ay[tj], e.bx[tj], e.by[tj])
    h = np.flatnonzero(hit)
    o = np.lexsort((e.sid[tj[h]], t[h], ti[h]))
    bi, bj = ti[h][o], tj[h][o]
    first = first_of_runs(bi)
    bi, bj = bi[first], bj[first]
    # consecutive intervals won by the same edge merge
    start = np.ones(len(bi), dtype=bool)
    start[1:] = (bi[1:] != bi[:-1] + 1) | (bj[1:] != bj[:-1])
    end = np.ones(len(bi), dtype=bool)
    end[:-1] = start[1:]
    s, last = np.flatnonzero(start), np.flatnonzero(end)
    return e.take(bj[s]), ev_a[bi[s]], ev_a[bi[last] + 1]


def _run_faces(g: ConeRows, e: EdgePairs, r0, r1):
    """The rest of :func:`_sweep_faces`, each run's face as feature columns:
    lenient hits at the run's ends, the range clip, the zero-width drop and
    the projection angle."""
    c = e.c
    ox, oy = g.cx[c], g.cy[c]
    h0, h1 = g.heading[c] + r0, g.heading[c] + r1
    c0, s0, c1, s1 = np.cos(h0), np.sin(h0), np.cos(h1), np.sin(h1)
    ok0, t_lo = _lenient_hits(ox, oy, c0, s0, e.ax, e.ay, e.bx, e.by)
    ok1, t_hi = _lenient_hits(ox, oy, c1, s1, e.ax, e.ay, e.bx, e.by)
    qax, qay, qbx, qby, ok = _clip_to_range(ox + t_lo * c0, oy + t_lo * s0,
                                            ox + t_hi * c1, oy + t_hi * s1, ox, oy, g.rng[c])
    depth = point_segment_distance_batch(ox, oy, qax, qay, qbx, qby)
    a0 = _rel_angle(g.hx[c], g.hy[c], qax - ox, qay - oy)
    a1 = _rel_angle(g.hx[c], g.hy[c], qbx - ox, qby - oy)
    swap = a0 > a1
    a0, a1 = np.where(swap, a1, a0), np.where(swap, a0, a1)
    qax, qbx = np.where(swap, qbx, qax), np.where(swap, qax, qbx)
    qay, qby = np.where(swap, qby, qay), np.where(swap, qay, qby)
    # a face subtending no angle reflects nothing (see _sweep_faces)
    k = np.flatnonzero(ok0 & ok1 & ok & ~(depth > g.rng[c])
                       & ~(a1 - a0 <= ZERO_WIDTH_FACE_TOL))
    qax, qay, qbx, qby, ox, oy, c, depth, a0, a1 = (
        v[k] for v in (qax, qay, qbx, qby, ox, oy, c, depth, a0, a1))
    far = pymax(np.hypot(qax - ox, qay - oy), np.hypot(qbx - ox, qby - oy))
    b = g.beta[c]
    return (c, np.zeros(len(c), dtype=np.int64), e.sid[k], depth,
            _projection_angles(ox, oy, qax, qay, qbx, qby), pymax(0.0, a1 - a0),
            _clamp(a0, -b, b), _clamp(a1, -b, b), far)


def _corners(g: ConeRows, e: EdgePairs):
    """:func:`geometry._corner_features` as feature columns."""
    # each vertex once per cone, owned by its first edge in id order
    vc = np.repeat(e.c, 2)
    vx = np.stack((e.ax, e.bx), axis=1).ravel()
    vy = np.stack((e.ay, e.by), axis=1).ravel()
    o = np.lexsort((np.arange(len(vc)), vy, vx, vc))
    k = np.sort(o[first_of_runs(vc[o], vx[o], vy[o])])
    vc, vs = vc[k], np.repeat(e.sid, 2)[k]
    dx, dy = vx[k] - g.cx[vc], vy[k] - g.cy[vc]
    d = np.hypot(dx, dy)
    k = np.flatnonzero((d != 0.0) & ~(d > g.rng[vc]))
    vc, vs, dx, dy, d = vc[k], vs[k], dx[k], dy[k], d[k]
    alpha = _rel_angle(g.hx[vc], g.hy[vc], dx, dy)
    k = np.flatnonzero(~(alpha < -g.beta[vc]) & ~(alpha > g.beta[vc]))
    vc, vs, dx, dy, d, alpha = vc[k], vs[k], dx[k], dy[k], d[k], alpha[k]
    # occluded when its sight line meets any candidate edge of the cone short of it
    n = np.bincount(e.c, minlength=len(g.cx))
    qi, qk = expand_counts(n[vc])
    q = (np.cumsum(n) - n)[vc[qi]] + qk
    hit, t = ray_hits(g.cx[vc[qi]], g.cy[vc[qi]], (dx / d)[qi], (dy / d)[qi],
                      e.ax[q], e.ay[q], e.bx[q], e.by[q])
    k = np.flatnonzero(np.bincount(qi[hit & (t < (d - EPS_GEOM)[qi])], minlength=len(vc)) == 0)
    zero = np.zeros(len(k))
    return (vc[k], np.ones(len(k), dtype=np.int64), vs[k], d[k], zero, zero,
            alpha[k], alpha[k], d[k])


def cone_features(g: ConeRows, e: EdgePairs):
    """The features :func:`geometry.visibility_sweep` finds in each cone of
    ``g`` among its candidate edges ``e`` (pairs ordered by cone, then edge
    id), as columns in the sweep's order, cone by cone: cone row, kind (0
    face, 1 corner), depth, projection and subtended angles, angular
    interval and the distance of the feature's farther end."""
    faces = _run_faces(g, *_runs(g, *_clipped(g, e)))
    fc, kind, fsid, depth, proj, subt, alo, ahi, far = (
        np.concatenate(v) for v in zip(faces, _corners(g, e)))
    # ties keep faces before corners, as the sweep lists them
    order = np.lexsort((np.arange(len(fc)), alo, fsid, kind, depth, fc))
    return tuple(v[order] for v in (fc, kind, depth, proj, subt, alo, ahi, far))
