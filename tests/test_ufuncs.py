"""The assumption the bit-exact oracle tests rest on.

The batched likelihood, sweep and baseline code takes its transcendental
functions from numpy on arrays, and the scalar functions it is tested
against take the same numpy functions on floats.  That makes them agree
bit for bit only if a ufunc gives a value the same bits whether it is
called on the value alone or on an array holding it, whatever the array's
length and alignment (SIMD loops handle a vector body and a remainder
separately).  These tests check that for the eight functions used: the
calls on floats and on numpy scalars agree by ``float.hex``, and every
element of an array of length 1 to 1,001, at aligned and unaligned
starts, has the bits of the call on its float.
"""

import numpy as np
import pytest

LENGTHS = range(1, 1002)
OFFSETS = (0, 1, 3)          # start of the slice, in elements: 8, 24 bytes off


def _pool(rng, lo, hi, specials=()):
    """Values for arrays of every length at every offset: uniform draws
    with some specials spread among them."""
    v = rng.uniform(lo, hi, max(LENGTHS) + max(OFFSETS))
    for k, s in enumerate(specials):
        v[k * 97 % len(v)] = s
    return v


_ANGLE = (0.0, -0.0, np.pi, -np.pi / 2, 1e-300, 40.0)
_COORD = (0.0, -0.0, 1.0, -1.0, 1e-300, 3.5)
# the arguments of each function, from a generator
DOMAINS = {
    "cos": lambda rng: (_pool(rng, -8.0, 8.0, _ANGLE),),
    "sin": lambda rng: (_pool(rng, -8.0, 8.0, _ANGLE),),
    "arctan2": lambda rng: (_pool(rng, -5.0, 5.0, _COORD), _pool(rng, -5.0, 5.0, _COORD[::-1])),
    "hypot": lambda rng: (_pool(rng, -5.0, 5.0, _COORD), _pool(rng, -5.0, 5.0, _COORD[::-1])),
    "arcsin": lambda rng: (_pool(rng, -1.0, 1.0, (0.0, -0.0, 1.0, -1.0, 1e-300)),),
    "exp": lambda rng: (_pool(rng, -60.0, 10.0, (0.0, -0.0, -700.0, -745.0, 700.0)),),
    "expm1": lambda rng: (_pool(rng, -60.0, 2.0, (0.0, -0.0, -1e-300, -700.0, 1e-10)),),
    "log": lambda rng: (np.exp(_pool(rng, -60.0, 10.0)) * _pool(rng, 0.5, 1.5, (1.0, 1e-300)),),
}


@pytest.mark.parametrize("name", list(DOMAINS))
def test_ufunc_on_floats_matches_ufunc_on_arrays(name):
    f = getattr(np, name)
    args = DOMAINS[name](np.random.default_rng(list(DOMAINS).index(name)))
    # one call per element, on Python floats and on numpy scalars
    want = np.array([f(*v) for v in zip(*(a.tolist() for a in args))])
    assert [float.hex(x) for x in want.tolist()] == \
        [float.hex(float(f(*v))) for v in zip(*(map(np.float64, a) for a in args))]
    want_bits = want.view(np.uint64)
    for off in OFFSETS:
        for n in LENGTHS:
            got = f(*(a[off:off + n] for a in args))
            bad = np.flatnonzero(got.view(np.uint64) != want_bits[off:off + n])
            assert not len(bad), (
                f"np.{name} at length {n}, offset {off}, element {bad[0]}: array "
                f"{float.hex(float(got[bad[0]]))}, float "
                f"{float.hex(float(want[off + bad[0]]))}")
