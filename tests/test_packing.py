"""The packed-slot layout against slot-by-slot tuple arithmetic."""

import random

import pytest

from clusterknit.packing import Layout, fitting, layout

WIDTHS = (16, 24, 32, 40, 64, 128)  # 24, 40 and 128 take the bytes path
GUARDS = (2, 8, 9)


def random_vector(rng, lay):
    L = lay.low
    return [rng.choice((-L, L - 1, 0, rng.randrange(-L, L))) for _ in range(lay.r)]


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("g", GUARDS)
def test_pack_and_unpack_round_trip(w, g):
    rng = random.Random(w * 10 + g)
    for r in (1, 2, 5, 12):
        lay = layout(r, w, g)
        assert (lay.words is not None) == (w in (16, 32, 64))
        for _ in range(50):
            vec = random_vector(rng, lay)
            p = lay.pack(vec)
            assert 0 <= p <= lay.mask and lay.fits(p)
            assert lay.unpack(p) == tuple(vec)
            assert list(lay.slots(p)) == [e + lay.low for e in vec]
            # bits above the slots are ignored
            assert lay.unpack(p + (rng.randrange(-9, 9) << r * w)) == tuple(vec)
        assert lay.pack([0] * r) == lay.lows


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("g", GUARDS)
def test_fits_reads_each_slot_at_its_limits(w, g):
    """An entry in [-L, L) fits and one just outside does not, in any slot,
    whatever the other slots hold."""
    rng = random.Random(w + g)
    for r in (1, 3, 6):
        lay = layout(r, w, g)
        L = lay.low
        for i in range(r):
            shift = (r - 1 - i) * w
            for e, want in ((-L, True), (L - 1, True), (-L - 1, False), (L, False)):
                vec = random_vector(rng, lay)
                vec[i] = 0
                assert lay.fits(lay.pack(vec) + (e << shift)) is want, (r, i, e)


@pytest.mark.parametrize("w", WIDTHS)
@pytest.mark.parametrize("g", GUARDS)
def test_compare_max_and_min_match_the_tuple_results(w, g):
    rng = random.Random(7 * w + g)
    for _ in range(200):
        lay = layout(rng.randint(1, 8), w, g)
        vecs = [random_vector(rng, lay) for _ in range(rng.randint(1, 6))]
        keys = list(map(lay.pack, vecs))
        a, b = vecs[0], vecs[-1]
        assert lay.at_least(keys[0], keys[-1]) == all(x >= y for x, y in zip(a, b))
        assert lay.unpack(lay.max(keys[0], keys[-1])) == tuple(map(max, a, b))
        want = tuple(map(min, *vecs)) if len(vecs) > 1 else tuple(a)
        assert lay.unpack(lay.min(keys)) == want
        # bits above the slots are dropped
        high = [k + (rng.randrange(-99, 99) << lay.r * w) for k in keys]
        assert lay.min(iter(high)) == lay.pack(want)


def test_wider_and_fitting_choose_whole_bytes():
    assert [layout(3, w, 2).wider().w for w in (16, 24, 40, 64)] == [24, 40, 64, 96]
    assert layout(3, 16, 8).wider() is layout(3, 24, 8)
    for g in GUARDS:
        for lo, hi in ((0, 0), (-1, 1), (-(1 << 14), (1 << 14) - 1), (-5, 1 << 40), (-(1 << 77), 3)):
            lay = fitting(4, lo, hi, g)
            assert isinstance(lay, Layout) and lay.g == g and lay.w % 8 == 0 and lay.w >= 16
            assert -lay.low <= lo and hi < lay.low
            if lay.w > 16:  # eight bits fewer would not hold [lo, hi]
                narrower = 1 << (lay.w - 8 - g)
                assert lo < -narrower or hi >= narrower
    assert fitting(2, -(1 << 14), (1 << 14) - 1, 2).w == 16
    assert fitting(2, 0, 1 << 14, 2).w == 24
