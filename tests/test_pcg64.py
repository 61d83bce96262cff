"""The fuzz's own PCG64 stream against numpy's Generator(PCG64(seed))."""

import random

import numpy as np
import pytest

from blaschkepick._pcg64 import PCG64Stream

# Ranges hi - lo of integers(lo, hi): one value (no draw), small ones, the
# edges of the 32-bit path and 64-bit ones.
SPANS = (1, 2, 3, 7, 11, 13, 2**31, 2**32, 2**32 + 1, 2**40, 2**62)
SEEDS = list(range(1000)) + [2**32, 2**64 + 3, 10**30]


def _draw_both(ours: PCG64Stream, ref: np.random.Generator, plan: random.Random):
    """One draw of a kind and range that `plan` picks, from both streams."""
    kind = plan.randrange(3)
    if kind == 0:
        return ours.random(), ref.random()
    if kind == 1:
        lo = plan.uniform(-4.0, 4.0)
        hi = lo + plan.uniform(0.0, 8.0)
        return ours.uniform(lo, hi), ref.uniform(lo, hi)
    lo = plan.randrange(-1000, 1000)
    hi = lo + plan.choice(SPANS)
    return ours.integers(lo, hi), int(ref.integers(lo, hi))


@pytest.mark.parametrize("chunk", range(4))
def test_draws_equal_numpys_bit_for_bit(chunk):
    for seed in SEEDS[chunk::4]:
        ours, ref = PCG64Stream(seed), np.random.Generator(np.random.PCG64(seed))
        state = ref.bit_generator.state["state"]
        assert (ours.state, ours.inc) == (state["state"], state["inc"]), seed
        plan = random.Random(seed)
        for step in range(60):
            got, want = _draw_both(ours, ref, plan)
            assert got == want and type(got) is type(want), (seed, step)


def test_a_range_of_one_value_draws_nothing():
    ours = PCG64Stream(5)
    assert ours.integers(-3, -2) == -3
    assert ours.random() == PCG64Stream(5).random()


@pytest.mark.parametrize(
    "seed, draws",
    [
        (0, (0.6369616873214543, 1.753613639465157, 2, 1, 18172327443, 0.8132702392002724)),
        (7, (0.625095466604667, 5.831889706302241, 4, 3, 247617924053, 0.30016628491122543)),
    ],
)
def test_pinned_draws(seed, draws):
    # The stream stays the package's own if numpy changes its default.
    ours = PCG64Stream(seed)
    got = (
        ours.random(), ours.uniform(0.0, 6.5), ours.integers(0, 7),
        ours.integers(1, 4), ours.integers(0, 2**40), ours.random(),
    )
    assert got == draws


def test_pinned_seed_state():
    ours = PCG64Stream(0)
    assert ours.state == 35399562948360463058890781895381311971
    assert ours.inc == 87136372517582989555478159403783844777


@pytest.mark.parametrize(
    "lo, hi", [(3, 3), (4, 3), (0, 2**63 + 1), (-(2**63) - 1, 0)], ids=["empty", "reversed", "high", "low"]
)
def test_a_range_numpy_refuses_is_refused(lo, hi):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(lo, hi)
    with pytest.raises(ValueError, match="integers"):
        PCG64Stream(0).integers(lo, hi)


def test_the_widest_int64_range():
    ours, ref = PCG64Stream(3), np.random.default_rng(3)
    for _ in range(20):
        assert ours.integers(-(2**63), 2**63) == int(ref.integers(-(2**63), 2**63))
