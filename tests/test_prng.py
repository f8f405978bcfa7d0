"""Generator determinism pins: these exact outputs keep corpora stable."""

from __future__ import annotations

import pytest

from streampath.prng import SplitMix64


def test_known_outputs_seed_zero():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_known_outputs_seed_1234567():
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 0x599ED017FB08FC85
    assert rng.next_u64() == 0x2C73F08458540FA5
    assert rng.next_u64() == 0x883EBCE5A3F27C77


def test_seed_wraps_at_64_bits():
    rng = SplitMix64(2**64 - 1)
    assert rng.next_u64() == 0xE4D971771B652C20
    assert rng.next_u64() == 0xE99FF867DBF682C9


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SplitMix64(-1)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, 10**5000], ids=["2^64", "2^64+5", "10^5000"])
def test_seed_past_64_bits_rejected(seed):
    # masking would make 2^64 + 5 draw what 5 draws
    with pytest.raises(ValueError, match=r"seed must be non-negative and below 2\^64"):
        SplitMix64(seed)


def test_below_stays_in_range():
    rng = SplitMix64(99)
    for bound in (1, 2, 3, 7, 100):
        for _ in range(200):
            assert 0 <= rng.below(bound) < bound


def test_below_hits_every_residue():
    rng = SplitMix64(5)
    seen = {rng.below(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}


def test_randint_inclusive_bounds():
    rng = SplitMix64(7)
    values = {rng.randint(3, 5) for _ in range(300)}
    assert values == {3, 4, 5}


def test_shuffle_is_a_permutation_and_deterministic():
    a = list(range(30))
    SplitMix64(42).shuffle(a)
    assert sorted(a) == list(range(30))
    b = list(range(30))
    SplitMix64(42).shuffle(b)
    assert a == b
    c = list(range(30))
    SplitMix64(43).shuffle(c)
    assert c != a


def test_coin_lands_both_ways():
    rng = SplitMix64(11)
    flips = {rng.coin() for _ in range(100)}
    assert flips == {False, True}
