import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manetsim.model import CommonHeader, PacketKind
from manetsim.saodv import VerifyOutcome, draw_random_values, select_channel, verify

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _header(rv1, rv2, channel):
    return CommonHeader(uid=0, kind=PacketKind.DATA, size=100, src=9, dst=0,
                        prev_hop=9, seq=0, fid=1, rv1=rv1, rv2=rv2, channel=channel)


def test_draw_is_reproducible_for_fixed_seed():
    assert draw_random_values(random.Random(123)) == draw_random_values(random.Random(123))


def test_draw_outputs_in_unit_interval():
    rng = random.Random(4)
    for _ in range(1000):
        rv1, rv2 = draw_random_values(rng)
        assert 0.0 <= rv1 < 1.0
        assert 0.0 <= rv2 < 1.0


def test_draw_mean_close_to_half_at_ten_thousand_draws():
    rng = random.Random(0)
    values = [draw_random_values(rng)[0] for _ in range(10_000)]
    assert 0.48 <= sum(values) / len(values) <= 0.52


def test_two_channel_rule_cases():
    k = 2
    assert select_channel(0.3, 0.7, k) == 1
    assert select_channel(0.9, 0.2, k) == 2
    # equality belongs to channel 1
    assert select_channel(0.5, 0.5, k) == 1


def test_single_channel_always_one():
    k = 1
    assert select_channel(0.0, 1.0, k) == 1
    assert select_channel(0.99, 0.01, k) == 1


def test_generalized_mapping_worked_example():
    # h = (0.3 - 0.7 + 1)/2 = 0.3; 1 + floor(4*0.3) = 2
    assert select_channel(0.3, 0.7, 4) == 2


def test_select_rejects_out_of_range_inputs():
    k = 2
    with pytest.raises(ValueError):
        select_channel(1.5, 0.5, k)
    with pytest.raises(ValueError):
        select_channel(0.5, -0.1, k)


def test_verify_range_check_drops_bad_tags():
    k = 2
    assert verify(_header(1.5, 0.9, 1), k) is VerifyOutcome.DROP_RANGE
    assert verify(_header(-0.2, 0.5, 1), k) is VerifyOutcome.DROP_RANGE
    assert verify(_header(math.nan, 0.5, 1), k) is VerifyOutcome.DROP_RANGE


def test_verify_mismatch_and_accept():
    k = 2
    assert verify(_header(0.3, 0.7, 2), k) is VerifyOutcome.DROP_MISMATCH
    assert verify(_header(0.3, 0.7, 1), k) is VerifyOutcome.ACCEPT


def test_paper_range_check_is_sum_only():
    k = 2
    # Each tag individually out of [0,1] but the sum is within [0,2].
    header = _header(1.7, 0.1, 2)  # 1.7 <= 0.1 is false: implied channel 2
    assert verify(header, k) is VerifyOutcome.DROP_RANGE
    assert verify(header, k, paper_range_check=True) is VerifyOutcome.ACCEPT
    too_big = _header(1.5, 0.9, 2)  # sum 2.4 fails even the sum-only check
    assert verify(too_big, k, paper_range_check=True) is VerifyOutcome.DROP_RANGE


def test_honest_tags_always_accepted_on_dense_grid():
    steps = [i / 50.0 for i in range(51)]  # includes both endpoints
    for k in range(1, 17):
        for rv1 in steps:
            for rv2 in steps:
                channel = select_channel(rv1, rv2, k)
                assert 1 <= channel <= k
                assert verify(_header(rv1, rv2, channel), k) is VerifyOutcome.ACCEPT


@given(rv1=unit, rv2=unit, k=st.integers(min_value=1, max_value=16))
def test_honest_tags_always_accepted_property(rv1, rv2, k):
    channel = select_channel(rv1, rv2, k)
    assert verify(_header(rv1, rv2, channel), k) is VerifyOutcome.ACCEPT


@given(rv1=unit, rv2=unit, k=st.integers(min_value=1, max_value=16))
def test_select_channel_is_pure(rv1, rv2, k):
    assert select_channel(rv1, rv2, k) == select_channel(rv1, rv2, k)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_uniform_attacker_accepted_at_one_over_k(k):
    # Independent uniform tags and channel: P(accept) = 1/k regardless of the
    # mapping's own distribution.  Monte Carlo with 1e5 trials.
    rng = random.Random(1000 + k)
    trials = 100_000
    accepted = 0
    for _ in range(trials):
        header = _header(rng.random(), rng.random(), rng.randint(1, k))
        if verify(header, k) is VerifyOutcome.ACCEPT:
            accepted += 1
    assert abs(accepted / trials - 1.0 / k) <= 0.02


def test_two_channel_selection_is_balanced():
    rng = random.Random(77)
    k = 2
    n = 100_000
    ones = sum(1 for _ in range(n)
               if select_channel(rng.random(), rng.random(), k) == 1)
    assert abs(ones / n - 0.5) <= 0.02


def _triangular_bin_prob(i, k):
    """P(channel = i) for k > 2: h = (rv1-rv2+1)/2 is triangular on [0,1]."""

    def cdf(h):
        if h <= 0.5:
            return 2.0 * h * h
        return 1.0 - 2.0 * (1.0 - h) ** 2

    return cdf(i / k) - cdf((i - 1) / k)


@pytest.mark.parametrize("k", [3, 4, 8])
def test_generalized_selection_follows_triangular_law(k):
    # The k>2 mapping bins a triangular variable, so the channels are not
    # uniform; check the empirical distribution against the analytic one.
    rng = random.Random(55 + k)
    n = 100_000
    counts = [0] * (k + 1)
    for _ in range(n):
        counts[select_channel(rng.random(), rng.random(), k)] += 1
    assert sum(_triangular_bin_prob(i, k) for i in range(1, k + 1)) == pytest.approx(1.0)
    for i in range(1, k + 1):
        assert abs(counts[i] / n - _triangular_bin_prob(i, k)) <= 0.01
