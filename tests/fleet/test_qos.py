"""QoS arbiter properties: proportional sharing, water-filling,
contention factors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.perf import (
    bandwidth_shares,
    contention_factors,
    proportional_shares,
    weighted_fair_shares,
)

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8,
)


def weight_lists_for(n):
    return st.lists(
        st.floats(min_value=0.01, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    )


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists, capacity=st.floats(
    min_value=0.1, max_value=1000.0, allow_nan=False, allow_infinity=False,
), data=st.data())
def test_qos_off_is_exactly_proportional_sharing(demands, capacity, data):
    """Disabling QoS must reproduce proportional-share bandwidth
    bit for bit, whatever the weights say."""
    weights = data.draw(weight_lists_for(len(demands)))
    shares = bandwidth_shares(demands, weights, capacity, qos=False)
    assert shares == proportional_shares(demands, capacity)


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists, data=st.data(),
       qos=st.booleans(),
       capacity=st.floats(min_value=-10.0, max_value=0.0,
                          allow_nan=False, allow_infinity=False))
def test_unlimited_channel_grants_demand_exactly(demands, data, qos, capacity):
    weights = data.draw(weight_lists_for(len(demands)))
    assert bandwidth_shares(demands, weights, capacity, qos=qos) == [
        float(d) for d in demands
    ]


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists, data=st.data())
def test_underloaded_qos_channel_satisfies_everyone(demands, data):
    """When total demand fits the channel, water-filling hands every
    tenant exactly its demand."""
    weights = data.draw(weight_lists_for(len(demands)))
    capacity = sum(demands) + 1.0
    shares = weighted_fair_shares(demands, weights, capacity)
    assert shares == [float(d) for d in demands]


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists, data=st.data(),
       qos=st.booleans(),
       capacity=st.floats(min_value=0.1, max_value=500.0,
                          allow_nan=False, allow_infinity=False))
def test_shares_never_exceed_capacity(demands, data, qos, capacity):
    weights = data.draw(weight_lists_for(len(demands)))
    shares = bandwidth_shares(demands, weights, capacity, qos=qos)
    assert all(s >= 0.0 for s in shares)
    assert sum(shares) <= capacity * (1.0 + 1e-9)


def test_subnormal_demand_gets_at_most_the_channel():
    # The falsifying draw of test_shares_never_exceed_capacity: the
    # product form granted 1.5 * 5e-324 / 5e-324 == 2.0 of a 1.5 channel.
    assert bandwidth_shares([5e-324], [1.0], 1.5, qos=False) == [1.5]
    shares = bandwidth_shares([5e-324, 5e-324], [1.0, 1.0], 1.5, qos=False)
    assert sum(shares) <= 1.5


def test_water_filling_insulates_light_tenants():
    # The 10 GB/s tenant fits under its fair slice and is untouched;
    # the heavy tenants split the surplus by weight.
    shares = weighted_fair_shares([10.0, 30.0, 60.0], [1.0, 1.0, 2.0], 50.0)
    assert shares[0] == 10.0
    assert shares[1] == pytest.approx(40.0 / 3.0)
    assert shares[2] == pytest.approx(80.0 / 3.0)
    assert sum(shares) == pytest.approx(50.0)


def test_proportional_sharing_punishes_everyone_equally():
    shares = proportional_shares([10.0, 30.0, 60.0], 50.0)
    factors = contention_factors([10.0, 30.0, 60.0], shares)
    # Total demand is 2x capacity, so every tenant stalls 2x.
    assert factors == pytest.approx([2.0, 2.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(demands=demand_lists, data=st.data())
def test_contention_factors_are_stall_multipliers(demands, data):
    weights = data.draw(weight_lists_for(len(demands)))
    shares = bandwidth_shares(demands, weights, 25.0, qos=True)
    factors = contention_factors(demands, shares)
    for d, s, f in zip(demands, shares, factors):
        assert f >= 1.0
        if d > s and s > 0.0:
            assert f == d / s
        else:
            assert f == 1.0
