"""Benchmark plant, its flat relations, and the fixed-step integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import ConfigurationError, DivergenceError
from heol.plant import (
    TRUST_REGION,
    MismatchSpec,
    PlantModel,
    benchmark_relations,
    example_plant,
    initial_state,
    rk4_step,
)
from heol.signals import make_constant, make_smoothstep


# ------------------------------------------------------------- plant model


def test_example_plant_dimensions():
    p = example_plant()
    assert (p.n_states, p.n_controls, p.n_outputs) == (4, 2, 2)


def test_example_plant_vector_field_by_substitution():
    p = example_plant()
    assert list(p.f(0.0, [1.0, 0.0, 0.0, 0.0], [0.0, 0.0])) == [1.0, 0.0, 0.0, 0.0]
    # x=(1,2,3,4), u=(1,1): (x1 + x1^2 u1, x3, x4, -x4 + x3 + x2 + x1 u1 u2)
    #                     = (1+1, 3, 4, -4+3+2+1) = (2, 3, 4, 2)
    assert list(p.f(0.0, [1.0, 2.0, 3.0, 4.0], [1.0, 1.0])) == [2.0, 3.0, 4.0, 2.0]


def test_example_plant_output_map():
    p = example_plant()
    assert list(p.output([5.0, 6.0, 7.0, 8.0])) == [5.0, 6.0]


def test_plant_model_rejects_zero_dimensions():
    with pytest.raises(ConfigurationError):
        PlantModel(0, 1, 1, lambda t, x, u: x, lambda x: x)


# ---------------------------------------------------------------- mismatch


def test_mismatch_defaults_and_validation():
    m = MismatchSpec()
    assert m.output_scaling == (1.0, 1.0)
    with pytest.raises(ConfigurationError):
        MismatchSpec(output_scaling=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        MismatchSpec(output_scaling=(-1.0,))


# ------------------------------------------------------------- initial state


def test_initial_state_scales_outputs_only():
    refs = (make_constant(1.0), make_constant(0.0))
    x0 = initial_state(refs, MismatchSpec(output_scaling=(1.1, 1.0)))
    np.testing.assert_array_equal(x0, [1.1, 0.0, 0.0, 0.0])

    x0 = initial_state((make_constant(1.0), make_constant(1.0)), MismatchSpec())
    np.testing.assert_array_equal(x0, [1.0, 1.0, 0.0, 0.0])

    x0 = initial_state(refs, MismatchSpec(output_scaling=(2.0, 1.0)))
    assert x0[0] == 2.0


def test_initial_state_seeds_hidden_chain_from_reference_derivatives():
    y2 = make_smoothstep(1.0, 2.0, 0.0, 10.0)
    refs = (make_constant(1.0), y2)
    t0 = 5.0
    x0 = initial_state(refs, MismatchSpec(), t0=t0)
    assert x0[1] == y2.eval(t0, 0)
    assert x0[2] == y2.eval(t0, 1)
    assert x0[3] == y2.eval(t0, 2)


def test_initial_state_needs_two_factors():
    refs = (make_constant(1.0), make_constant(1.0))
    with pytest.raises(ConfigurationError):
        initial_state(refs, MismatchSpec(output_scaling=(1.0,)))


# ---------------------------------------------------------------- integrator


def _scalar_model(f):
    return PlantModel(1, 1, 1, f, lambda x: x[:1])


def test_rk4_zero_field_keeps_state():
    m = _scalar_model(lambda t, x, u: [0.0])
    x = rk4_step(m, 0.0, [3.0], [0.0], 0.1)
    assert x == [3.0]


def test_rk4_exponential_local_accuracy():
    m = _scalar_model(lambda t, x, u: list(x))
    x = rk4_step(m, 0.0, [1.0], [0.0], 0.01)
    assert abs(x[0] - np.exp(0.01)) <= 1e-11


def test_rk4_exact_for_cubic_time_polynomials():
    # dx/dt = t from 0: the update must reproduce t^2/2 up to round-off
    m = _scalar_model(lambda t, x, u: [t])
    x = rk4_step(m, 0.0, [0.0], [0.0], 0.1)
    assert x[0] == pytest.approx(0.005, abs=1e-16)


def test_rk4_rejects_nonpositive_step():
    m = _scalar_model(lambda t, x, u: list(x))
    with pytest.raises(ConfigurationError):
        rk4_step(m, 0.0, [1.0], [0.0], 0.0)


def test_rk4_flags_non_finite_derivatives():
    m = _scalar_model(lambda t, x, u: [math.inf])
    with pytest.raises(DivergenceError) as err:
        rk4_step(m, 2.25, [1.0], [0.0], 0.1)
    assert "t=" in str(err.value)


def test_rk4_order_four_under_step_halving():
    m = _scalar_model(lambda t, x, u: list(x))

    def run(h, n):
        x = [1.0]
        for k in range(n):
            x = rk4_step(m, k * h, x, [0.0], h)
        return abs(x[0] - np.e)

    ratio = run(0.1, 10) / run(0.05, 20)
    assert 14.0 <= ratio <= 18.0


def test_rk4_holds_control_bit_constant_across_stages():
    seen = []

    def f(t, x, u):
        seen.append(u)
        return [-v for v in x]

    m = _scalar_model(f)
    u = [0.7]
    rk4_step(m, 0.0, [1.0], u, 0.1)
    assert len(seen) == 4
    assert all(stage_u is u for stage_u in seen)


def _numpy_benchmark_f(t, x, u):
    x1, x2, x3, x4 = x
    u1, u2 = u
    return np.array([x1 + x1 * x1 * u1, x3, x4, -x4 + x3 + x2 + x1 * u1 * u2])


def _numpy_rk4_step(f, t, x, u, h):
    """Reference: the classical step on numpy arrays."""
    half = 0.5 * h
    k1 = f(t, x, u)
    k2 = f(t + half, x + half * k1, u)
    k3 = f(t + half, x + half * k2, u)
    k4 = f(t + h, x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@settings(max_examples=200)
@given(
    x=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    u=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    t=st.floats(0.0, 200.0),
    h=st.sampled_from([1e-3, 0.01, 0.05]),
)
def test_rk4_step_on_floats_equals_numpy_array_step(x, u, t, h):
    got = rk4_step(example_plant(), t, x, u, h)
    want = _numpy_rk4_step(_numpy_benchmark_f, t, np.array(x), np.array(u), h)
    assert all(type(v) is float for v in got)
    assert np.array_equal(np.array(got), want)


def test_trust_region_constant():
    assert TRUST_REGION == 1e9


# --------------------------------------------------------- flat consistency


def test_relations_vanish_on_consistent_static_point():
    e1, e2 = benchmark_relations()
    # y1 = 1, dy1 = 0 -> u1 = -1;  y2 = 3 (static) -> u2 = 3 balances E2
    table = np.zeros((2, 4))
    table[0, 0] = 1.0
    table[1, 0] = 3.0
    assert e1.residual(table[:, :2], -1.0) == 0.0
    assert e2.residual(table, 3.0) == 0.0


def test_relation_table_shapes():
    e1, e2 = benchmark_relations()
    assert e1.orders == (1, 0) and e1.control_index == 0
    assert e2.orders == (1, 3) and e2.control_index == 1
    assert e1.n_outputs == e2.n_outputs == 2
