"""Benchmark plant, its flat relations, and the fixed-step integrator."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import ConfigurationError, DivergenceError
from heol.plant import (
    TRUST_REGION,
    MismatchSpec,
    PlantModel,
    _block,
    _compile,
    _names,
    _rated_plant,
    _rk4,
    benchmark_relations,
    example_plant,
    rk4_step,
)
from heol.scenarios import PLANTS, builtin_scenario, validate_scenario
from heol.signals import make_smoothstep

from conftest import ultralocal_scenario


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


def _x0(references, mismatch=None, base=None):
    """The state a run of ``base`` (``paper-sec4`` by default) starts from, on ``references`` (each a number, for a
    constant, or a reference document) with ``mismatch`` (None: every output unscaled)."""
    docs = tuple(r if isinstance(r, dict) else {"type": "constant", "value": r} for r in references)
    base = base or builtin_scenario("paper-sec4")
    return validate_scenario(dataclasses.replace(base, references=docs, mismatch=mismatch)).x0


_MID_STEP = {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": -5.0, "t_end": 5.0}  # mid-step at t = 0


def test_initial_state_scales_outputs_only():
    x0 = _x0((1.0, 0.0), MismatchSpec(output_scaling=(1.1, 1.0)))
    np.testing.assert_array_equal(x0, [1.1, 0.0, 0.0, 0.0])

    x0 = _x0((1.0, 1.0), MismatchSpec())
    np.testing.assert_array_equal(x0, [1.0, 1.0, 0.0, 0.0])

    x0 = _x0((1.0, 0.0), MismatchSpec(output_scaling=(2.0, 1.0)))
    assert x0[0] == 2.0

    # ultralocal: x = (y, y') to its order, and only y is scaled
    y = make_smoothstep(1.0, 2.0, -5.0, 5.0)
    for order, k_p, k_d in ((1, 1.0, None), (2, 4.0, 4.0)):
        base = ultralocal_scenario(k_p, order=order, k_d=k_d)
        x0 = _x0((_MID_STEP,), MismatchSpec(output_scaling=(2.0,)), base)
        np.testing.assert_array_equal(x0, [2.0 * y.eval(0.0, 0), y.eval(0.0, 1)][:order])


def test_initial_state_seeds_hidden_chain_from_reference_derivatives():
    y2 = make_smoothstep(1.0, 2.0, -5.0, 5.0)  # mid-step at t = 0
    x0 = _x0((1.0, _MID_STEP), MismatchSpec())
    assert x0[1] == y2.eval(0.0, 0) == pytest.approx(1.5)
    assert x0[2] == y2.eval(0.0, 1) != 0.0
    assert x0[3] == y2.eval(0.0, 2)


def test_initial_state_needs_two_factors():
    message = "mismatch carries 1 scaling factors for 2 outputs"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        _x0((1.0, 1.0), MismatchSpec(output_scaling=(1.0,)))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize(
    "plant, params",
    [("flat-benchmark-2x2", {}), ("ultralocal", {"order": 1}), ("ultralocal", {"order": 2})],
    ids=["benchmark", "ultralocal-order-1", "ultralocal-order-2"],
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_each_declared_state_is_a_derivative_of_a_flat_output(plant, params, data):
    # state[i] == (l, k): state i is the k-th derivative of flat output l, so its rate is the state (l, k + 1)
    model, state, *_ = PLANTS[plant][0](params)
    x = data.draw(st.lists(_FINITE, min_size=model.n_states, max_size=model.n_states), label="x")
    u = data.draw(st.lists(_FINITE, min_size=model.n_controls, max_size=model.n_controls), label="u")
    assert len(state) == model.n_states
    rates = model.f(0.0, x, u)
    for i, (l, k) in enumerate(state):
        if (l, k + 1) in state:
            assert rates[i] == x[state.index((l, k + 1))]
    assert list(model.output(x)) == [x[state.index((l, 0))] for l in range(model.n_outputs)]


def test_a_plant_declaring_too_few_states_is_refused(monkeypatch):
    factory, params = PLANTS["flat-benchmark-2x2"]

    def short(plant_params):
        model, state, *rest = factory(plant_params)
        return (model, state[:3], *rest)

    monkeypatch.setitem(PLANTS, "flat-benchmark-2x2", (short, params))
    message = "initial state has shape (3,), plant needs (4,)"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        validate_scenario(builtin_scenario("paper-sec4"))


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


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_rk4_rejects_non_finite_step(h):
    m = _scalar_model(lambda t, x, u: list(x))
    with pytest.raises(ConfigurationError, match="positive and finite"):
        rk4_step(m, 0.0, [1.0], [0.0], h)


@pytest.mark.parametrize("h", ["x", None])
def test_rk4_rejects_a_step_that_is_not_a_number(h):
    m = _scalar_model(lambda t, x, u: list(x))
    with pytest.raises(ConfigurationError, match=f"^h must be a finite number, got {h!r}$"):
        rk4_step(m, 0.0, [1.0], [0.0], h)


@pytest.mark.parametrize(
    "model", [_scalar_model(lambda t, x, u: [t]), example_plant()], ids=["without-rate-text", "with-rate-text"]
)
def test_rk4_rejects_a_time_that_is_not_a_number(model):
    with pytest.raises(ConfigurationError, match="^t must be a finite number, got 'a'$"):
        rk4_step(model, "a", [1.0] * model.n_states, [0.0] * model.n_controls, 0.1)


def test_rk4_flags_non_finite_derivatives():
    m = _scalar_model(lambda t, x, u: [math.inf])
    with pytest.raises(DivergenceError) as err:
        rk4_step(m, 2.25, [1.0], [0.0], 0.1)
    assert "t=2.25" in str(err.value)


@pytest.mark.parametrize(
    "n_states, field, x, wrong",
    [
        (3, lambda t, x, u: (x[1], -x[0]), [1.0, 0.0, 5.0], "f returned 2 entries"),
        (2, lambda t, x, u: (x[1], -x[0]), [1.0, 0.0, 5.0], "the state has 3 entries"),
        (2, lambda t, x, u: (x[1], -x[0]), [1.0], "the state has 1 entries"),
        (1, lambda t, x, u: (x[0], x[0]), [1.0], "f returned 2 entries"),
    ],
)
def test_rk4_rejects_length_mismatch(n_states, field, x, wrong):
    m = PlantModel(n_states, 1, 1, field, lambda x: x[:1])
    with pytest.raises(ConfigurationError, match=f"n_states={n_states}, but {wrong}"):
        rk4_step(m, 0.0, x, [0.0], 0.1)


def test_rk4_passes_on_value_errors_raised_by_f():
    m = _scalar_model(lambda t, x, u: [math.sqrt(x[0])])
    with pytest.raises(ValueError, match="math domain error"):
        rk4_step(m, 0.0, [-1.0], [0.0], 0.1)


@pytest.mark.parametrize("n", [0, 2.0, None, True])
def test_plant_model_rejects_non_integer_dimensions(n):
    with pytest.raises(ConfigurationError, match="integers of at least 1"):
        PlantModel(n, 1, 1, lambda t, x, u: x, lambda x: x)


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


def _numpy_rk4_step(f, t, x, u, h):
    """Reference: the classical step on numpy arrays."""
    half = 0.5 * h
    k1 = f(t, x, u)
    k2 = f(t + half, x + half * k1, u)
    k3 = f(t + half, x + half * k2, u)
    k4 = f(t + h, x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _numpy_field(f):
    return lambda t, x, u: np.array(f(t, x, u))


def _assert_float_step_equals_numpy_step(model, t, x, u, h):
    got = rk4_step(model, t, x, u, h)
    want = _numpy_rk4_step(_numpy_field(model.f), t, np.array(x), np.array(u), h)
    assert all(type(v) is float for v in got)
    assert np.array_equal(np.array(got), want)
    # a numpy state, as acceptance test 8 passes it, steps to the same values
    assert np.array_equal(np.array(rk4_step(model, t, np.array(x), u, h)), want)


@settings(max_examples=200)
@given(
    x=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    u=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    t=st.floats(0.0, 200.0),
    h=st.sampled_from([1e-3, 0.01, 0.05]),
)
def test_rk4_step_on_floats_equals_numpy_array_step(x, u, t, h):
    _assert_float_step_equals_numpy_step(example_plant(), t, x, u, h)


@st.composite
def _polynomial_plants(draw):
    """A plant of 1-6 states with ``dx_i/dt = c0 + c1 x_i x_(i+1) + c2 u + c3 t`` (indices mod n)."""
    n = draw(st.integers(1, 6))
    coeff = st.floats(-2.0, 2.0)
    cs = draw(st.lists(st.tuples(coeff, coeff, coeff, coeff), min_size=n, max_size=n))

    def f(t, x, u):
        return [c0 + c1 * x[i] * x[(i + 1) % n] + c2 * u[0] + c3 * t for i, (c0, c1, c2, c3) in enumerate(cs)]

    return PlantModel(n, 1, 1, f, lambda x: x[:1])


@settings(max_examples=200)
@given(
    model=_polynomial_plants(),
    data=st.data(),
    t=st.floats(0.0, 10.0),
    h=st.sampled_from([1e-3, 0.01, 0.05]),
)
def test_rk4_step_equals_numpy_array_step_for_any_state_count(model, data, t, h):
    x = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=model.n_states, max_size=model.n_states))
    _assert_float_step_equals_numpy_step(model, t, x, [data.draw(st.floats(-2.0, 2.0))], h)


def _ultralocal(order):
    return PLANTS["ultralocal"][0]({"order": order, "f": 0.5, "gain": 1.3})[0]


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=50)
@given(
    x=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    u=st.floats(-5.0, 5.0),
    t=st.floats(0.0, 200.0),
    h=st.sampled_from([1e-3, 0.01, 0.05]),
)
def test_rk4_step_on_ultralocal_plant_equals_numpy_array_step(order, x, u, t, h):
    _assert_float_step_equals_numpy_step(_ultralocal(order), t, x[:order], [u], h)


def _inline_step(plant: PlantModel):
    """``step(t, x, u, h)`` made of ``_rk4``'s stages as the sample loop inlines them: the rate text with the plant's
    parameters bound, or calls of ``f`` for a plant without rate text."""
    rates, n, m = getattr(plant.f, "rates", None), plant.n_states, plant.n_controls
    stages, new = _rk4(rates, n)
    source = _block("def step(t, x, u, h):", f"[{_names('x', n)}] = x", f"[{_names('u', m)}] = u",
                    "half, h6 = 0.5 * h, h / 6.0", *stages, f"return [{', '.join(new)}]")
    exec(source, namespace := {"f": plant.f, **getattr(plant.f, "params", {})})
    return namespace["step"]


def test_rk4_body_steps_a_batch_of_arrays_row_for_row():
    # one (B,) array per state and per control: each row is its own float step, because the finiteness
    # check lives in rk4_step and the loop, outside the stages' arithmetic; the stages call f at each
    # stage for a wrapped f, and inline the rate text for a generated one
    bench = example_plant()
    called = PlantModel(4, 2, 2, lambda t, x, u: bench.f(t, x, u), bench.output)
    rng = np.random.default_rng(12)
    for plant in (bench, called, _ultralocal(1), _ultralocal(2)):
        x = rng.uniform(-10.0, 10.0, size=(plant.n_states, 5000))
        u = rng.uniform(-5.0, 5.0, size=(plant.n_controls, 5000))
        got = _inline_step(plant)(1.5, list(x), list(u), 0.01)
        want = [rk4_step(plant, 1.5, x[:, b].tolist(), u[:, b].tolist(), 0.01) for b in range(x.shape[1])]
        assert np.array_equal(np.array(got), np.array(want).T)


def test_rk4_step_does_not_generate_its_stages(monkeypatch):
    # rk4_step is the reference the loop's stages are held to, so it must not be made of them
    bench = example_plant()
    called = PlantModel(4, 2, 2, lambda t, x, u: bench.f(t, x, u), bench.output)
    x, u = [0.3, -1.2, 0.7, 2.5], [0.4, -0.9]
    want = rk4_step(bench, 1.5, x, u, 0.01)

    def refuse(*args):
        raise AssertionError("_rk4 was called")

    monkeypatch.setattr("heol.plant._rk4", refuse)
    _compile.cache_clear()
    for plant in (bench, called):
        assert rk4_step(plant, 1.5, x, u, 0.01) == want


def test_the_rk4_stages_compute_each_expression_once_and_drop_unread_states():
    # ultralocal order 2: x0' = x1, x1' = drift + gain u0.  The rate reads no state, so it is one line for all four
    # stages, xc1 = x1 + half * kb1 repeats xb1's text, and no rate reads x0, so no stage state of it is kept
    stages, new = _rk4(("x1", "drift + gain * u0"), 2)
    assert stages == ["ka1 = drift + gain * u0", "xb1 = x1 + half * ka1", "xd1 = x1 + h * ka1"]
    assert new == ["x0 + h6 * (x1 + 2.0 * xb1 + 2.0 * xb1 + xd1)", "x1 + h6 * (ka1 + 2.0 * ka1 + 2.0 * ka1 + ka1)"]
    # a Python f is still called once per stage, on every stage state
    stages, _ = _rk4(None, 2)
    assert [line for line in stages if "= f(" in line] == [
        "[ka0, ka1] = f(t, [x0, x1], u)", "[kb0, kb1] = f(t + half, [xb0, xb1], u)",
        "[kc0, kc1] = f(t + half, [xc0, xc1], u)", "[kd0, kd1] = f(t + h, [xd0, xd1], u)"]


@pytest.mark.parametrize(
    "rates, params, message",
    [
        (("k + u0",), {}, "plant rate 'k + u0' reads 'k', not t, x0..x0, u0..u0 or a parameter"),
        (("x1 + u0",), {}, "plant rate 'x1 + u0' reads 'x1', not t, x0..x0, u0..u0 or a parameter"),
        (("u1",), {}, "plant rate 'u1' reads 'u1', not t, x0..x0, u0..u0 or a parameter"),
        (("x0 +",), {}, "plant rate 'x0 +' does not parse: invalid syntax"),
        (("x0 + u0",), {"x0": 1.0}, "plant parameter 'x0' must be an identifier other than t, x<i> and u<j>"),
        (("x0 + u0",), {"t": 1.0}, "plant parameter 't' must be an identifier other than t, x<i> and u<j>"),
        (("x0 + u0",), {"2a": 1.0}, "plant parameter '2a' must be an identifier other than t, x<i> and u<j>"),
    ],
    ids=["reads-the-loops-k", "reads-no-such-state", "reads-no-such-control", "does-not-parse", "parameter-x0",
         "parameter-t", "parameter-not-an-identifier"],
)
def test_rate_text_that_reads_a_name_not_its_own_is_refused(rates, params, message):
    # inline in the loop, a free name would read the loop's local of that name (k, the sample index)
    with pytest.raises(ConfigurationError) as err:
        _rated_plant(rates, 1, 1, lambda x: (x[0],), **params)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rate, part",
    [
        ("x0[0]", "x0[0]"),
        ("(x0, u0)", "(x0, u0)"),
        ("x0 @ u0", "x0 @ u0"),
        ("x0 < 1.0", "x0 < 1.0"),
        ("not x0", "not x0"),
        ("x0 and u0", "x0 and u0"),
        ("x0 if u0 else 1.0", "x0 if u0 else 1.0"),
        ("x0.real + u0", "x0.real"),
        ("x0 // 2.0 + u0", "x0 // 2.0"),
        ("x0 % 2.0 + u0", "x0 % 2.0"),
    ],
    ids=["subscript", "tuple", "matmul", "comparison", "not", "and", "conditional", "attribute", "floor-division",
         "modulo"],
)
def test_rate_text_that_is_not_arithmetic_is_refused(rate, part):
    # the first three raised a bare TypeError in the run, the others ran on a value no plant rate means
    with pytest.raises(ConfigurationError) as err:
        _rated_plant((rate,), 1, 1, lambda x: (x[0],))
    assert str(err.value) == (f"plant rate {rate!r} is not arithmetic at {part!r}: a rate holds int and float "
                              "constants and names under + - * / ** and unary -, +")


@pytest.mark.parametrize(
    "plant, u, wrong",
    [
        (example_plant(), [1.0], "n_controls=2, but the control has 1 entries"),
        (example_plant(), [1.0, 2.0, 3.0], "n_controls=2, but the control has 3 entries"),
        (_ultralocal(2), [1.0, 9.0], "n_controls=1, but the control has 2 entries"),
        (_ultralocal(2), [], "n_controls=1, but the control has 0 entries"),
    ],
    ids=["benchmark-short", "benchmark-long", "ultralocal-long", "ultralocal-empty"],
)
def test_rk4_names_a_control_of_the_wrong_length(plant, u, wrong):
    with pytest.raises(ConfigurationError, match=f"^plant has {wrong}$"):
        rk4_step(plant, 0.0, [1.0] * plant.n_states, u, 0.01)


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
