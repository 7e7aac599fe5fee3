"""Channel derivation: orders, tangent gains, and nominal controls."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heol.homeostat
import heol.scenarios
from conftest import ultralocal_scenario
from heol.errors import ConfigurationError, HeolError, SingularChannelError
from heol.homeostat import (
    ImplicitFlatRelation,
    build_reference_table,
    _partial,
    derive_channel,
    nominal_u1,
    nominal_u2,
)
from heol.plant import benchmark_relations
from heol.scenarios import (
    PLANTS,
    Timing,
    builtin_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from heol.signals import MAX_ORDER, ReferenceTrajectory, make_constant, make_smoothstep

HORIZON = (0.0, 10.0)


def integrator_relation():
    # E = dy/dt - u
    return ImplicitFlatRelation(orders=(1,), control_index=0, residual=lambda tb, u: tb[0, 1] - u)


def bench_refs():
    """Reference pair keeping y1* away from 0 and u1* away from 0."""
    return (
        make_smoothstep(1.0, 2.0, 1.0, 4.0),
        make_smoothstep(1.0, 2.0, 5.0, 8.0),
    )


# ------------------------------------------------------------ finite diffs


def test_finite_diff_control_partial_of_first_relation():
    e1, _ = benchmark_relations()
    table = np.array([[2.0, 0.0], [0.0, 0.0]])
    # dE1/du = -y1^2 = -4 at y1 = 2
    assert _partial(e1, "u", table, 0.0, t=0.0) == pytest.approx(-4.0, abs=1e-6)


def test_finite_diff_derivative_partial_of_integrator():
    rel = integrator_relation()
    table = np.array([[0.3, -1.2]])
    assert _partial(rel, (0, 1), table, 0.7, t=0.0) == pytest.approx(1.0, abs=1e-9)


def test_finite_diff_partial_of_residual_returning_a_view_of_the_table():
    # the residual hands back the shifted slot itself, not a copy of it
    rel = ImplicitFlatRelation(orders=(1,), control_index=0, residual=lambda tb, u: tb[0, 1])
    table = np.zeros((1, 2, 5))
    table[0, 1] = [-3.0, -0.5, 0.0, 0.5, 3.0]
    np.testing.assert_allclose(_partial(rel, (0, 1), table, np.zeros(5), t=0.0), 1.0, rtol=1e-9)
    np.testing.assert_array_equal(table[0, 1], [-3.0, -0.5, 0.0, 0.5, 3.0])  # restored


def test_finite_diff_control_partial_of_second_relation():
    _, e2 = benchmark_relations()
    # y1 = 1, dy1 = 0 makes u1 = (0 - 1)/1 = -1; dE2/du2 = -y1 u1 = 1
    table = np.zeros((2, 4))
    table[0, 0] = 1.0
    assert _partial(e2, "u", table, 0.0, t=0.0) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------- derive_channel


def test_derive_channel_first_relation_constant_reference():
    e1, _ = benchmark_relations()
    refs = (make_constant(2.0), make_constant(1.0))
    chan = derive_channel(e1, refs, HORIZON)
    assert chan.order == 1
    assert chan.output_index == 0
    for t in (0.0, 3.3, 10.0):
        assert chan.alpha(t) == pytest.approx(4.0, rel=1e-6)


def test_derive_channel_integrator_has_unit_gain():
    chan = derive_channel(integrator_relation(), (make_constant(0.0),), HORIZON)
    assert chan.order == 1
    assert chan.alpha(5.0) == pytest.approx(1.0, rel=1e-9)


def test_derive_channel_second_relation_with_override():
    _, e2 = benchmark_relations()
    refs = bench_refs()
    u2_star = lambda t: nominal_u2(refs[0], refs[1], t)
    chan = derive_channel(
        e2, refs, HORIZON, order_override=2, output_index=1, nominal_control=u2_star
    )
    assert chan.order == 2
    for t in np.linspace(*HORIZON, 32):
        want = refs[0].eval(t, 1) / refs[0].eval(t, 0) - 1.0
        assert chan.alpha(float(t)) == pytest.approx(want, rel=1e-6)


@st.composite
def benchmark_reference_pairs(draw):
    """A smoothstep pair keeping y1* >= 0.5 and y1*'/y1* - 1 <= -0.1.

    The degree-7 step peaks at rate 35/16 * amplitude / duration, so a rise
    capped at 0.9 y1*(t_start) * duration / (35/16) keeps y1*' <= 0.9 y1*; a
    fall has y1*' <= 0.
    """
    y_from = draw(st.floats(0.5, 3.0))
    t_start = draw(st.floats(-5.0, 5.0))
    duration = draw(st.floats(0.5, 20.0))
    y_to = draw(st.floats(0.5, y_from + 0.9 * y_from * duration / (35.0 / 16.0)))
    y1 = make_smoothstep(y_from, y_to, t_start, t_start + duration)
    levels = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    y2_start, y2_duration = draw(st.floats(-5.0, 5.0)), draw(st.floats(1.0, 20.0))
    return y1, make_smoothstep(*levels, y2_start, y2_start + y2_duration)


@settings(max_examples=60, deadline=None)
@given(refs=benchmark_reference_pairs())
def test_derived_benchmark_gains_match_closed_forms(refs):
    # the closed forms the benchmark plant registers for its formula alpha
    # (y1*^2 and, at the pinned order 2, y1*'/y1* - 1), at float and array times
    horizon = (-10.0, 30.0)
    factory, _ = PLANTS["flat-benchmark-2x2"]
    _, _, (e1, e2), formulas, nominals = factory({})
    u1, u2 = (lambda t, tag=tag: nominals[tag](build_reference_table(refs, t), t) for tag in ("flat-u1", "flat-u2"))
    first = derive_channel(e1, refs, horizon, nominal_control=u1)
    second = derive_channel(e2, refs, horizon, order_override=2, output_index=1, nominal_control=u2)
    assert first.order == 1
    times = np.linspace(*horizon, 81)
    for chan, formula in zip((first, second), formulas, strict=True):
        closed_form = lambda t, formula=formula: formula(build_reference_table(refs, t), t)  # noqa: E731
        np.testing.assert_allclose(chan.alpha(times), closed_form(times), rtol=1e-6, atol=0.0)
        for t in times[::8]:
            assert chan.alpha(float(t)) == pytest.approx(closed_form(float(t)), rel=1e-6, abs=0.0)


def _reference_document(ref):
    if ref.t_start == math.inf:
        return {"type": "constant", "value": ref.y_from}
    return {"type": "smoothstep", "from": ref.y_from, "to": ref.y_to, "t_start": ref.t_start, "t_end": ref.t_end}


def _outcome(evaluate):
    try:
        return evaluate()
    except HeolError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(refs=benchmark_reference_pairs(), data=st.data())
def test_public_alpha_is_the_runs_reader_bit_for_bit(refs, data):
    # derive_channel(...).alpha(t) against the derived channel paper-sec4 builds, read off the table at t
    doc = scenario_to_dict(builtin_scenario("paper-sec4"))
    doc["references"] = [_reference_document(ref) for ref in refs]
    doc["channels"] = [{**ch, "alpha": {"source": "derived"}} for ch in doc["channels"]]
    built = validate_scenario(scenario_from_dict(doc))
    assert built.references == refs
    horizon = (0.0, built.scenario.timing.n_steps * built.scenario.timing.h)
    nominals = (lambda t: nominal_u1(refs[0], t), lambda t: nominal_u2(*refs, t, 1.1, 0.9))  # flat-u2-miscoeff
    times = st.floats(-20.0, 200.0) | st.just(math.nan)
    t = data.draw(times | st.lists(times, max_size=6).map(lambda ts: np.array(ts, dtype=float)))
    for relation, nominal, spec, ch in zip(benchmark_relations(), nominals, built.scenario.channels, built.channels):
        public = derive_channel(relation, refs, horizon, spec.order, spec.output, nominal)
        got = _outcome(lambda: public.alpha(t))
        want = _outcome(lambda: ch.alpha(build_reference_table(built.references, t), t))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_smallest_index_rule_on_second_relation_gives_order_one():
    # without the override the second relation depends on dy2/dt already
    _, e2 = benchmark_relations()
    chan = derive_channel(e2, bench_refs(), HORIZON, output_index=1)
    assert chan.order == 1


def test_derive_channel_degenerate_relation():
    rel = ImplicitFlatRelation(orders=(1,), control_index=0, residual=lambda tb, u: tb[0, 0] - u)
    with pytest.raises(ConfigurationError, match="residual does not depend on any derivative of output 0 up to order 1"):
        derive_channel(rel, (make_constant(1.0),), HORIZON)


def test_derive_channel_zero_gain_is_singular():
    # E = dy/dt alone: control never enters, alpha would be 0
    rel = ImplicitFlatRelation(orders=(1,), control_index=0, residual=lambda tb, u: tb[0, 1])
    with pytest.raises(SingularChannelError):
        derive_channel(rel, (make_constant(1.0),), HORIZON)


def test_derive_channel_vanishing_denominator_names_a_time():
    # E = y * dy/dt - u degenerates wherever the reference passes through 0
    rel = ImplicitFlatRelation(
        orders=(1,),
        control_index=0,
        residual=lambda tb, u: tb[0, 0] * tb[0, 1] - u,
    )
    ref = make_smoothstep(1.0, 0.0, 4.0, 8.0)  # constant 0 past t = 8
    with pytest.raises(SingularChannelError) as err:
        derive_channel(rel, (ref,), (0.0, 10.0))
    assert "t=" in str(err.value)


@pytest.mark.parametrize("horizon", [(0.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0)])
def test_derive_channel_rejects_a_non_finite_horizon(horizon):
    # np.linspace would probe at nan and inf and derive a channel from the plateaus there
    e1, _ = benchmark_relations()
    with pytest.raises(ConfigurationError, match=r"^horizon needs finite t_lo < t_hi"):
        derive_channel(e1, bench_refs(), horizon)


def test_derive_channel_validates_override_range():
    e1, _ = benchmark_relations()
    refs = (make_constant(2.0), make_constant(1.0))
    with pytest.raises(ConfigurationError):
        derive_channel(e1, refs, HORIZON, order_override=2)  # E1 only reads dy1/dt


def test_alpha_invariant_under_residual_scaling():
    e1, _ = benchmark_relations()
    scaled = ImplicitFlatRelation(
        orders=e1.orders,
        control_index=0,
        residual=lambda tb, u: 137.0 * e1.residual(tb, u),
    )
    refs = (make_smoothstep(1.0, 2.0, 2.0, 6.0), make_constant(1.0))
    a = derive_channel(e1, refs, HORIZON)
    b = derive_channel(scaled, refs, HORIZON)
    for t in np.linspace(*HORIZON, 16):
        assert b.alpha(float(t)) == pytest.approx(a.alpha(float(t)), rel=1e-9)


def test_build_reference_table_layout():
    refs = (make_constant(2.0), make_smoothstep(0.0, 1.0, 0.0, 1.0))
    table = build_reference_table(refs, 0.5, (1, 3))
    assert table.shape == (2, 4)
    assert table[0, 0] == 2.0 and table[0, 1] == 0.0
    assert table[1, 0] == 0.5  # smoothstep midpoint


_LEVELS = st.sampled_from((0.0, -0.0, 1.0, -2.5)) | st.floats(-1e3, 1e3)


@st.composite
def _reference(draw):
    y_from = draw(_LEVELS)
    if draw(st.booleans()):
        return make_constant(y_from)
    t_start = draw(st.floats(-50.0, 50.0))  # a step from 0.0 to -0.0 too
    return ReferenceTrajectory(y_from, draw(_LEVELS), t_start, t_start + draw(st.floats(1e-3, 100.0)))


def _bits(values):
    return np.ravel(np.asarray(values, dtype=float)).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_pass_table_is_eval_bit_for_bit(data):
    # each reference fills its orders in one pass: every entry is eval's, at an array and at each time of it
    refs = data.draw(st.lists(_reference(), min_size=1, max_size=2))
    orders = data.draw(st.tuples(*(st.integers(0, MAX_ORDER) for _ in refs)))
    edges = [math.inf, -math.inf] + [end for ref in refs for end in (ref.t_start, ref.t_end)]
    time = st.sampled_from(edges) | st.floats(-100.0, 200.0)  # on t_start and t_end, before, inside and after
    t = data.draw(time | st.lists(time, max_size=8).map(np.array))
    table = build_reference_table(refs, t, orders)
    assert table.shape == (len(refs), max(orders) + 1) + np.shape(t)
    for l, ref in enumerate(refs):
        for k in range(orders[l] + 1):
            assert np.array_equal(_bits(table[l, k]), _bits(ref.eval(t, k)))
            assert np.array_equal(_bits(table[l, k]), _bits([ref.eval(float(s), k) for s in np.ravel(t)]))
        assert not table[l, orders[l] + 1 :].any()

    # a NaN anywhere is refused as eval refuses it, naming its place in an array
    if np.ndim(t):
        i = data.draw(st.integers(0, np.size(t)))
        bad, where = np.insert(t, i, math.nan), f" (time {i} of {np.size(t) + 1})"
    else:
        bad, where = math.nan, ""
    for ref in refs:
        for evaluate in (lambda: ref.eval(bad, MAX_ORDER), lambda: build_reference_table((ref,), bad, (MAX_ORDER,))):
            with pytest.raises(ConfigurationError) as err:
                evaluate()
            assert str(err.value) == f"cannot evaluate a reference at t=nan{where}"


# --------------------------------------------------------- nominal controls


class PolynomialReference:
    """A reference polynomial in t with ascending ``coeffs``: the ``eval`` and ``_rows`` the nominal controls read."""

    def __init__(self, *coeffs):
        self.poly = np.polynomial.Polynomial(coeffs)

    def eval(self, t, order=0):
        return float(self.poly.deriv(order)(t))

    def _rows(self, t, orders, out):  # a reference table's one call per reference, read off eval
        for i, k in enumerate(orders):
            out[i] = self.eval(t, k)
        return out


def test_nominal_u1_constant_reference():
    assert nominal_u1(make_constant(1.0), 3.0) == -1.0


def test_nominal_u1_zero_numerator():
    # slope equals value (2 + 2t at t = 0): numerator dy1* - y1* vanishes
    ref = PolynomialReference(2.0, 2.0)
    assert nominal_u1(ref, 0.0) == 0.0


def test_nominal_u1_singular_at_zero_reference():
    with pytest.raises(SingularChannelError):
        nominal_u1(make_constant(0.0), 1.0)


def test_nominal_u2_constant_references():
    # y1* = 1 gives u1* = -1; numerator is -y2* = -3; -3 / (1 * -1) = 3
    assert nominal_u2(make_constant(1.0), make_constant(3.0), 0.0) == 3.0


def test_nominal_u2_zero_numerator():
    assert nominal_u2(make_constant(1.0), make_constant(0.0), 2.0) == 0.0


def test_nominal_u2_singular_where_u1_vanishes():
    ref = PolynomialReference(2.0, 2.0)
    with pytest.raises(SingularChannelError):
        nominal_u2(ref, make_constant(1.0), 0.0)


def test_nominal_u2_checks_y1_before_the_product():
    with pytest.raises(SingularChannelError, match="degenerates at y1 = 0"):
        nominal_u2(make_constant(0.0), make_constant(1.0), 0.0)


def test_nominal_u2_evaluates_each_reference_order_once():
    seen = []

    class Counted(PolynomialReference):
        def eval(self, t, order=0):
            seen.append((self, order))
            return super().eval(t, order)

    y1, y2 = Counted(2.0, 0.5), Counted(1.0, -2.0, 1.0)
    nominal_u2(y1, y2, 0.3)
    assert sorted((ref is y2, k) for ref, k in seen) == [(False, 0), (False, 1)] + [(True, k) for k in range(4)]


def test_perturbed_u2_scales_constant_reference():
    # constant y2* = c: nominal gives c, the mis-weighted variant 0.9 c
    for c in (3.0, -1.5):
        got = nominal_u2(make_constant(1.0), make_constant(c), 0.0, 1.1, 0.9)
        assert got == pytest.approx(0.9 * c, rel=1e-12)
    assert nominal_u2(make_constant(1.0), make_constant(0.0), 0.0, 1.1, 0.9) == 0.0


def test_perturbed_u2_matches_nominal_when_low_order_terms_vanish():
    # the perturbation touches only the dy2*/dt and y2* coefficients, so the
    # two formulas agree wherever y2* and its first derivative vanish
    y1 = make_constant(2.0)
    y2 = PolynomialReference(1.0, -2.0, 1.0)  # (t-1)^2
    got = nominal_u2(y1, y2, 1.0, 1.1, 0.9)
    assert got == nominal_u2(y1, y2, 1.0)
    assert got == pytest.approx(-2.0, rel=1e-12)  # numerator 2, beta -1


def _derive(residual, ref):
    rel = ImplicitFlatRelation(orders=(1,), control_index=0, residual=residual)
    return derive_channel(rel, (ref,), HORIZON)


def _formula_alpha2(refs, t):
    factory, _ = PLANTS["flat-benchmark-2x2"]
    return factory({})[3][1](build_reference_table(refs, t), t)


def _run_sec4_with_second_gain(alpha):
    # a scenario cannot declare so small a constant gain, so it goes into the built run
    short = dataclasses.replace(builtin_scenario("paper-sec4"), timing=Timing(duration=1.0, h=0.01))
    built = validate_scenario(short)
    built.channels[1] = dataclasses.replace(built.channels[1], alpha=alpha)
    run_scenario(built)


@pytest.mark.parametrize(
    "singular, message",
    [
        (
            lambda: derive_channel(benchmark_relations()[1], (make_constant(0.0), make_constant(1.0)), HORIZON),
            "dE/du is not finite at t=0; channel degenerated there",
        ),
        (
            lambda: _derive(lambda tb, u: tb[0, 0] * tb[0, 1] - u, make_smoothstep(1.0, 0.0, 4.0, 8.0)),
            "dE/dy1^(1) vanishes at t=8.06452; channel degenerated there",
        ),
        (
            lambda: _derive(lambda tb, u: tb[0, 1], make_constant(1.0)),
            "channel gain alpha is zero at t=0; control does not act there",
        ),
        (
            lambda: nominal_u1(make_constant(0.0), 0.0),
            "y1* = 0.0 at t=0: first-channel inversion degenerates at y1 = 0",
        ),
        (
            lambda: nominal_u2(PolynomialReference(2.0, 2.0), make_constant(1.0), 0.0),
            "y1*·u1* = 0.0 at t=0: second-channel inversion degenerates there",
        ),
        (
            lambda: _formula_alpha2((make_constant(0.0), make_constant(1.0)), np.array([0.0, 0.5])),
            "alpha formula divides by y1*=0.0 at t=0",
        ),
        (
            lambda: _run_sec4_with_second_gain(lambda table, t, u=None: np.full(np.shape(t), 1e-12)),
            "channel 2 at t=0: cannot divide by channel gain alpha=1e-12",
        ),
        *(
            (
                lambda a=alpha: _run_sec4_with_second_gain(lambda table, t, u=None: np.full(np.shape(t), a)),
                f"channel 2 at t=0: cannot divide by channel gain alpha={alpha!r}",
            )
            for alpha in (0.0, -1e-9, math.nan, math.inf)
        ),
    ],
    ids=[
        "dE-du", "dE-dy", "alpha-zero", "y1-zero", "y1-u1-zero", "formula-y1-zero", "grid-gain",
        "grid-gain-zero", "grid-gain-at-threshold", "grid-gain-nan", "grid-gain-inf",
    ],
)
def test_each_singularity_names_its_value_and_first_time(singular, message):
    with pytest.raises(SingularChannelError) as err:
        singular()
    assert str(err.value) == message


def test_each_time_grid_reads_one_reference_table(monkeypatch):
    # validate: one table at the 32 derivation probes, none without a derived channel;
    # run: one table at the grid times and one at mid-hold, read by every channel
    sizes = []

    def counted(refs, t, *orders):
        sizes.append(np.size(t))
        return build(refs, t, *orders)

    build = heol.homeostat.build_reference_table
    for module in (heol.homeostat, heol.scenarios):
        monkeypatch.setattr(module, "build_reference_table", counted)
    sec4 = scenario_to_dict(builtin_scenario("paper-sec4"))
    sec4["timing"]["duration"] = 1.0
    derived = {**sec4, "channels": [{**ch, "alpha": {"source": "derived"}} for ch in sec4["channels"]]}
    ultralocal = ultralocal_scenario(4.0, order=2, k_d=4.0, duration=1.0, noise_std=1e-3)
    for scenario, probe_tables in ((scenario_from_dict(sec4), 0), (scenario_from_dict(derived), 1), (ultralocal, 0)):
        sizes.clear()
        built = validate_scenario(scenario)
        assert sizes == [32] * probe_tables
        run_scenario(built)
        assert sizes[probe_tables:] == [101, 101]


def test_the_probe_table_holds_every_order_a_feedforward_reads():
    # channel 1 alone is derived, on the feedforward that inverts control 2, which reads y2 to order 3: the probe
    # table holds the orders of all the plant's relations, (1, 3), not the derived relation's (1, 0) alone
    doc = scenario_to_dict(builtin_scenario("paper-sec4"))
    doc["channels"][0] = {**doc["channels"][0], "alpha": {"source": "derived"}, "nominal": "flat-u2"}
    built = validate_scenario(scenario_from_dict(doc))
    assert [ch.order for ch in built.channels] == [1, 2]


@pytest.mark.parametrize("alpha, calls", [("formula", 8), ("derived", 10)])
def test_every_reference_value_comes_from_eval(monkeypatch, alpha, calls):
    # every value comes through the trajectory's one evaluator, once per table and reference: a derived channel's
    # 32-probe table of the orders the relations read, y1 to 1 and y2 to 3; the initial state's four values, read
    # one at a time; the run's tables at the grid times and at mid-hold, of every order of both references
    passes, reads = [], []

    def counted_rows(self, t, orders, out):
        passes.append((refs.index(self), np.size(t), tuple(orders)))
        return rows(self, t, orders, out)

    def counted_eval(self, t, order=0):
        reads.append((refs.index(self), order))
        return evaluate(self, t, order)

    rows, evaluate = ReferenceTrajectory._rows, ReferenceTrajectory.eval
    monkeypatch.setattr(ReferenceTrajectory, "_rows", counted_rows)
    monkeypatch.setattr(ReferenceTrajectory, "eval", counted_eval)
    sec4 = scenario_to_dict(builtin_scenario("paper-sec4"))
    sec4["timing"]["duration"] = 5.0
    sec4["channels"] = [{**ch, "alpha": {"source": alpha}} for ch in sec4["channels"]]
    scenario = scenario_from_dict(sec4)
    refs = [make_smoothstep(r["from"], r["to"], r["t_start"], r["t_end"]) for r in sec4["references"]]
    run_scenario(scenario)
    probes = [(0, 32, (0, 1)), (1, 32, (0, 1, 2, 3))] if alpha == "derived" else []
    grid = [(l, scenario.timing.n_points, (0, 1, 2, 3)) for l in range(2)]
    assert passes == probes + 2 * grid
    assert reads == [(0, 0), (1, 0), (1, 1), (1, 2)]
    assert len(passes) + len(reads) == calls


# ----------------------------------------------------- residual consistency


def test_nominal_controls_invert_the_flat_relations():
    e1, e2 = benchmark_relations()
    refs = (
        make_smoothstep(1.0, 2.0, 10.0, 40.0),
        make_smoothstep(1.0, 2.0, 50.0, 80.0),
    )
    for t in np.linspace(0.0, 150.0, 64):
        t = float(t)
        table = build_reference_table(refs, t, (1, 3))
        assert abs(e1.residual(table, nominal_u1(refs[0], t))) <= 1e-8
        assert abs(e2.residual(table, nominal_u2(refs[0], refs[1], t))) <= 1e-8


def benchmark_partials(table, u):
    """Closed-form partials of E1 and E2 at ``(table, u)``: ``(d_table, d_u)`` per relation."""
    y1, dy1 = table[0, 0], table[0, 1]
    d1 = np.zeros_like(table)
    d1[0, 0] = -1.0 - 2.0 * y1 * u
    d1[0, 1] = 1.0
    d2 = np.zeros_like(table)
    d2[0, 0] = u * dy1 / (y1 * y1)
    d2[0, 1] = -u / y1
    d2[1, :] = (-1.0, -1.0, 1.0, 1.0)
    return (d1, -y1 * y1), (d2, -(dy1 - y1) / y1)


def test_finite_difference_partials_match_analytic(rng):
    for _ in range(20):
        table = np.zeros((2, 4))
        table[0, 0] = rng.uniform(0.5, 3.0)  # keep y1 away from 0
        table[0, 1] = rng.standard_normal()
        table[1, :] = rng.standard_normal(4)
        u = rng.standard_normal()
        for rel, (d_an, du_an) in zip(benchmark_relations(), benchmark_partials(table, u)):
            assert _partial(rel, "u", table, u, t=0.0) == pytest.approx(
                du_an, rel=1e-6, abs=1e-6
            )
            for l in range(2):
                for k in range(rel.orders[l] + 1):
                    got = _partial(rel, (l, k), table, u, t=0.0)
                    assert got == pytest.approx(d_an[l, k], rel=1e-6, abs=1e-6)
