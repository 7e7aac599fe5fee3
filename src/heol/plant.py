"""Plant models, their fixed-step RK4 stages, and the bundled benchmark system.

A plant states its rates once, as expression text, and both its ``f`` and the RK4 stages of the
sample loop are generated from that text.  The benchmark is a two-input, two-output flat system

    dx1/dt = x1 + x1^2 u1
    dx2/dt = x3
    dx3/dt = x4
    dx4/dt = -x4 + x3 + x2 + x1 u1 u2
    y1 = x1,  y2 = x2

whose flat outputs are the measured outputs themselves.  Note the y2 chain
is open-loop unstable (characteristic factor (s+1)^2 (s-1)), which is what
makes the closed-loop scenarios interesting.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigurationError, DivergenceError, _number, _positive
from .homeostat import ImplicitFlatRelation, _benchmark_inversions

__all__ = [
    "PlantModel",
    "MismatchSpec",
    "rk4_step",
    "example_plant",
    "benchmark_relations",
]

#: state magnitude beyond which a run is declared divergent
TRUST_REGION = 1e9

_scaling = _number.where(_positive, "initial scaling factors must be positive, got {}")
_step = _number.where(_positive, "integrator step must be positive and finite, got h={}")


@dataclass(frozen=True)
class PlantModel:
    """Plant ``dx/dt = f(t, x, u)``, ``y = output(x)`` on float sequences; a run reads y off its declared states."""

    n_states: int
    n_controls: int
    n_outputs: int
    f: Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]
    output: Callable[[Sequence[float]], Sequence[float]]

    def __post_init__(self):
        dims = (self.n_states, self.n_controls, self.n_outputs)
        if not all(type(d) is int and d >= 1 for d in dims):  # a bool is no dimension
            raise ConfigurationError(f"plant dimensions must all be integers of at least 1, got {dims}")


@dataclass(frozen=True)
class MismatchSpec:
    """Deliberate plant/controller discrepancies for robustness runs.

    ``output_scaling[i]`` scales output i's contribution to the initial
    state.  A mis-weighted feedforward is a nominal-control tag of its own
    (``flat-u2-miscoeff``), not a mismatch.
    """

    output_scaling: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self):
        if not hasattr(self.output_scaling, "__iter__"):
            raise ConfigurationError(f"output_scaling must be a sequence of numbers, got {self.output_scaling!r}")
        scaling = tuple(_scaling.typed(s, f"output_scaling[{i}]") for i, s in enumerate(self.output_scaling))
        object.__setattr__(self, "output_scaling", scaling)


def rk4_step(model: PlantModel, t: float, x: Sequence[float], u: Sequence[float], h: float) -> list[float]:
    """One classical Runge-Kutta step of length ``h`` with ``u`` held constant, calling ``model.f`` at each stage.

    The reference that the loop of ``run_scenario`` is held to, bit for bit: the same operations in the same order as
    ``_rk4``'s stages, which the loop inlines.  A state, control or derivative of the wrong length raises
    ConfigurationError, naming the stage's time; a non-finite result, DivergenceError.
    """
    t, h = _number.typed(t, "t"), _step.typed(h, "h")
    n, m = model.n_states, model.n_controls
    if len(x) != n:
        raise ConfigurationError(f"plant has n_states={n}, but the state has {len(x)} entries")
    if len(u) != m:
        raise ConfigurationError(f"plant has n_controls={m}, but the control has {len(u)} entries")

    def f(s: float, xs: list) -> Sequence[float]:
        if (k := len(rates := model.f(s, xs, u))) != n:
            raise ConfigurationError(f"plant has n_states={n}, but f returned {k} entries at t={s:.6g}") from None
        return rates

    half, h6 = 0.5 * h, h / 6.0
    ka = f(t, list(x))
    kb = f(t + half, [xi + half * k for xi, k in zip(x, ka)])
    kc = f(t + half, [xi + half * k for xi, k in zip(x, kb)])
    kd = f(t + h, [xi + h * k for xi, k in zip(x, kc)])
    return _finite([xi + h6 * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, ka, kb, kc, kd)], t)


def _finite(x: list[float], t: float) -> list[float]:
    """``x``, or DivergenceError naming ``t`` if an entry of ``x`` is not finite."""
    if not all(map(math.isfinite, x)):
        raise DivergenceError(f"non-finite derivative evaluation near t={t:.6g}")
    return x


def _block(head: str, *lines: str) -> str:
    """Source of ``head`` over its indented body ``lines``, for the generated plant ``f`` and sample loops."""
    return "\n".join([head, *lines]).replace("\n", "\n    ")


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}{i}" for i in range(count))


def _rk4(rates: tuple[str, ...] | None, n: int) -> tuple[list[str], list[str]]:
    """One RK4 step of the locals ``x0..`` under ``u0..`` held (with no rates, through ``f`` and ``u``), with ``h``,
    ``half = 0.5 * h`` and ``h6 = h / 6.0`` bound, as source: the lines of the stages ``ka..kd`` (the rates at ``x``,
    ``x + half ka``, ``x + half kb`` and ``x + h kc``, each at its time) and each new
    ``x_i + h6 (((ka_i + 2 kb_i) + 2 kc_i) + kd_i)``, assigned at once.  The sample loop steps by it, inline;
    ``rk4_step`` does the same operations in plain Python.

    Each distinct expression gets one line, and a repeat of its text is read by that line's name: every line is a
    pure expression of locals assigned once per step, so equal text is equal bits (a bare name is read as itself).
    ``f`` is called once per stage.  A line that neither a later line nor a new state reads is dropped."""
    lines, first, k = [], {}, {}  # first[text]: the name its line assigns; k[stage][i]: the name rate i is read as

    def read(name: str, text: str) -> str:
        if not text.isidentifier() and text not in first:
            first[text] = name
            lines.append(f"{name} = {text}")
        return first.get(text, text)

    for stage, prev, c, time in (("ka", None, None, "t"), ("kb", "ka", "half", "t + half"),
                                 ("kc", "kb", "half", "t + half"), ("kd", "kc", "h", "t + h")):
        s = [read(f"x{stage[1]}{i}", f"x{i} + {c} * {k[prev][i]}") if prev else f"x{i}" for i in range(n)]
        if rates is None:
            lines.append(f"[{_names(stage, n)}] = f({time}, [{', '.join(s)}], u)")
            k[stage] = [f"{stage}{i}" for i in range(n)]
        else:
            timed = (re.sub(r"\bt\b", f"({time})", rate) for rate in rates)
            k[stage] = [read(f"{stage}{i}", re.sub(r"\bx(\d+)\b", lambda state: s[int(state[1])], rate))
                        for i, rate in enumerate(timed)]
    new = [f"x{i} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for i, a, b, c, d in zip(range(n), *k.values())]
    live, kept = set(re.findall(r"\w+", " ".join(new))), []
    for line in reversed(lines):
        target, text = line.split(" = ", 1)
        if live.intersection(re.findall(r"\w+", target)):
            kept.insert(0, line)
            live.update(re.findall(r"\w+", text))
    return kept, new


@functools.cache
def _compile(rates: tuple[str, ...], n: int, m: int, params: tuple[str, ...] = ()) -> Callable:
    """``make(*params)``, compiled once per rate text: the ``f`` with ``dx_i/dt = rates[i]`` (over ``t``, ``x0..``,
    ``u0..`` and ``params``).  It unpacks ``x`` and ``u``, so a wrong length raises ValueError."""
    unpack = [f"[{_names('x', n)}] = x", f"[{_names('u', m)}] = u"]
    f = _block("def f(t, x, u):", *unpack, f"return ({', '.join(rates)},)")
    source = _block(f"def make({', '.join(params)}):", f, "return f")
    exec(compile(source, f"<plant of {n} states>", "exec"), namespace := {})
    return namespace["make"]


def _arithmetic(node: ast.expr) -> bool:
    """Whether ``node`` is a name, an int or float constant, ``+ - * / **`` or unary minus or plus."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd))
    return isinstance(node, ast.Name) or isinstance(node, ast.Constant) and type(node.value) in (int, float)


@functools.cache
def _bound(rates: tuple[str, ...], m: int, params: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``rates`` with each parameter read as ``p_<name>``, a prefix that no other name of the plant ``f`` or the
    sample loop has, and those names, checked once per text.  A rate is arithmetic, int and float constants and
    names under ``+ - * / **`` and unary minus or plus, and reads only ``t``, ``x0..``, ``u0..u{m-1}`` and
    ``params``: ConfigurationError names a parameter that is not an identifier or reads as ``t``, ``x<i>`` or ``u<j>``,
    and a rate that does not parse, holds another expression or reads another name."""
    for name in params:
        if not name.isidentifier() or re.fullmatch(r"t|[xu]\d+", name):
            raise ConfigurationError(f"plant parameter {name!r} must be an identifier other than t, x<i> and u<j>")
    n = len(rates)
    known = {"t", *(f"x{i}" for i in range(n)), *(f"u{j}" for j in range(m)), *params}
    for rate in rates:
        try:
            nodes = [node for node in ast.walk(ast.parse(rate, mode="eval").body) if isinstance(node, ast.expr)]
        except SyntaxError as err:
            raise ConfigurationError(f"plant rate {rate!r} does not parse: {err.msg}") from None
        if other := next((node for node in nodes if not _arithmetic(node)), None):  # the outermost, walked first
            raise ConfigurationError(f"plant rate {rate!r} is not arithmetic at {ast.get_source_segment(rate, other)!r}"
                                     ": a rate holds int and float constants and names under + - * / ** and unary -, +")
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        if stray := sorted(read - known):
            raise ConfigurationError(f"plant rate {rate!r} reads {stray[0]!r}, not t, x0..x{n - 1}, u0..u{m - 1} "
                                     "or a parameter")
    own = re.compile(rf"(?<![.\w])({'|'.join(params)})\b")
    bound = tuple(own.sub(r"p_\1", rate) for rate in rates) if params else rates
    return bound, tuple(f"p_{name}" for name in params)


def _rated_plant(rates: tuple[str, ...], n_controls: int, n_outputs: int, output: Callable, **params) -> PlantModel:
    """The plant ``dx_i/dt = rates[i]``, ``params`` bound as values: its ``f`` comes from that text, and the loop of
    ``heol.scenarios`` writes the text into its RK4 stages, reading both off ``f.rates`` and ``f.params``, where each
    parameter is named ``p_<name>`` (``_bound`` checks the text)."""
    rates, names = _bound(rates, n_controls, tuple(params))
    f = _compile(rates, len(rates), n_controls, names)(*params.values())
    f.rates, f.params = rates, dict(zip(names, params.values()))
    return PlantModel(len(rates), n_controls, n_outputs, f, output)


def example_plant() -> PlantModel:
    """The bundled two-input flat benchmark plant; its rates name x1..x4 and u1, u2 as x0..x3 and u0, u1."""
    rates = ("x0 + x0 * x0 * u0", "x2", "x3", "-x3 + x2 + x1 + x0 * u0 * u1")
    return _rated_plant(rates, 2, 2, lambda x: (x[0], x[1]))


def benchmark_relations() -> tuple[ImplicitFlatRelation, ImplicitFlatRelation]:
    """Implicit input/output relations of the benchmark plant.

    E1(y1', y1, u1) = y1' - y1 - y1^2 u1
    E2(y2''', ..., y2, y1', y1, u2) = y2''' + y2'' - y2' - y2 - y1 u1 u2,
    with u1 eliminated through the first relation (u1 = (y1' - y1)/y1^2): ``N - D·u`` of each flat inversion.
    """
    return tuple(relation for relation, _ in _benchmark_inversions())
