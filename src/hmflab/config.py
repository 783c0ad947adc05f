"""Flat sectioned-key run configuration.

Scenario files are plain text, one ``section.key = value`` per line with
``#`` comments.  Every key must belong to the schema and be applicable to
the configured scenario; there are no silent defaults for misspelled
keys, and no key whose value the run would never read.  A key's own range
rule lives in its ``SCHEMA`` row and is checked first; cross-field rules
(window ordering, grid support of the horizon, the reach of a margin scan)
follow.  Both run at load, on every sweep member too, so a run fails
before any work happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .profiles import Profile, kernel_j, lorentzian, maxwellian
from .volterra import KernelOnGrid, transform_bound


class ConfigError(ValueError):
    pass


SCENARIOS = (
    "stability",
    "forward",
    "backward",
    "nonperturbative",
    "bgk",
    "weights",
    "compare",
    "sweep",
)

_RUNNY = ("forward", "backward", "nonperturbative", "compare")
_WITH_PICARD = ("backward", "nonperturbative", "compare")
_WITH_DATUM = ("forward", "backward", "compare")
_WITH_PROFILE = _WITH_DATUM + ("stability",)
_WITH_FIT = ("forward", "backward")
_ALL = SCENARIOS


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _float_list(raw: str) -> list[float]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return [_float(s) for s in items]


def _mode_weights(raw: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        mode, _, weight = part.partition(":")
        if int(mode) in out:
            raise ValueError(f"duplicate mode {int(mode)}")
        out[int(mode)] = _float(weight)
    if not out:
        raise ValueError("empty mode weights")
    return out


_REQUIRED = object()
_POS = (lambda x: x > 0, "> 0")


def _at_least(n: int) -> tuple:
    return (lambda x: x >= n, f">= {n}")


def _known(*names: str) -> tuple:
    return (lambda x: x in names, "known")


# key -> (parser, default-or-required, applicable scenarios, range rule or None).  A range
# rule is the key's own contract, (predicate, message suffix), checked on every value that
# is not None before any rule that relates two keys.
SCHEMA: dict[str, tuple] = {
    "run.scenario": (str, _REQUIRED, _ALL, None),
    "run.id": (str, _REQUIRED, _ALL, None),
    "grid.n_max": (int, 4, _RUNNY, _at_least(2)),
    "grid.xi_max": (_float, 24.0, _RUNNY, None),
    "grid.d_xi": (_float, 0.05, _RUNNY, _POS),
    "grid.t_final": (_float, 20.0, _RUNNY, None),
    "profile.kind": (str, "maxwellian", _WITH_PROFILE, _known("maxwellian", "lorentzian")),
    "profile.beta": (_float, 1.0, _WITH_PROFILE, _POS),
    "profile.scale": (_float, 1.0, _WITH_PROFILE, _POS),
    "datum.amplitude": (_float, 0.5, _WITH_DATUM, None),
    "datum.width": (_float, 1.0, _WITH_DATUM, _POS),
    "datum.shape": (str, "gaussian", _WITH_DATUM, _known("gaussian", "exponential")),
    "datum.modes": (_mode_weights, {1: 1.0, -1: 1.0}, _WITH_DATUM,
                    (lambda m: 0 not in m, "carries no weight on mode 0")),
    "evolve.epsilon": (_float, 0.01, _RUNNY, _at_least(0)),
    "evolve.sign": (_float, 1.0, _RUNNY, (lambda s: s in (1.0, -1.0), "is +1 or -1")),
    "evolve.d_t": (_float, 0.01, _RUNNY, _POS),
    "evolve.T": (_float, 20.0, _RUNNY, None),
    "evolve.tau": (_float, 0.0, ("backward", "nonperturbative"), _at_least(0)),
    "evolve.snap_stride": (int, 10, _RUNNY, _at_least(1)),
    "backward.T_list": (_float_list, None, ("backward",), None),
    "picard.max_iters": (int, 12, _WITH_PICARD, _at_least(1)),
    "picard.tol": (_float, 1e-6, _WITH_PICARD, _POS),
    "norms.lambda": (_float, 0.3, _RUNNY, _POS),
    "norms.lambda_prime": (_float, 0.15, ("nonperturbative",), None),
    "norms.delta": (_float, 1e-3, _WITH_PICARD, _POS),
    "norms.mu_points": (int, 64, ("backward",), _at_least(2)),
    "stability.omega_max": (_float, 20.0, ("stability",), _POS),
    "stability.n_scan": (int, 1201, ("stability",), _at_least(2)),
    "stability.threshold": (_float, 0.05, ("stability",), _POS),
    "stability.t_max": (_float, 25.0, ("stability",), _POS),
    "stability.d_t": (_float, 1e-3, ("stability",), None),
    "stability.m_bound": (_float, None, ("stability",), _POS),
    "stability.lambda": (_float, None, ("stability",), None),
    "bgk.beta": (_float, 3.0, ("bgk", "nonperturbative"), _POS),
    "weights.T": (_float, 200.0, ("weights",), None),
    "weights.d_t": (_float, 0.01, ("weights",), None),
    "weights.delta_list": (_float_list, [1e-4, 1e-3, 1e-2], ("weights",),
                           (lambda ds: all(d > 0 for d in ds), "entries > 0")),
    "weights.delta": (_float, 1e-3, ("weights",), _POS),
    "weights.t_max": (_float, 100.0, ("weights",), None),
    "fit.window_lo": (_float, None, _WITH_FIT, None),
    "fit.window_hi": (_float, None, _WITH_FIT, None),
    "echo.threshold": (_float, 2.5, ("forward",), None),
    "compare.rough_width": (_float, None, ("compare",), _POS),
    "sweep.scenario": (str, _REQUIRED, ("sweep",), None),
    "sweep.axis": (str, _REQUIRED, ("sweep",), None),
    "sweep.values": (_float_list, _REQUIRED, ("sweep",), None),
}


@dataclass
class RunConfig:
    """A validated scenario configuration.

    ``run_id`` names the run's output directory, so it must be one safe path
    component: no separator, not empty, ``.`` or ``..``.
    """

    scenario: str
    run_id: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        rid = self.run_id
        if rid in ("", ".", "..") or any(ch in rid for ch in ("/", "\\", "\0")):
            raise ConfigError(
                f"run.id {rid!r} must be a single path component "
                "(no separator, not empty, '.' or '..')"
            )

    def as_dict(self) -> dict:
        plain = {}
        for k, v in sorted(self.values.items()):
            plain[k] = {str(m): w for m, w in v.items()} if isinstance(v, dict) else v
        return plain


def _parse_lines(text: str, origin: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"{origin}:{lineno}: keys are 'section.name', got {key!r}")
        if key in raw:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _build(raw: dict[str, str], origin: str) -> RunConfig:
    unknown = [k for k in raw if k not in SCHEMA]
    if unknown:
        raise ConfigError(f"{origin}: unknown keys: {', '.join(sorted(unknown))}")
    if "run.scenario" not in raw:
        raise ConfigError(f"{origin}: missing required key run.scenario")
    scenario = raw["run.scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"{origin}: unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}"
        )
    # a sweep takes its own keys plus those of the scenario it wraps
    scope = raw.get("sweep.scenario") if scenario == "sweep" else scenario
    if scope not in SCENARIOS or scope == "sweep":
        raise ConfigError(f"{origin}: sweep.scenario must name a non-sweep scenario, got {scope!r}")
    inapplicable = [k for k in raw if scenario not in SCHEMA[k][2] and scope not in SCHEMA[k][2]]
    if inapplicable:
        raise ConfigError(
            f"{origin}: keys not valid for scenario {scope!r}: "
            f"{', '.join(sorted(inapplicable))}"
        )
    values: dict = {}
    for key, (parser, default, scopes, _) in SCHEMA.items():
        if key in raw:
            try:
                values[key] = parser(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{origin}: key {key}: {exc}") from exc
        elif scenario in scopes or scope in scopes:
            if default is _REQUIRED:
                raise ConfigError(f"{origin}: missing required key {key}")
            values[key] = default
    values["run.scenario"] = scenario
    if scenario == "sweep":
        values["sweep.values"] = _axis_values(values, origin)
    try:
        cfg = RunConfig(scenario=scenario, run_id=values["run.id"], values=values)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    _validate(cfg, origin)
    if scenario == "sweep":  # every member is checked before any member runs
        for value in values["sweep.values"]:
            member_config(cfg, value, origin=f"{origin}: sweep member {value}")
    return cfg


def _axis_values(values: dict, origin: str) -> list:
    """``sweep.values`` typed like the swept key; integer axes take integral values only."""
    axis = values["sweep.axis"]
    parser = SCHEMA[axis][0] if axis in SCHEMA else None
    if parser is not int:
        return values["sweep.values"]
    typed = []
    for v in values["sweep.values"]:
        if not float(v).is_integer():
            raise ConfigError(f"{origin}: sweep.values: {v!r} is not an integer, as {axis} requires")
        typed.append(int(v))
    return typed


def member_config(cfg: RunConfig, value, origin: str = "<sweep member>") -> RunConfig:
    """The wrapped scenario's config at one axis value, validated like a loaded config.

    It carries the sweep's settings, which hold the wrapped scenario's keys
    with their defaults, and ``value`` on the swept key.  Raises ConfigError
    when the member breaks a rule that a top-level config of that scenario
    would break.
    """
    scenario = cfg.values["sweep.scenario"]
    values = {k: v for k, v in cfg.values.items() if not k.startswith("sweep.")}
    values[cfg.values["sweep.axis"]] = value
    values["run.scenario"] = scenario
    values["run.id"] = "member"
    member = RunConfig(scenario=scenario, run_id="member", values=values)
    _validate(member, origin)
    return member


def _is_whole(x: float) -> bool:
    return abs(x - round(x)) <= 1e-9


def _profile_from(cfg: RunConfig) -> Profile:
    """The background a forward, backward, compare or stability config names."""
    kind = cfg.values["profile.kind"]
    if kind == "maxwellian":
        return maxwellian(beta=cfg.values["profile.beta"])
    return lorentzian(scale=cfg.values["profile.scale"])


def _stability_kernel(cfg: RunConfig) -> KernelOnGrid:
    """The sampled j_1 whose transform a stability run scans."""
    v = cfg.values
    return kernel_j(_profile_from(cfg), 1).sample(v["stability.t_max"], v["stability.d_t"])


# The kernel-margin scan a non-perturbative run records: omega_max and n_scan
# of ``stability_margin`` over ``_margin_kernel``.  Load checks its reach.
_MARGIN_SCAN = (20.0, 801)


def _margin_kernel(cfg: RunConfig) -> KernelOnGrid:
    """sign * j_1 of the bgk.beta Maxwellian (the background ``bgk_to_field``
    returns) on [0, max(25, T - tau)] at step 5e-3: the kernel a non-perturbative
    run scans and load checks."""
    v = cfg.values
    window = max(25.0, v["evolve.T"] - v["evolve.tau"])
    return kernel_j(maxwellian(beta=v["bgk.beta"]), 1).sample(window, 5e-3).scaled(v["evolve.sign"])


def _validate(cfg: RunConfig, origin: str) -> None:
    v = cfg.values
    scenario = cfg.scenario

    def rule(ok: bool, name: str):
        if not ok:
            raise ConfigError(f"{origin}: violated precondition: {name}")

    # each key's own range first: the rules below divide by grid.d_xi and evolve.d_t
    for key, value in v.items():
        check = SCHEMA[key][3]
        if check is not None and value is not None:
            rule(check[0](value), f"{key} {check[1]}")
    if "grid.n_max" in v:
        cells = v["grid.xi_max"] / v["grid.d_xi"]
        rule(abs(cells - round(cells)) <= 1e-9 * max(1.0, cells),
             "grid.xi_max is a whole multiple of grid.d_xi")
        rule(
            v["grid.xi_max"] >= v["grid.t_final"] + 4.0,
            "grid.xi_max >= grid.t_final + 4 (horizon exceeds grid)",
        )
    if scenario in _RUNNY:
        if scenario in ("forward", "compare"):
            rule(v["evolve.d_t"] <= 0.1, "evolve.d_t <= 0.1 (forward integration step limit)")
        rule(
            v["evolve.T"] <= v["grid.t_final"] + 1e-12,
            "evolve.T <= grid.t_final",
        )
        # every window starts at evolve.tau (0 in forward and compare) and spans whole steps
        tau = v.get("evolve.tau", 0.0)

        def whole_steps(T):
            return _is_whole((T - tau) / v["evolve.d_t"])

        rule(tau < v["evolve.T"], "evolve.tau < evolve.T (tau is 0 in forward and compare)")
        rule(whole_steps(v["evolve.T"]), "evolve.T - evolve.tau is a whole number of evolve.d_t steps")
        if v.get("backward.T_list"):
            ts = v["backward.T_list"]
            rule(all(T > tau for T in ts), "backward.T_list windows end after evolve.tau")
            rule(all(whole_steps(T) for T in ts),
                 "backward.T_list - evolve.tau are whole numbers of evolve.d_t steps")
            rule(all(b > a for a, b in zip(ts, ts[1:])), "backward.T_list strictly increasing")
            # the reported N norm is budgeted on [tau, evolve.T] and read on the last window
            rule(ts[-1] == v["evolve.T"], "backward.T_list ends at evolve.T")
        if scenario in _WITH_FIT:  # the fit reads the run's series on [tau, T]
            lo, hi, T = v["fit.window_lo"], v["fit.window_hi"], v["evolve.T"]
            lo, hi = 0.5 * T if lo is None else lo, T if hi is None else hi
            rule(lo < hi, "fit.window_lo < fit.window_hi (defaults evolve.T / 2 and evolve.T)")
            rule(lo < T and hi > tau, "the fit.window_lo .. fit.window_hi window overlaps "
                 "[evolve.tau, evolve.T]")
            # the series nodes tau + k d_t inside the window, counted within fit_decay_values'
            # 1e-12 slack, which a fit needs at least 10 of
            d_t = v["evolve.d_t"]
            k_lo = max(math.ceil((lo - 1e-12 - tau) / d_t - 1e-9), 0)
            k_hi = min(math.floor((hi + 1e-12 - tau) / d_t + 1e-9), round((T - tau) / d_t))
            nodes = max(k_hi - k_lo + 1, 0)
            rule(nodes >= 10, "the fit.window_lo .. fit.window_hi window holds at least 10 series "
                 f"nodes evolve.tau + k evolve.d_t (it holds {nodes})")
    if "norms.lambda_prime" in v:
        rule(0 < v["norms.lambda_prime"] < v["norms.lambda"], "0 < norms.lambda_prime < norms.lambda")
    if "weights.T" in v:
        # each budget integration needs at least one step
        rule(0 < v["weights.d_t"] <= v["weights.T"], "0 < weights.d_t <= weights.T")
        rule(v["weights.d_t"] <= v["weights.t_max"], "weights.d_t <= weights.t_max")
        # weights.csv pairs a_T and a_inf row by row, so both marches step by weights.d_t
        rule(_is_whole(v["weights.T"] / v["weights.d_t"]),
             "weights.T is a whole number of weights.d_t steps")
        rule(_is_whole(v["weights.t_max"] / v["weights.d_t"]),
             "weights.t_max is a whole number of weights.d_t steps")
    if scenario == "nonperturbative":
        rule(v["evolve.epsilon"] == 1.0, "evolve.epsilon == 1 in non-perturbative mode")
        # below the bifurcation the BGK family has no self-consistent state to run from
        rule(v["bgk.beta"] > 2, "bgk.beta > 2 in non-perturbative mode")
        # the run scans the margin of the bgk.beta Maxwellian's kernel before it solves,
        # and the scan needs |L| under 1/2 beyond its fixed |omega| range
        bound = transform_bound(_margin_kernel(cfg)) / _MARGIN_SCAN[0]
        rule(bound <= 0.5, f"|L| <= 1/2 beyond the kernel-margin scan's |omega| <= "
             f"{_MARGIN_SCAN[0]:g} for bgk.beta = {v['bgk.beta']:g} (bound there {bound:.3f})")
    if scenario == "stability":
        rule(0 < v["stability.d_t"] <= v["stability.t_max"], "0 < stability.d_t <= stability.t_max")
        # stability_margin divides by lambda, and reads it only beside m_bound
        m_bound, lam = v["stability.m_bound"], v["stability.lambda"]
        rule(m_bound is None or (lam is not None and lam > 0),
             "stability.lambda > 0 when stability.m_bound is set")
        rule(lam is None or m_bound is not None, "stability.m_bound is set when stability.lambda is")
        # the scan covers |omega| <= stability.omega_max, and beyond it |L| must stay under 1/2
        bound = transform_bound(_stability_kernel(cfg)) / v["stability.omega_max"]
        key = "profile.beta" if v["profile.kind"] == "maxwellian" else "profile.scale"
        rule(bound <= 0.5, f"|L| <= 1/2 beyond stability.omega_max for the {key} = {v[key]:g} "
             f"kernel (bound there {bound:.3f})")
    if scenario in _WITH_DATUM:
        rule(all(abs(n) <= v["grid.n_max"] for n in v["datum.modes"]),
             "datum.modes within |n| <= grid.n_max")
    if scenario == "sweep":
        rule(v["sweep.axis"] in SCHEMA, "sweep.axis names a known key")
        axis_parser = SCHEMA.get(v["sweep.axis"], (None,))[0]
        rule(axis_parser in (int, _float), "sweep.axis names a numeric key")
        rule(
            v["sweep.scenario"] in SCHEMA[v["sweep.axis"]][2],
            "sweep.axis applies to sweep.scenario",
        )
        # checked on the typed values, so 3 and 3.0 on an integer axis repeat
        rule(len(set(v["sweep.values"])) == len(v["sweep.values"]), "sweep.values has no repeated value")


def load_config(path) -> RunConfig:
    """Parse and validate a scenario file; errors carry file:line context."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return _build(_parse_lines(p.read_text(encoding="utf-8"), str(p)), str(p))


def config_from_text(text: str, origin: str = "<inline>") -> RunConfig:
    return _build(_parse_lines(text, origin), origin)
