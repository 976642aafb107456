"""Scenario configuration: commented INI files read through one table.

:data:`SCHEMA` is the one list of sections and keys, with each key's kind,
default and checks.  Each section becomes a namespace with one attribute
per key; ``[family]`` and ``[region]`` are optional, and ``None`` when
absent or invalid.  Parsing validates everything that is present (types,
signs, orderings, finite numbers) and reports ALL violations at once, not
just the first: each section's keys in schema order, then that section's
cross-key checks.
A section or key of the file that the schema lacks is one of those
violations, named with the nearest known name, so a misspelt key never
falls back silently to its default.  ``propagation.workers`` is checked and
ignored, since samples run in blocks in one thread.  Which sections a run
actually needs depends on the subcommand; :func:`require` performs those
checks with the same all-violations policy.
"""

from __future__ import annotations

import configparser
import math
import os
import pathlib
import types
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .randomsets import Interval

__all__ = ["SCHEMA", "ScenarioConfig", "parse_config", "require", "compile_expression"]

SCHEMA_VERSION = 1
MODEL_KINDS = ("gauss", "elliptic", "transport", "wave")
QOI_KINDS = ("gauss_identity", "elliptic_node", "elliptic_slice",
             "transport_point", "wave_point")

_SAFE_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "sinh": np.sinh, "cosh": np.cosh, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
    "pi": np.pi, "e": np.e,
}


def _names(code) -> set:
    """The names a code object looks up, and those of the code nested in it
    (a lambda's or a generator expression's)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def compile_expression(source: str, variables=("x", "t")) -> Callable:
    """Compile a math expression over the given variables (numpy semantics).
    ``fn.variables`` lists those it names: the solvers call it with x alone
    where that lacks t."""
    try:
        code = compile(source, "<config expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError([f"bad expression {source!r}: {exc.msg}"]) from exc
    names = _names(code)
    unknown = sorted(names - set(_SAFE_NAMES) - set(variables))
    if unknown:
        raise ConfigError([f"unknown name(s) {', '.join(unknown)} in expression {source!r}"])

    def fn(*args):
        # one globals mapping, which nested scopes see as well as the expression
        env = {**_SAFE_NAMES, "__builtins__": {}}
        env.update(zip(variables, args))
        return eval(code, env)  # names whitelisted above

    fn.source, fn.variables = source, tuple(v for v in variables if v in names)
    return fn


class Key(NamedTuple):
    """One row of :data:`SCHEMA`: a key's kind, its default and its checks.

    ``kind`` is "number", "integer", "choice" (one of ``options``),
    "expression" (over the variables ``options``) or "formats" (a comma
    separated list of ``options``).  An absent key, or one whose value is
    invalid, takes ``default``.
    """

    kind: str
    default: object = None
    required: bool = False
    positive: bool = False
    nonnegative: bool = False
    minimum: Optional[int] = None
    options: tuple = ()


_X, _XT = ("x",), ("x", "t")     # the variables of an expression

# Every section and key of a scenario file, in the order they are checked.
# [family] and [region] are optional: None when absent or invalid, and
# their required keys are required only when the section is there.
SCHEMA = {
    "meta": {"schema_version": Key("integer", required=True)},
    "model": {"kind": Key("choice", required=True, options=MODEL_KINDS)},
    "field": {
        "sigma": Key("number", 1.0, positive=True),
        "ell": Key("number", positive=True),
        "ell_min": Key("number", positive=True),
        "ell_max": Key("number", positive=True),
        "m_terms": Key("integer", minimum=1),
        "a_min": Key("number", 0.1, positive=True),
        "mean": Key("number", 1.0),
    },
    "family": {
        "mu_min": Key("number", required=True),
        "mu_max": Key("number", required=True),
        "sigma_min": Key("number", required=True, positive=True),
        "sigma_max": Key("number", required=True, positive=True),
    },
    "mesh": {
        "shape": Key("choice", "l_shape", options=("rectangle", "l_shape")),
        "nx": Key("integer", 18, minimum=2),
        "ny": Key("integer", 18, minimum=2),
    },
    "region": {
        "kappa": Key("number", required=True, positive=True),
        "horizon": Key("number", required=True, positive=True),
        "speed_bound": Key("number", required=True, nonnegative=True),
        "nx": Key("integer", 201, minimum=2),
        "nt": Key("integer", 201, minimum=3),
    },
    "transport": {
        "a": Key("expression", options=_XT),
        "f": Key("expression", 0.0, options=_XT),
        "g": Key("expression", 0.0, options=_XT),
        "u0": Key("expression", options=_X),
        "a_mean": Key("number"),
        "a_lo": Key("number"),
        "a_hi": Key("number"),
    },
    "wave": {
        "rho": Key("number", 1.0, positive=True),
        "e": Key("expression", options=_X),
        "e_prime": Key("expression", options=_X),
        "w": Key("expression", options=_X),
        "w_prime": Key("expression", options=_X),
        "e_mean": Key("number"),
        "e_min": Key("number", positive=True),
        "e_max": Key("number", positive=True),
    },
    "propagation": {
        "samples": Key("integer", minimum=1),
        "seed": Key("integer", minimum=0),
        "ell_points": Key("integer", 11, minimum=1),
        "mu_points": Key("integer", 11, minimum=1),
        "sigma_points": Key("integer", 11, minimum=1),
        "thresholds": Key("integer", 201, minimum=2),
        "workers": Key("integer", minimum=1),      # accepted, no effect
    },
    "qoi": {
        "kind": Key("choice", options=QOI_KINDS),
        "x1": Key("number"),
        "x2": Key("number"),
        "pbox_x1": Key("number"),
        "x": Key("number"),
        "t": Key("number"),
    },
    "output": {"formats": Key("formats", ("csv",), options=("csv", "json"))},
}


class FieldSection(SimpleNamespace):
    """The [field] section's values."""

    def ell_interval(self) -> Interval:
        return Interval(self.ell_min, self.ell_max)


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: each section a namespace with one attribute per key."""

    schema_version: int
    kind: str
    field: FieldSection
    family: Optional[SimpleNamespace]     # mu and sigma, as Intervals
    mesh: SimpleNamespace
    region: Optional[SimpleNamespace]
    transport: SimpleNamespace
    wave: SimpleNamespace
    propagation: SimpleNamespace
    qoi: SimpleNamespace
    output: SimpleNamespace


def _suggestion(name: str, known) -> str:
    import difflib     # here, so that a valid config never loads it

    close = difflib.get_close_matches(name, sorted(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _value(cp: configparser.ConfigParser, section: str, key: str, problems: list):
    """The value of one key by its :data:`SCHEMA` row, appending each
    violation to ``problems``; the row's default when absent or invalid."""
    row, name = SCHEMA[section][key], f"{section}.{key}"
    if not cp.has_option(section, key):
        if row.required:
            problems.append(f"{name}: required")
        return row.default
    raw = cp.get(section, key)
    if row.kind == "choice":
        val = raw.strip()
        if val in row.options:
            return val
        problems.append(f"{name}: must be one of {', '.join(row.options)}, got {val!r}")
        return row.default
    if row.kind == "expression":
        try:
            return compile_expression(raw.strip(), row.options)
        except ConfigError as exc:
            problems.append(f"{name}: {exc.problems[0]}")
            return row.default
    if row.kind == "formats":
        tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
        bad = [tok for tok in tokens if tok not in row.options]
        if bad:
            problems.append(f"{name}: unknown format(s) {', '.join(bad)}")
            return row.default
        return tuple(tokens) or row.default
    conv, label = (float, "a number") if row.kind == "number" else (int, "an integer")
    try:
        val = conv(raw)
    except ValueError:
        problems.append(f"{name}: expected {label}, got {raw!r}")
        return row.default
    if not math.isfinite(val):
        problems.append(f"{name}: must be finite, got {raw!r}")
        return row.default
    if row.positive and not val > 0:
        problems.append(f"{name}: must be positive, got {val}")
    if row.nonnegative and val < 0:
        problems.append(f"{name}: must be nonnegative, got {val}")
    if row.minimum is not None and val < row.minimum:
        problems.append(f"{name}: must be >= {row.minimum}, got {val}")
    return val


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError listing
    every violation found.

    ``path`` is a file name or an ``importlib.resources`` Traversable.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    source = pathlib.Path(path) if isinstance(path, (str, os.PathLike)) else path
    try:
        with source.open("r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {path} is not UTF-8 text: {exc}"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"config parse error in {path}: {exc}"]) from exc

    problems = []

    def section(name, cls=SimpleNamespace):
        return cls(**{key: _value(cp, name, key, problems) for key in SCHEMA[name]})

    version = section("meta").schema_version
    if version not in (None, SCHEMA_VERSION):
        problems.append(f"meta.schema_version: unsupported version {version}")
    kind = section("model").kind
    field = section("field", FieldSection)
    if None not in (field.ell_min, field.ell_max) and field.ell_min > field.ell_max:
        problems.append("field.ell_min: must not exceed field.ell_max")

    family = None
    if cp.has_section("family"):
        fam = section("family")
        mu, sigma = (fam.mu_min, fam.mu_max), (fam.sigma_min, fam.sigma_max)
        if None not in mu + sigma:
            if mu[0] > mu[1]:
                problems.append("family.mu_min: must not exceed family.mu_max")
            if sigma[0] > sigma[1]:
                problems.append("family.sigma_min: must not exceed family.sigma_max")
            if mu[0] <= mu[1] and sigma[0] <= sigma[1]:
                family = SimpleNamespace(mu=Interval(*mu), sigma=Interval(*sigma))

    mesh = section("mesh")
    region = None
    if cp.has_section("region"):
        reg = section("region")
        if reg.nt % 2 == 0:
            problems.append("region.nt: must be odd so t = 0 is a grid level")
        if None not in (reg.kappa, reg.horizon, reg.speed_bound):
            if reg.kappa - reg.speed_bound * reg.horizon <= 0:
                problems.append("region: kappa must exceed speed_bound * horizon")
            else:
                region = reg
    rest = [section(name) for name in ("transport", "wave", "propagation", "qoi", "output")]

    for name in cp.sections():
        if name not in SCHEMA:
            problems.append(f"[{name}]: unknown section{_suggestion(name, SCHEMA)}")
            continue
        problems += [f"{name}.{key}: unknown key{_suggestion(key, SCHEMA[name])}"
                     for key in cp.options(name) if key not in SCHEMA[name]]
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(version, kind, field, family, mesh, region, *rest)


def require(config: ScenarioConfig, *paths: str) -> None:
    """Check that dotted config fields are present; list all that are not."""
    missing = []
    for path in paths:
        section, key = path.split(".")
        holder = getattr(config, section)
        if holder is None or getattr(holder, key, None) is None:
            missing.append(f"{path}: required for this command")
    if missing:
        raise ConfigError(missing)
