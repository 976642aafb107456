"""Scenario configuration: commented INI files mapped onto dataclasses.

Parsing validates everything that is present (types, signs, orderings) and
reports ALL violations at once, not just the first.  A section or key the
parser does not read is one of those violations, named with the nearest
known name, so a misspelt key never falls back silently to its default.
``propagation.workers`` is read and ignored, since samples run in blocks in
one thread.  Which sections a run actually needs depends on the subcommand;
:func:`require` performs those checks with the same all-violations policy.
"""

from __future__ import annotations

import configparser
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .randomsets import Interval

__all__ = [
    "ScenarioConfig",
    "FieldConfig",
    "FamilyConfig",
    "MeshConfig",
    "RegionConfig",
    "TransportConfig",
    "WaveConfig",
    "PropagationConfig",
    "QoIConfig",
    "OutputConfig",
    "parse_config",
    "require",
    "compile_expression",
]

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


def compile_expression(source: str, variables=("x", "t")) -> Callable:
    """Compile a math expression over the given variables (numpy semantics)."""
    try:
        code = compile(source, "<config expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError([f"bad expression {source!r}: {exc.msg}"]) from exc
    unknown = sorted(set(code.co_names) - set(_SAFE_NAMES) - set(variables))
    if unknown:
        raise ConfigError([f"unknown name(s) {', '.join(unknown)} in expression {source!r}"])

    def fn(*args):
        env = dict(_SAFE_NAMES)
        env.update(zip(variables, args))
        return eval(code, {"__builtins__": {}}, env)  # names whitelisted above

    fn.source = source
    return fn


@dataclass(frozen=True)
class FieldConfig:
    sigma: float
    ell: Optional[float]
    ell_min: Optional[float]
    ell_max: Optional[float]
    m_terms: Optional[int]
    a_min: float
    mean: float

    def ell_interval(self) -> Interval:
        return Interval(self.ell_min, self.ell_max)


@dataclass(frozen=True)
class FamilyConfig:
    mu: Interval
    sigma: Interval


@dataclass(frozen=True)
class MeshConfig:
    shape: str
    nx: int
    ny: int


@dataclass(frozen=True)
class RegionConfig:
    kappa: float
    horizon: float
    speed_bound: float
    nx: int
    nt: int


@dataclass(frozen=True)
class TransportConfig:
    a: Optional[Callable]
    f: Optional[Callable]
    g: Optional[Callable]
    u0: Optional[Callable]
    a_mean: Optional[float]
    a_lo: Optional[float]
    a_hi: Optional[float]


@dataclass(frozen=True)
class WaveConfig:
    rho: float
    e: Optional[Callable]
    e_prime: Optional[Callable]
    w: Optional[Callable]
    w_prime: Optional[Callable]
    e_mean: Optional[float]
    e_min: Optional[float]
    e_max: Optional[float]


@dataclass(frozen=True)
class PropagationConfig:
    samples: Optional[int]
    seed: Optional[int]
    ell_points: int
    mu_points: int
    sigma_points: int
    thresholds: int


@dataclass(frozen=True)
class QoIConfig:
    kind: Optional[str]
    x1: Optional[float]
    x2: Optional[float]
    pbox_x1: Optional[float]
    x: Optional[float]
    t: Optional[float]


@dataclass(frozen=True)
class OutputConfig:
    formats: tuple


@dataclass(frozen=True)
class ScenarioConfig:
    schema_version: int
    kind: str
    field: FieldConfig
    family: Optional[FamilyConfig]
    mesh: MeshConfig
    region: Optional[RegionConfig]
    transport: TransportConfig
    wave: WaveConfig
    propagation: PropagationConfig
    qoi: QoIConfig
    output: OutputConfig


def _suggestion(name: str, known) -> str:
    import difflib     # here, so that a valid config never loads it

    close = difflib.get_close_matches(name, sorted(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class _Reader:
    """configparser access that accumulates every violation, and records
    every (section, key) it looks up."""

    def __init__(self, cp: configparser.ConfigParser):
        self.cp = cp
        self.problems: list = []
        self.read: dict = {}      # section -> keys looked up

    def has(self, section: str, key: str) -> bool:
        self.read.setdefault(section, set()).add(key)
        return self.cp.has_option(section, key)

    def unread(self) -> list:
        """One problem per section and key of the file that was never looked up."""
        problems = []
        for section in self.cp.sections():
            keys = self.read.get(section)
            if keys is None:
                problems.append(f"[{section}]: unknown section{_suggestion(section, self.read)}")
                continue
            problems += [f"{section}.{key}: unknown key{_suggestion(key, keys)}"
                         for key in self.cp.options(section) if key not in keys]
        return problems

    def _convert(self, section, key, conv, label):
        raw = self.cp.get(section, key)
        try:
            return conv(raw)
        except (TypeError, ValueError):
            self.problems.append(f"{section}.{key}: expected {label}, got {raw!r}")
            return None

    def number(self, section, key, default=None, required=False,
               positive=False, nonnegative=False):
        if not self.has(section, key):
            if required:
                self.problems.append(f"{section}.{key}: required")
            return default
        val = self._convert(section, key, float, "a number")
        if val is None:
            return default
        if positive and not val > 0:
            self.problems.append(f"{section}.{key}: must be positive, got {val}")
        if nonnegative and val < 0:
            self.problems.append(f"{section}.{key}: must be nonnegative, got {val}")
        return val

    def integer(self, section, key, default=None, required=False, minimum=None):
        if not self.has(section, key):
            if required:
                self.problems.append(f"{section}.{key}: required")
            return default
        val = self._convert(section, key, int, "an integer")
        if val is None:
            return default
        if minimum is not None and val < minimum:
            self.problems.append(f"{section}.{key}: must be >= {minimum}, got {val}")
        return val

    def choice(self, section, key, choices, default=None, required=False):
        if not self.has(section, key):
            if required:
                self.problems.append(f"{section}.{key}: required")
            return default
        val = self.cp.get(section, key).strip()
        if val not in choices:
            self.problems.append(
                f"{section}.{key}: must be one of {', '.join(choices)}, got {val!r}"
            )
            return default
        return val

    def expression(self, section, key, variables, default=None):
        if not self.has(section, key):
            return default
        src = self.cp.get(section, key).strip()
        try:
            return compile_expression(src, variables)
        except ConfigError as exc:
            self.problems.append(f"{section}.{key}: {exc.problems[0]}")
            return default


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

    r = _Reader(cp)
    version = r.integer("meta", "schema_version", required=True)
    if version is not None and version != SCHEMA_VERSION:
        r.problems.append(f"meta.schema_version: unsupported version {version}")
    kind = r.choice("model", "kind", MODEL_KINDS, required=True)

    field = FieldConfig(
        sigma=r.number("field", "sigma", default=1.0, positive=True),
        ell=r.number("field", "ell", positive=True),
        ell_min=r.number("field", "ell_min", positive=True),
        ell_max=r.number("field", "ell_max", positive=True),
        m_terms=r.integer("field", "m_terms", minimum=1),
        a_min=r.number("field", "a_min", default=0.1, positive=True),
        mean=r.number("field", "mean", default=1.0),
    )
    if field.ell_min is not None and field.ell_max is not None \
            and field.ell_min > field.ell_max:
        r.problems.append("field.ell_min: must not exceed field.ell_max")

    family = None
    if cp.has_section("family"):
        mu_lo = r.number("family", "mu_min", required=True)
        mu_hi = r.number("family", "mu_max", required=True)
        s_lo = r.number("family", "sigma_min", required=True, positive=True)
        s_hi = r.number("family", "sigma_max", required=True, positive=True)
        if None not in (mu_lo, mu_hi, s_lo, s_hi):
            if mu_lo > mu_hi:
                r.problems.append("family.mu_min: must not exceed family.mu_max")
            if s_lo > s_hi:
                r.problems.append("family.sigma_min: must not exceed family.sigma_max")
            if mu_lo <= mu_hi and s_lo <= s_hi:
                family = FamilyConfig(mu=Interval(mu_lo, mu_hi), sigma=Interval(s_lo, s_hi))

    mesh = MeshConfig(
        shape=r.choice("mesh", "shape", ("rectangle", "l_shape"), default="l_shape"),
        nx=r.integer("mesh", "nx", default=18, minimum=2),
        ny=r.integer("mesh", "ny", default=18, minimum=2),
    )

    region = None
    if cp.has_section("region"):
        kappa = r.number("region", "kappa", required=True, positive=True)
        horizon = r.number("region", "horizon", required=True, positive=True)
        speed_bound = r.number("region", "speed_bound", required=True, nonnegative=True)
        nx = r.integer("region", "nx", default=201, minimum=2)
        nt = r.integer("region", "nt", default=201, minimum=3)
        if nt is not None and nt % 2 == 0:
            r.problems.append("region.nt: must be odd so t = 0 is a grid level")
        if None not in (kappa, horizon, speed_bound):
            if kappa - speed_bound * horizon <= 0:
                r.problems.append("region: kappa must exceed speed_bound * horizon")
            else:
                region = RegionConfig(kappa, horizon, speed_bound, nx, nt)

    transport = TransportConfig(
        a=r.expression("transport", "a", ("x", "t")),
        f=r.expression("transport", "f", ("x", "t")),
        g=r.expression("transport", "g", ("x", "t")),
        u0=r.expression("transport", "u0", ("x",)),
        a_mean=r.number("transport", "a_mean"),
        a_lo=r.number("transport", "a_lo"),
        a_hi=r.number("transport", "a_hi"),
    )
    wave = WaveConfig(
        rho=r.number("wave", "rho", default=1.0, positive=True),
        e=r.expression("wave", "e", ("x",)),
        e_prime=r.expression("wave", "e_prime", ("x",)),
        w=r.expression("wave", "w", ("x",)),
        w_prime=r.expression("wave", "w_prime", ("x",)),
        e_mean=r.number("wave", "e_mean"),
        e_min=r.number("wave", "e_min", positive=True),
        e_max=r.number("wave", "e_max", positive=True),
    )
    propagation = PropagationConfig(
        samples=r.integer("propagation", "samples", minimum=1),
        seed=r.integer("propagation", "seed", minimum=0),
        ell_points=r.integer("propagation", "ell_points", default=11, minimum=1),
        mu_points=r.integer("propagation", "mu_points", default=11, minimum=1),
        sigma_points=r.integer("propagation", "sigma_points", default=11, minimum=1),
        thresholds=r.integer("propagation", "thresholds", default=201, minimum=2),
    )
    r.integer("propagation", "workers", minimum=1)     # accepted, no effect
    qoi = QoIConfig(
        kind=r.choice("qoi", "kind", QOI_KINDS),
        x1=r.number("qoi", "x1"),
        x2=r.number("qoi", "x2"),
        pbox_x1=r.number("qoi", "pbox_x1"),
        x=r.number("qoi", "x"),
        t=r.number("qoi", "t"),
    )
    formats = ("csv",)
    if r.has("output", "formats"):
        raw = [tok.strip() for tok in cp.get("output", "formats").split(",") if tok.strip()]
        bad = [tok for tok in raw if tok not in ("csv", "json")]
        if bad:
            r.problems.append(f"output.formats: unknown format(s) {', '.join(bad)}")
        else:
            formats = tuple(raw) or ("csv",)

    r.problems += r.unread()
    if r.problems:
        raise ConfigError(r.problems)
    return ScenarioConfig(
        schema_version=version,
        kind=kind,
        field=field,
        family=family,
        mesh=mesh,
        region=region,
        transport=transport,
        wave=wave,
        propagation=propagation,
        qoi=qoi,
        output=OutputConfig(formats=formats),
    )


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
