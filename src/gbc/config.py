"""Run configuration: flat key = value text under section headers.

A config file fully determines a run together with the seed; the canonical
serialization (sorted sections and keys) is hashed into checkpoints so a
trained model records the exact configuration that produced it.

Readers turn sections into specs; :func:`optimizer_spec_from_config` alone
reads the training settings of ``[optimizer]`` and ``[summary]``.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, field

from .errors import ConfigError
from .models import NormalCoord, PriorSpec, UniformCoord, make_simulator
from .nets import OptimizerSpec
from .quantile import NetworkSpec

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


@dataclass
class RunConfig:
    """Parsed configuration: sections of string key/value pairs.

    Typed access goes through the get_* helpers, which raise ConfigError
    with the offending section/key on bad or missing values.
    """

    sections: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_text(text, source=f"config file {path}")

    @classmethod
    def from_text(cls, text, source="config text") -> "RunConfig":
        parser = configparser.ConfigParser(
            interpolation=None, delimiters=("=",), comment_prefixes=("#", ";")
        )
        parser.optionxform = str
        try:
            parser.read_string(text, source=source)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {source}: {exc}") from exc
        return cls(
            sections={name: dict(parser.items(name)) for name in parser.sections()}
        )

    # -- canonical form ----------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic serialization: sections and keys sorted."""
        lines = []
        for name in sorted(self.sections):
            lines.append(f"[{name}]")
            for key in sorted(self.sections[name]):
                lines.append(f"{key} = {self.sections[name][key]}")
            lines.append("")
        return "\n".join(lines)

    def config_hash(self) -> bytes:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).digest()

    # -- typed access ------------------------------------------------------

    def has(self, section, key) -> bool:
        return section in self.sections and key in self.sections[section]

    def raw(self, section, key, default=None):
        if not self.has(section, key):
            if default is None:
                raise ConfigError(f"missing config key [{section}] {key}")
            return default
        return self.sections[section][key]

    def set(self, section, key, value) -> None:
        self.sections.setdefault(section, {})[key] = str(value)

    def get_str(self, section, key, default=None) -> str:
        return str(self.raw(section, key, default))

    def get_choice(self, section, key, choices, default=None) -> str:
        value = str(self.raw(section, key, default))
        if value not in choices:
            raise ConfigError(
                f"config key [{section}] {key} must be {' or '.join(choices)}, "
                f"got {value!r}"
            )
        return value

    def get_int(self, section, key, default=None, minimum=None) -> int:
        raw = self.raw(section, key, default)
        try:
            value = int(str(raw))
        except ValueError as exc:
            raise ConfigError(
                f"config key [{section}] {key} must be an integer, got {raw!r}"
            ) from exc
        _check_minimum(section, key, (value,), minimum)
        return value

    def get_float(self, section, key, default=None) -> float:
        raw = self.raw(section, key, default)
        try:
            return float(str(raw))
        except ValueError as exc:
            raise ConfigError(
                f"config key [{section}] {key} must be a number, got {raw!r}"
            ) from exc

    def get_bool(self, section, key, default=None) -> bool:
        raw = str(self.raw(section, key, default)).strip().lower()
        if raw in _TRUE:
            return True
        if raw in _FALSE:
            return False
        raise ConfigError(
            f"config key [{section}] {key} must be a boolean, got {raw!r}"
        )

    def get_floats(self, section, key, default=None) -> tuple:
        raw = str(self.raw(section, key, default))
        try:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(
                f"config key [{section}] {key} must be comma-separated numbers, "
                f"got {raw!r}"
            ) from exc

    def get_ints(self, section, key, default=None, minimum=None) -> tuple:
        raw = str(self.raw(section, key, default))
        try:
            values = tuple(int(v) for v in raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(
                f"config key [{section}] {key} must be comma-separated integers, "
                f"got {raw!r}"
            ) from exc
        _check_minimum(section, key, values, minimum)
        return values


def _check_minimum(section, key, values, minimum):
    if minimum is not None and min(values, default=minimum) < minimum:
        raise ConfigError(
            f"config key [{section}] {key} must be {minimum} or more, "
            f"got {','.join(map(str, values))}"
        )


_COORD_RE = re.compile(
    r"(uniform|normal)\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)", re.IGNORECASE
)


def parse_prior(text) -> PriorSpec:
    """Parse a prior description: whitespace-separated coordinate terms.

    Each term is ``uniform(lo,hi)`` or ``normal(mean,variance)``, e.g.
    ``normal(0,5)`` or ``uniform(3e-5,8e-5) uniform(1,20)``.
    """
    coords = []
    for match in _COORD_RE.finditer(text):
        kind = match.group(1).lower()
        try:
            a, b = float(match.group(2)), float(match.group(3))
        except ValueError as exc:
            raise ConfigError(f"bad prior term {match.group(0)!r}") from exc
        coords.append(UniformCoord(a, b) if kind == "uniform" else NormalCoord(a, b))
    leftover = re.sub(r"\s+", "", text)
    matched = sum(
        len(re.sub(r"\s+", "", m.group(0))) for m in _COORD_RE.finditer(text)
    )
    if not coords or matched != len(leftover):
        raise ConfigError(
            f"cannot parse prior {text!r}; expected terms like "
            "'normal(0,5)' or 'uniform(1,20)'"
        )
    return PriorSpec(tuple(coords))


def prior_from_config(cfg: RunConfig) -> PriorSpec:
    text = cfg.get_str("prior", "theta")
    try:
        return parse_prior(text)
    except ConfigError as exc:
        raise ConfigError(f"config key [prior] theta: {exc}") from None


def simulator_params(cfg: RunConfig) -> dict:
    return dict(cfg.sections.get("simulator", {}))


def simulator_from_config(cfg: RunConfig):
    """The ``[run] simulator`` model with its ``[simulator]`` parameters."""
    return make_simulator(cfg.get_str("run", "simulator"), simulator_params(cfg))


def prior_and_simulator(cfg: RunConfig):
    """``(prior, simulator)`` of the config; ConfigError unless the prior
    has as many coordinates as the simulator takes."""
    prior = prior_from_config(cfg)
    simulator = simulator_from_config(cfg)
    if prior.dim != simulator.theta_dim:
        raise ConfigError(
            f"prior has {prior.dim} coordinates but simulator "
            f"{simulator.name!r} expects {simulator.theta_dim}"
        )
    return prior, simulator


def network_spec_from_config(cfg: RunConfig) -> NetworkSpec:
    return NetworkSpec(
        psi_hidden=cfg.get_ints("network", "psi_hidden", "64,64", minimum=1),
        feature_dim=cfg.get_int("network", "feature_dim", 64, minimum=1),
        n_cos=cfg.get_int("network", "n_cos", 64, minimum=1),
        g_hidden=cfg.get_ints("network", "g_hidden", "64,64", minimum=1),
    )


# Each training section's default epochs; lr and batch_size default alike.
_DEFAULT_EPOCHS = {"optimizer": 300, "summary": 200}

# Keys no longer read, by section, each with the reason. A config that sets
# one is rejected where its section is read.
_ADAM_ONLY = "every net trains with Adam on a fixed schedule"
_REMOVED_KEYS = {
    "optimizer": (("method", "momentum", "lr_schedule", "average_tail"), _ADAM_ONLY),
    "summary": (("optimizer", "momentum"), _ADAM_ONLY),
    "run": (("table_format",), "reference tables are written only as .gbct"),
}


def reject_removed_keys(cfg: RunConfig, section) -> None:
    """Raise ConfigError naming every removed key that ``section`` sets."""
    keys, reason = _REMOVED_KEYS[section]
    removed = [f"[{section}] {key}" for key in keys if cfg.has(section, key)]
    if removed:
        raise ConfigError(
            f"config key {', '.join(removed)} is no longer read: {reason}; remove it"
        )


def optimizer_spec_from_config(cfg: RunConfig, section="optimizer") -> OptimizerSpec:
    """The training settings of ``[optimizer]`` (the quantile nets) or
    ``[summary]`` (a network summary): ``lr``, ``epochs`` and
    ``batch_size``. A rejected or removed key raises ConfigError naming
    its section and key."""
    reject_removed_keys(cfg, section)
    settings = dict(
        lr=cfg.get_float(section, "lr", 1e-3),
        epochs=cfg.get_int(section, "epochs", _DEFAULT_EPOCHS[section]),
        batch_size=cfg.get_int(section, "batch_size", 128),
    )
    try:
        return OptimizerSpec(**settings)
    except ConfigError as exc:
        raise ConfigError(f"config key [{section}] {exc.key}: {exc}") from None
