"""Plain-text key=value configuration shared by all CLI commands.

Unknown keys are rejected; values are validated on load against the
preconditions of the modules that consume them.  Keys left unset fall back
to defaults; corner_size, corner_penalty, phi1 and phi2 stay unset until a
frame count is known (corner_size -> N//4, corner_penalty -> alpha/2, the
band thresholds -> the padded-length defaults).
"""

from dataclasses import dataclass, fields, replace
from math import isfinite
from typing import get_args

from .errors import ConfigError
from .spectral import WINDOW_KINDS, Window, make_window


@dataclass(frozen=True)
class Config:
    alpha: float = 6.0
    corner_size: int | None = None
    corner_penalty: float | None = None
    window_kind: str = "blackman"
    window_length: int = 9
    phi1: int | None = None
    phi2: int | None = None
    k_threshold: int = 5
    eta: float = 0.9
    t1: float = 0.6
    t2: float = 1.0
    layer_threshold: int = 8
    seed: int = 0

    def window(self) -> Window:
        return make_window(self.window_kind, self.window_length)


# Config-file key -> (Config field, parser), derived from the dataclass so
# that the file keys and the CLI override flags (--field-name) cannot drift.
_FILE_ALIASES = {"window_kind": "window.kind", "window_length": "window.length"}
CONFIG_KEYS = {_FILE_ALIASES.get(f.name, f.name): (f.name, (get_args(f.type) or (f.type,))[0])
               for f in fields(Config)}


def validate_config(config: Config) -> Config:
    for name in ("alpha", "corner_penalty", "t1", "t2"):
        value = getattr(config, name)
        if value is not None and not isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if config.alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {config.alpha}")
    if config.corner_size is not None and config.corner_size < 0:
        raise ConfigError(f"corner_size must be >= 0, got {config.corner_size}")
    if config.corner_penalty is not None and config.corner_penalty < 0:
        raise ConfigError(f"corner_penalty must be >= 0, got {config.corner_penalty}")
    if config.window_kind not in WINDOW_KINDS:
        raise ConfigError(f"window.kind must be one of {WINDOW_KINDS}, got {config.window_kind!r}")
    if config.window_length < 1:
        raise ConfigError(f"window.length must be >= 1, got {config.window_length}")
    if config.phi1 is not None and config.phi1 < 0:
        raise ConfigError(f"phi1 must be >= 0, got {config.phi1}")
    if config.phi2 is not None and config.phi2 < 1:
        raise ConfigError(f"phi2 must be >= 1, got {config.phi2}")
    if (config.phi1 is not None and config.phi2 is not None
            and not config.phi1 < config.phi2):
        raise ConfigError(f"phi1 must be < phi2, got {config.phi1} >= {config.phi2}")
    if config.k_threshold < 1:
        raise ConfigError(f"k_threshold must be >= 1, got {config.k_threshold}")
    if not 0.0 < config.eta < 1.0:
        raise ConfigError(f"eta must lie in (0, 1), got {config.eta}")
    if config.t1 > config.t2:
        raise ConfigError(f"t1 must be <= t2, got {config.t1} > {config.t2}")
    if config.layer_threshold < 0:
        raise ConfigError(f"layer_threshold must be >= 0, got {config.layer_threshold}")
    return config


def load_config(path) -> Config:
    updates = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            field, cast = CONFIG_KEYS[key]
            try:
                updates[field] = cast(raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse {raw!r} as {cast.__name__}")
    return validate_config(replace(Config(), **updates))
