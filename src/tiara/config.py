"""Plain-text key=value configuration shared by all CLI commands.

Unknown keys are rejected; on load, before any file is read, each key is
checked under its own name by the predicate of the module that consumes
it.  Keys left unset fall back to defaults; corner_size, corner_penalty,
phi1 and phi2 stay unset until the frame count N is known (corner_size
-> N//4, corner_penalty -> alpha/2, the band thresholds -> the
padded-length defaults), as do the bounds that depend on N.
"""

from dataclasses import dataclass, fields, replace
from typing import get_args

from . import attention, consistency, promptblend, spectral, verifier
from .errors import ConfigError
from .spectral import Window, make_window


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
    for violation in (attention._strength_violation(config.alpha, "alpha"),
                      attention._corner_size_violation(config.corner_size, "corner_size"),
                      attention._strength_violation(config.corner_penalty, "corner_penalty"),
                      spectral._kind_violation(config.window_kind, "window.kind"),
                      spectral._window_length_rule(config.window_length, "window.length"),
                      attention._band_violation(config.phi1, config.phi2),
                      consistency._k_threshold_violation(config.k_threshold, "k_threshold"),
                      verifier._eta_violation(config.eta, "eta"),
                      promptblend._t_window_violation(config.t1, config.t2),
                      promptblend._layer_rule(config.layer_threshold, "layer_threshold"),
                      verifier._seed_rule(config.seed, "seed")):
        if violation:
            raise ConfigError(violation)
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
