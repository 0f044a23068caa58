"""Plain-text key=value configuration shared by all CLI commands.

Unknown keys are rejected.  A ``Config`` checks itself when it is built:
each key under its own name, by the rule of the module that consumes it,
whose failure is raised as ``ConfigError``.  Keys left unset fall back to
defaults; corner_size, corner_penalty, phi1 and phi2 stay unset until the
frame count N is known (corner_size -> N//4, corner_penalty -> alpha/2,
the band thresholds -> the padded-length defaults), as do the bounds that
depend on N.
"""

from dataclasses import dataclass, fields
from typing import get_args

from . import attention, consistency, promptblend, spectral, verifier
from .errors import ConfigError, ValidationError, _finite_rule
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

    def __post_init__(self):
        try:
            _finite_rule(self.alpha, "alpha", 0)
            attention._corner_size_rule(self.corner_size, "corner_size")
            attention._strength_rule(self.corner_penalty, "corner_penalty")
            spectral._kind_rule(self.window_kind, "window.kind")
            spectral._window_length_rule(self.window_length, "window.length")
            attention._band_rule(self.phi1, self.phi2)
            consistency._k_threshold_rule(self.k_threshold, "k_threshold")
            verifier._eta_rule(self.eta, "eta")
            promptblend._t_window_rule(self.t1, self.t2)
            promptblend._layer_rule(self.layer_threshold, "layer_threshold")
            verifier._seed_rule(self.seed, "seed")
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def window(self) -> Window:
        return make_window(self.window_kind, self.window_length)


# Config-file key -> (Config field, parser), derived from the dataclass so
# that the file keys and the CLI override flags (--field-name) cannot drift.
_FILE_ALIASES = {"window_kind": "window.kind", "window_length": "window.length"}
CONFIG_KEYS = {_FILE_ALIASES.get(f.name, f.name): (f.name, (get_args(f.type) or (f.type,))[0])
               for f in fields(Config)}


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
    return Config(**updates)
