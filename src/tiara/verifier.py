"""Numerical verification that diagonal attention reweighting contracts the
inconsistency error by the target factor eta.

The check is self-contained: it measures the separation coefficient
kappa-hat and the smallest diagonal entry directly on the instance, builds
the reweighting coefficient alpha from the closed form that balances
iota + kappa * lambda = eta, applies the purely diagonal penalty, and
compares the per-shift inconsistency errors of the reweighted output
against the original.  The guarantee is asymptotic, so a finite-size slack
is added to eta: 0.05 for N >= 128 and 0.15 below.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .attention import softmax_rows
from .consistency import (dynamic_component, estimate_kappa,
                          homogeneity_deviation, inconsistency_profile)
from .errors import ValidationError
from .spectral import Window, as_square

E_TOLERANCE = 1e-12
DENOMINATOR_FLOOR = 1e-12

# The carrier tone sits at this fraction of the frame count; the kernel's
# separation ratio is well below 1 - a_min there, keeping synthetic
# instances inside the feasible region of Assumption-style separation.
CARRIER_POSITION = 0.22


def slack(n: int) -> float:
    """Finite-size headroom added to eta when judging the ratio bound."""
    return 0.05 if n >= 128 else 0.15


def iota(alpha: float, a_min: float) -> float:
    """Coefficient multiplying the original row in the reweighted row."""
    q = np.exp(-alpha)
    return float(q / (1.0 - (1.0 - q) * a_min))


def lambda_coef(alpha: float, a_min: float) -> float:
    """Coefficient multiplying the dynamic component in the reweighted row."""
    q = np.exp(-alpha)
    return float((1.0 - q) / (1.0 - (1.0 - q) * a_min))


def alpha_from_closed_form(kappa: float, eta: float, a_min: float) -> float:
    """The reweighting strength solving iota + kappa * lambda = eta.

    alpha = log((1 - kappa - a_min * eta) / (eta * (1 - a_min) - kappa)).
    Requires kappa < 1 - a_min, a_min in [0, 1), and
    eta in [kappa / (1 - a_min), 1); each violated inequality is named.
    """
    if not 0.0 <= a_min < 1.0:
        raise ValidationError(f"a_min must lie in [0, 1), got {a_min}")
    if kappa < 0.0:
        raise ValidationError(f"kappa must be >= 0, got {kappa}")
    if not kappa < 1.0 - a_min:
        raise ValidationError(
            f"infeasible: kappa < 1 - a_min violated ({kappa} >= {1.0 - a_min})")
    if not eta < 1.0:
        raise ValidationError(f"infeasible: eta < 1 violated (eta = {eta})")
    denominator = eta * (1.0 - a_min) - kappa
    if denominator <= DENOMINATOR_FLOOR:
        raise ValidationError(
            "infeasible: eta * (1 - a_min) - kappa must exceed "
            f"{DENOMINATOR_FLOOR} (eta below kappa / (1 - a_min); got {denominator})")
    numerator = 1.0 - kappa - a_min * eta
    if numerator <= 0.0:
        raise ValidationError(
            f"infeasible: 1 - kappa - a_min * eta must be > 0 (got {numerator})")
    return log(numerator / denominator)


def circular_distance(n: int) -> np.ndarray:
    i = np.arange(n)
    d = np.abs(i[:, None] - i[None, :])
    return np.minimum(d, n - d)


def gen_homogeneous_attention(n: int, decay: float) -> np.ndarray:
    """Logits whose softmax is an exactly time-homogeneous attention map.

    Entry (i, j) is -decay * d(i, j) with d the circular distance, so the
    attention weight decays as exp(-decay * d) with the frame separation.
    decay = 0 gives uniform attention; large decay approaches the identity.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    if decay < 0:
        raise ValidationError(f"decay must be >= 0, got {decay}")
    return -float(decay) * circular_distance(int(n)).astype(float)


def gen_inconsistent_values(n: int, b_v: float, hf_amplitude: float, seed: int) -> np.ndarray:
    """Deterministic value vector with |v_i| <= b_v: a smooth carrier tone in
    the lower half of the spectrum plus a Nyquist-frequency component of the
    given amplitude.

    The carrier takes the remaining amplitude budget b_v - hf_amplitude and
    a seed-derived phase; with hf_amplitude = b_v it vanishes and the result
    is a pure Nyquist tone scaled to b_v.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    if not 0.0 < hf_amplitude <= b_v:
        raise ValidationError(
            f"hf_amplitude must satisfy 0 < hf_amplitude <= b_v, got {hf_amplitude} vs {b_v}")
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(int(n))
    k_carrier = max(1, round(CARRIER_POSITION * n))
    carrier = (b_v - hf_amplitude) * np.cos(2.0 * np.pi * k_carrier * t / n + phase)
    nyquist = hf_amplitude * np.cos(2.0 * np.pi * (n // 2) * t / n)
    return carrier + nyquist


@dataclass(frozen=True)
class TheoremInstance:
    """A synthetic attention system with its measured assumption constants."""

    attention: np.ndarray
    values: np.ndarray
    window: Window
    k_t: int
    eta: float
    kappa_hat: float
    a_min: float
    homogeneity_dev: float
    feasible: bool


@dataclass(frozen=True)
class TheoremReport:
    n: int
    eta: float
    k_t: int
    alpha: float
    iota: float
    lambda_coef: float
    kappa_hat: float
    a_min: float
    homogeneity_dev: float
    min_e_x: float
    ratio_per_tau: np.ndarray  # NaN where E(x, tau) was below tolerance
    max_ratio: float
    slack: float
    passed: bool
    kappa_on_y: float


def make_instance(attention, values, window: Window, k_t: int, eta: float) -> TheoremInstance:
    """Measure kappa-hat, the smallest diagonal entry, and the homogeneity
    deviation of an attention/values pair, and flag feasibility."""
    a = as_square(attention, "attention")
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValidationError("attention entries must lie in [0, 1]")
    if np.abs(a.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValidationError("attention rows must sum to 1 within 1e-9")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise ValidationError(
            f"values must be a vector of length {a.shape[0]}, got shape {v.shape}")
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must lie in (0, 1), got {eta}")
    x = a @ v
    x_dyn = dynamic_component(a) @ v
    kappa_hat = estimate_kappa(x, x_dyn, window, k_t)
    a_min = float(np.diag(a).min())
    feasible = kappa_hat < 1.0 - a_min and eta >= kappa_hat / (1.0 - a_min)
    return TheoremInstance(attention=a, values=v, window=window, k_t=int(k_t), eta=float(eta),
                           kappa_hat=kappa_hat, a_min=a_min,
                           homogeneity_dev=homogeneity_deviation(a), feasible=feasible)


def require_feasible(instance: TheoremInstance) -> None:
    """Raise with the violated inequality when an instance is infeasible."""
    if instance.kappa_hat >= 1.0 - instance.a_min:
        raise ValidationError(
            "infeasible: kappa_hat < 1 - a_min violated "
            f"({instance.kappa_hat} >= {1.0 - instance.a_min})")
    if instance.eta < instance.kappa_hat / (1.0 - instance.a_min):
        raise ValidationError(
            "infeasible: eta >= kappa_hat / (1 - a_min) violated "
            f"({instance.eta} < {instance.kappa_hat / (1.0 - instance.a_min)})")


def verify_theorem(instance: TheoremInstance) -> TheoremReport:
    """Build alpha from the closed form, reweight with a purely diagonal
    penalty, and compare per-shift inconsistency errors.  The instance must
    be feasible (``require_feasible``); ``alpha_from_closed_form`` rejects
    one that is not before any work is done.

    Shifts where E(x, tau) falls below 1e-12 are skipped in the ratio; if
    every shift is skipped the instance has no inconsistency to reduce and
    the run is rejected.
    """
    a = instance.attention
    n = a.shape[0]
    alpha = alpha_from_closed_form(instance.kappa_hat, instance.eta, instance.a_min)

    e_x = inconsistency_profile(a @ instance.values, instance.window, instance.k_t).per_tau
    if e_x.max() < E_TOLERANCE:
        raise ValidationError(
            "Assumption 1 violated: every E(x, tau) is below tolerance; "
            "the instance carries no inconsistency to reduce")

    with np.errstate(divide="ignore"):
        log_a = np.log(a)
    a_y = softmax_rows(log_a - alpha * np.eye(n))
    y = a_y @ instance.values
    e_y = inconsistency_profile(y, instance.window, instance.k_t).per_tau

    ratios = np.full(n, np.nan)
    kept = e_x >= E_TOLERANCE
    ratios[kept] = e_y[kept] / e_x[kept]
    max_ratio = float(np.nanmax(ratios))
    s = slack(n)
    kappa_on_y = estimate_kappa(y, dynamic_component(a_y) @ instance.values,
                                instance.window, instance.k_t)
    return TheoremReport(
        n=n, eta=instance.eta, k_t=instance.k_t, alpha=alpha,
        iota=iota(alpha, instance.a_min), lambda_coef=lambda_coef(alpha, instance.a_min),
        kappa_hat=instance.kappa_hat, a_min=instance.a_min,
        homogeneity_dev=instance.homogeneity_dev, min_e_x=float(e_x.min()),
        ratio_per_tau=ratios, max_ratio=max_ratio, slack=s,
        passed=max_ratio <= instance.eta + s, kappa_on_y=kappa_on_y)


def format_report(report: TheoremReport) -> str:
    """Structured text: one key/value per line plus the per-shift table."""
    lines = [
        f"n: {report.n}",
        f"eta: {report.eta:.12g}",
        f"k_threshold: {report.k_t}",
        f"kappa_hat: {report.kappa_hat:.12g}",
        f"a_min: {report.a_min:.12g}",
        f"alpha: {report.alpha:.12g}",
        f"iota: {report.iota:.12g}",
        f"lambda: {report.lambda_coef:.12g}",
        f"homogeneity_deviation: {report.homogeneity_dev:.12g}",
        f"min_e_x: {report.min_e_x:.12g}",
        f"max_ratio: {report.max_ratio:.12g}",
        f"slack: {report.slack:.12g}",
        f"kappa_on_y: {report.kappa_on_y:.12g}",
        f"pass: {'true' if report.passed else 'false'}",
        "tau ratio",
    ]
    for tau, ratio in enumerate(report.ratio_per_tau):
        lines.append(f"{tau} {'skipped' if np.isnan(ratio) else format(ratio, '.12g')}")
    return "\n".join(lines) + "\n"
