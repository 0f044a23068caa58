"""Numerical verification that diagonal attention reweighting contracts the
inconsistency error by the target factor eta.

The check is self-contained: it measures the separation coefficient
kappa-hat and the smallest diagonal entry directly on the instance, builds
the reweighting coefficient alpha from the closed form that balances
iota + kappa * lambda = eta, applies the purely diagonal penalty, and
compares the per-shift inconsistency errors of the reweighted output
against the original.  Each of the four signals x, x_dyn, y and y_dyn is
transformed once, a pair per stacked call, and each pair is read from its
two tables alone.  One predicate decides feasibility for the instance
flag, ``require_feasible`` and the closed form.  The guarantee is
asymptotic, so eta gets a finite-size slack: 0.05 for N >= 128, else 0.15.

The reweighted map softmax(log a - alpha * I) is never formed.  With row
sums s, diagonal d, q = e^-alpha and x = a @ v, its row i is
a[i, j] * q^[i = j] / den_i with den = s - (1 - q) * d, so
y = (x - (1 - q) * d * v) / den, y_dyn = (x - d * v) / den and
x_dyn = x - d * v: O(N) work after the one matvec.  The verifier holds no
N x N array beyond the attention map and fixed-size transform blocks, so
``verify-theorem --sizes 2048`` peaks at about 103 MiB of RSS and
``--sizes 4096`` at about 300 MiB (2-core x86_64, NumPy 2.4).
"""

from dataclasses import dataclass
from functools import partial
from math import log

import numpy as np

from .consistency import _error_and_kappa, homogeneity_deviation
from .errors import ValidationError, _finite_array_rule, _finite_rule, _integer_rule, _size_rule
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


def _violation(kappa: float, eta: float, a_min: float, name: str) -> str | None:
    """The first feasibility inequality that (kappa, eta, a_min) violates,
    worded with ``name`` for kappa, or None.  Given the last two checks,
    1 - kappa - a_min * eta > 1 - eta > 0: the closed form's numerator is
    positive whenever its denominator is."""
    try:
        _finite_rule(kappa, name, 0)
        _finite_rule(eta, "eta")
        _finite_rule(a_min, "a_min")
    except ValidationError as exc:
        return str(exc)
    if not kappa < 1.0 - a_min:
        return f"infeasible: {name} < 1 - a_min violated ({kappa} >= {1.0 - a_min})"
    if not 0.0 <= a_min < 1.0:
        return f"a_min must lie in [0, 1), got {a_min}"
    if not eta < 1.0:
        return f"infeasible: eta < 1 violated (eta = {eta})"
    margin = eta * (1.0 - a_min) - kappa
    if not margin > DENOMINATOR_FLOOR:
        return (f"infeasible: eta >= {name} / (1 - a_min) violated "
                f"(eta * (1 - a_min) - {name} = {margin}, must exceed {DENOMINATOR_FLOOR})")
    return None


def _eta_rule(eta, name: str) -> None:
    _finite_rule(eta, name)
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {eta}")


_seed_rule = partial(_integer_rule, low=0)


def alpha_from_closed_form(kappa: float, eta: float, a_min: float) -> float:
    """The reweighting strength solving iota + kappa * lambda = eta.

    alpha = log((1 - kappa - a_min * eta) / (eta * (1 - a_min) - kappa)).
    Requires kappa < 1 - a_min, a_min in [0, 1), and
    eta in (kappa / (1 - a_min), 1); each violated inequality is named.
    """
    if violation := _violation(kappa, eta, a_min, "kappa"):
        raise ValidationError(violation)
    return log((1.0 - kappa - a_min * eta) / (eta * (1.0 - a_min) - kappa))


def gen_homogeneous_attention(n: int, decay: float) -> np.ndarray:
    """Logits whose softmax is an exactly time-homogeneous attention map.

    Entry (i, j) is -decay * d(i, j) with d the circular distance, so the
    attention weight decays as exp(-decay * d) with the frame separation.
    decay = 0 gives uniform attention; large decay approaches the identity.
    """
    _size_rule(n, "n", 2, ndim=2)
    _finite_rule(decay, "decay", 0)
    n = int(n)
    k = np.arange(n, dtype=float)
    first = -float(decay) * np.minimum(k, n - k)  # row 0: circular distance to frame 0
    # row i is row 0 rolled by i, read from a window sliding over two copies
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((first, first)), n)
    return windows[n:0:-1].copy()


def gen_inconsistent_values(n: int, b_v: float, hf_amplitude: float, seed: int) -> np.ndarray:
    """Deterministic value vector with |v_i| <= b_v: a smooth carrier tone in
    the lower half of the spectrum plus a Nyquist-frequency component of the
    given amplitude.

    The carrier takes the remaining amplitude budget b_v - hf_amplitude and
    a seed-derived phase; with hf_amplitude = b_v it vanishes and the result
    is a pure Nyquist tone scaled to b_v.
    """
    _size_rule(n, "n", 2)
    _seed_rule(seed, "seed")
    _finite_rule(b_v, "b_v")
    _finite_rule(hf_amplitude, "hf_amplitude")
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
    e_x: np.ndarray  # E(x, tau) for every shift tau, x = attention @ values


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
    """Measure kappa-hat, the smallest diagonal entry, the homogeneity
    deviation and E(x, tau) of an attention/values pair, and flag
    feasibility.  One reduction of (x, x_dyn) gives kappa-hat and E(x, tau)."""
    a = as_square(attention, "attention")
    if a.size == 0:  # no row sum to check
        raise ValidationError(f"attention must have at least one frame, got shape {a.shape}")
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValidationError("attention entries must lie in [0, 1]")
    if np.abs(a.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValidationError("attention rows must sum to 1 within 1e-9")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise ValidationError(
            f"values must be a vector of length {a.shape[0]}, got shape {v.shape}")
    _finite_array_rule(v, "values")
    _eta_rule(eta, "eta")
    x = a @ v
    d = np.diag(a)
    e_x, kappa_hat = _error_and_kappa(x, x - d * v, window, k_t)
    a_min = float(d.min())
    return TheoremInstance(attention=a, values=v, window=window, k_t=int(k_t), eta=float(eta),
                           kappa_hat=kappa_hat, a_min=a_min, e_x=e_x,
                           homogeneity_dev=homogeneity_deviation(a),
                           feasible=_violation(kappa_hat, eta, a_min, "kappa_hat") is None)


def require_feasible(instance: TheoremInstance) -> None:
    """Raise with the violated inequality when an instance is infeasible."""
    if violation := _violation(instance.kappa_hat, instance.eta, instance.a_min, "kappa_hat"):
        raise ValidationError(violation)


def verify_theorem(instance: TheoremInstance) -> TheoremReport:
    """Build alpha from the closed form, reweight with a purely diagonal
    penalty, and compare per-shift inconsistency errors.  The instance must
    be feasible (``require_feasible``); ``alpha_from_closed_form`` rejects
    one that is not before any work is done.

    The reweighted outputs y and y_dyn come from the closed form in the
    module docstring.  E(x, tau) is ``instance.e_x``; one reduction of
    (y, y_dyn) gives E(y, tau) and kappa_on_y.  Shifts where E(x, tau) falls
    below 1e-12 are skipped in the ratio; if every shift is skipped the
    instance has no inconsistency to reduce and the run is rejected.
    """
    a = instance.attention
    n = a.shape[0]
    alpha = alpha_from_closed_form(instance.kappa_hat, instance.eta, instance.a_min)

    e_x = instance.e_x
    if e_x.max() < E_TOLERANCE:
        raise ValidationError(
            "Assumption 1 violated: every E(x, tau) is below tolerance; "
            "the instance carries no inconsistency to reduce")

    v = instance.values
    d = np.diag(a)
    q = np.exp(-alpha)
    x = a @ v
    # row sums, not 1: rows summing to 1 within 1e-9 still match the softmax
    den = a.sum(axis=1) - (1.0 - q) * d
    e_y, kappa_on_y = _error_and_kappa((x - (1.0 - q) * d * v) / den, (x - d * v) / den,
                                       instance.window, instance.k_t)
    ratios = np.divide(e_y, e_x, out=np.full(n, np.nan), where=e_x >= E_TOLERANCE)
    max_ratio = float(np.nanmax(ratios))
    s = slack(n)
    return TheoremReport(
        n=n, eta=instance.eta, k_t=instance.k_t, alpha=alpha,
        iota=iota(alpha, instance.a_min), lambda_coef=lambda_coef(alpha, instance.a_min),
        kappa_hat=instance.kappa_hat, a_min=instance.a_min,
        homogeneity_dev=instance.homogeneity_dev, min_e_x=float(e_x.min()),
        ratio_per_tau=ratios, max_ratio=max_ratio, slack=s,
        passed=max_ratio <= instance.eta + s, kappa_on_y=kappa_on_y)


def format_report(report: TheoremReport) -> str:
    """Structured text: one key/value per line plus the per-shift table.

    Floats are printed to 12 significant digits, more than some instances
    support: with a high-frequency line of amplitude 1e-12, |T(x)| is about
    1e-12 while x is about 1, so float64 rounding in x = a @ v alone moves
    kappa_hat by up to about 5e-10 relative, and only about 9 to 10 of its
    digits are meaningful.  At N = 4096, direct and real-FFT windowed sums
    give kappa_hat values 6.8e-11 apart relative, in the 11th digit.
    """
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
