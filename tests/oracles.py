"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and cmath,
sharing no code with the package so that agreement is meaningful.
"""

import cmath
from math import ceil, cos, exp, pi


def naive_dft(x, k):
    n = len(x)
    return sum(x[t] * cmath.exp(-2j * cmath.pi * k * t / n) for t in range(n))


def embed_window(coeffs, m, n):
    """Length-n array holding the window placed at shift m (centred,
    coefficient j at position m + j - L//2, wrapped mod n)."""
    arr = [0.0] * n
    half = len(coeffs) // 2
    for j, c in enumerate(coeffs):
        arr[(m + j - half) % n] += c
    return arr


def naive_dstft(x, coeffs, m, k):
    n = len(x)
    w = embed_window(coeffs, m, n)
    return sum(x[t] * w[t] * cmath.exp(-2j * cmath.pi * k * t / n) for t in range(n))


def naive_softmax(logits):
    out = []
    for row in logits:
        exps = [exp(v) for v in row]
        total = sum(exps)
        out.append([v / total for v in exps])
    return out


def pad_wrap(values, half):
    n = len(values)
    return [values[(t - half) % n] for t in range(n + 2 * half)]


def rho_reference(row, coeffs, i, phi1=None, phi2=None):
    """Motion intensity: mean-removed row, periodic pad by L//2, windowed
    transform at the padded position of sample i, one-sided power ratio."""
    row = [float(v) for v in row]
    n = len(row)
    if max(row) == min(row):
        return 0.0
    mean = sum(row) / n
    deviation = [v - mean for v in row]
    half = len(coeffs) // 2
    padded = pad_wrap(deviation, half)
    npad = n + 2 * half
    if phi1 is None:
        phi1 = ceil(npad / 8)
    if phi2 is None:
        phi2 = npad // 2 + 1
    numerator = 0.0
    denominator = 0.0
    for k in range(phi2):
        power = abs(naive_dstft(padded, coeffs, i + half, k)) ** 2
        denominator += power
        if k >= phi1:
            numerator += power
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def closed_form_rows(attention, alpha):
    """Per-row map from the original attention map to the diagonally
    reweighted one: off-diagonal entries are scaled by
    1 / (1 - (1 - e^-alpha) * a_ii) and the diagonal additionally by
    e^-alpha."""
    n = len(attention)
    q = exp(-alpha)
    out = []
    for i in range(n):
        denom = 1.0 - (1.0 - q) * attention[i][i]
        row = [attention[i][j] / denom for j in range(n)]
        row[i] = q * attention[i][i] / denom
        out.append(row)
    return out


def algorithm_reference(logits_field, values_field, coeffs, alpha, corner_size,
                        corner_penalty, phi1=None, phi2=None):
    """Straight-line reimplementation of the motion-adaptive reweighting
    pipeline over an (H, W) field, for equivalence testing.  A field with
    H = 0 gives an empty list."""
    outputs = []
    for hi in range(len(logits_field)):
        out_row = []
        for wi in range(len(logits_field[hi])):
            logits = logits_field[hi][wi]
            values = values_field[hi][wi]
            n = len(logits)
            attention = naive_softmax(logits)
            lam = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if i + (n - 1 - j) < corner_size or (n - 1 - i) + j < corner_size:
                        lam[i][j] = -corner_penalty
            for i in range(n):
                rho_i = rho_reference(attention[i], coeffs, i, phi1, phi2)
                lam[i][i] = -alpha * (1.0 - rho_i)
            shifted = [[logits[i][j] + lam[i][j] for j in range(n)] for i in range(n)]
            reweighted = naive_softmax(shifted)
            d_v = len(values[0])
            out = [[sum(reweighted[i][j] * values[j][c] for j in range(n))
                    for c in range(d_v)] for i in range(n)]
            out_row.append(out)
        outputs.append(out_row)
    return outputs
