"""The exact flow at 60 digits, to judge the float constructions and their certificates.

Every value is computed with mpmath from the stored doubles (the symbol's
levels, the field's samples, the time), so it is the exact flow of the
data the package holds, not of the continuum symbol.
"""

import mpmath as mp
import numpy as np

from frechet_flow.spectral import SpectralField, seminorm_profile

DIGITS = 60


def exact_tail(rate, terms):
    """``sum_{n > terms} rate^n / n!``, rounded once to a float."""
    with mp.workdps(DIGITS):
        return float(mp.exp(rate) - sum(mp.mpf(rate) ** n / mp.factorial(n)
                                        for n in range(terms + 1)))


def exact_factors(levels, t):
    """``e^{t a_l}`` for each stored level ``a_l``, as mpmath complex numbers."""
    with mp.workdps(DIGITS):
        return [mp.exp(mp.mpf(float(t)) * mp.mpc(complex(a))) for a in levels]


def flow_error_profile(op, t, u, field):
    """Ball profile ``(p_1, ..., p_J)`` of ``field - e^{tA} u``, the exact flow of u.

    Each node's difference is formed at 60 digits and rounded once, so the
    profile is that of the error itself, to a few ulps of each sample.
    """
    levels, index = op.levels()
    factors = exact_factors(levels, t)
    error = np.empty(u.values.size, dtype=complex)
    samples, values = u.values.ravel(), field.values.ravel()
    with mp.workdps(DIGITS):
        # the level index is in shell order: its k-th entry is node order[k]'s level
        for node, level in zip(u.grid.shells().order.tolist(), index.tolist()):
            error[node] = complex(mp.mpc(complex(values[node]))
                                  - factors[level] * mp.mpc(complex(samples[node])))
    return seminorm_profile(SpectralField(u.grid, error.reshape(u.grid.shape)))
