"""The exact flow at 60 digits, to judge the float constructions and their certificates,
the exact ball membership, to judge what the shell index reads, and random symbols to
judge them on.

Every value is computed with mpmath from the stored doubles (the symbol's
levels, the field's samples, the time), so it is the exact flow of the
data the package holds, not of the continuum symbol.
"""

import mpmath as mp
import numpy as np

from frechet_flow.spectral import SpectralField, seminorm_profile
from frechet_flow.symbols import PolynomialSymbol

DIGITS = 60


def ball_mask(grid, j):
    """Grid-shaped mask of the nodes with ``|xi| <= j``, in integers: ``|k|^2 <= (j inv_h)^2``."""
    squares = grid.axis_index**2
    r2 = squares if grid.n == 1 else squares[:, None] + squares[None, :]
    return r2 <= (j * grid.inv_h) ** 2


def symbol_values(op):
    """The operator's symbol on every node, grid-shaped: its levels through its index, put
    back in grid order."""
    levels, index = op.levels()
    values = np.empty(op.grid.node_count, dtype=complex)
    values[op.grid.shells().order] = levels[index]
    return values.reshape(op.grid.shape)


def random_polynomial(rng, n, real=False):
    """A random symbol of up to six terms, each axis of degree at most 4 and, at random,
    entering through even powers only (the mirrored table build).  Each coefficient part
    is a signed zero or a normal scaled by 10^[-3, 3]; every imaginary part is 0 if
    ``real``."""
    even = rng.random(n) < 0.5

    def part():
        draw = rng.random()
        if draw < 0.3:
            return 0.0 if draw < 0.15 else -0.0
        return rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)

    coeffs = {}
    for _ in range(rng.integers(1, 7)):
        degrees = rng.integers(0, 5, n)
        alpha = tuple(int(a - a % 2 * mirrored) for a, mirrored in zip(degrees, even))
        coeffs[alpha] = complex(part(), 0.0 if real else part())
    return PolynomialSymbol(n, coeffs)


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
    error = np.empty(u.samples.size, dtype=complex)
    with mp.workdps(DIGITS):
        # the samples and the level index are both in shell order
        for k, (level, sample, value) in enumerate(zip(index.tolist(), u.samples.tolist(),
                                                        field.samples.tolist())):
            error[k] = complex(mp.mpc(value) - factors[level] * mp.mpc(sample))
    return seminorm_profile(SpectralField._adopt(u.grid, error))
