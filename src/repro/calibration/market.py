"""An agent-based asset market with herding (Alfarano et al. [1]).

Section 3.1's calibration examples come from econometrics: agent-based
market models whose parameters are estimated by MSM against the stylized
facts of return series.  We implement the canonical herding mechanism: a
population of noise traders each holding an optimistic or pessimistic
view; a trader switches view at a rate ``a + b * n_other / N`` (an
idiosyncratic rate plus a herding term proportional to the share holding
the opposite view).  Returns combine a fundamental innovation with the
shift in sentiment, producing the fat tails and volatility clustering
real markets show.

Because the model is generative with known parameters, calibration
accuracy is measurable — the point of the AN-CAL benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError


@dataclass(frozen=True)
class HerdingParameters:
    """Parameters of the herding market model."""

    idiosyncratic_rate: float = 0.002  # `a`: spontaneous view switching
    herding_rate: float = 0.05        # `b`: imitation strength
    fundamental_sd: float = 0.005      # news innovations
    sentiment_impact: float = 0.5      # how sentiment shifts move prices

    def __post_init__(self):
        if self.idiosyncratic_rate <= 0 or self.herding_rate < 0:
            raise CalibrationError("rates must be positive (herding >= 0)")
        if self.fundamental_sd <= 0 or self.sentiment_impact < 0:
            raise CalibrationError(
                "fundamental_sd must be > 0 and impact >= 0"
            )

    def as_vector(self) -> np.ndarray:
        """The calibratable parameter vector ``(a, b)``."""
        return np.array([self.idiosyncratic_rate, self.herding_rate])

    @classmethod
    def from_vector(
        cls, theta: np.ndarray, template: "HerdingParameters"
    ) -> "HerdingParameters":
        """Rebuild parameters from a ``(a, b)`` vector (rest from template)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (2,):
            raise CalibrationError(f"theta must be length 2, got {theta.shape}")
        return cls(
            idiosyncratic_rate=float(theta[0]),
            herding_rate=float(theta[1]),
            fundamental_sd=template.fundamental_sd,
            sentiment_impact=template.sentiment_impact,
        )


class HerdingMarketModel:
    """Simulate return series from the herding model.

    Parameters
    ----------
    params:
        Behavioral and market parameters.
    num_traders:
        Population size ``N``.
    """

    def __init__(
        self, params: HerdingParameters, num_traders: int = 100
    ) -> None:
        if num_traders < 2:
            raise CalibrationError("need at least two traders")
        self.params = params
        self.num_traders = num_traders

    def simulate_returns(
        self, steps: int, rng: np.random.Generator, burn_in: int = 100
    ) -> np.ndarray:
        """One return path of length ``steps`` after ``burn_in``.

        State: ``n_opt`` optimists out of ``N``.  Each tick, every trader
        independently switches view with probability
        ``a + b * (opposite count) / N`` (capped at 1); sentiment is
        ``(n_opt - n_pess) / N`` and the return is
        ``fundamental noise + impact * (sentiment change)``.
        """
        if steps < 1:
            raise CalibrationError("steps must be >= 1")
        a = self.params.idiosyncratic_rate
        b = self.params.herding_rate
        n = self.num_traders
        n_opt = n // 2
        sentiment = (2 * n_opt - n) / n
        returns = np.empty(steps)
        for t in range(burn_in + steps):
            n_pess = n - n_opt
            p_opt_to_pess = min(a + b * n_pess / n, 1.0)
            p_pess_to_opt = min(a + b * n_opt / n, 1.0)
            leaving_opt = rng.binomial(n_opt, p_opt_to_pess) if n_opt else 0
            joining_opt = rng.binomial(n_pess, p_pess_to_opt) if n_pess else 0
            n_opt = n_opt - leaving_opt + joining_opt
            new_sentiment = (2 * n_opt - n) / n
            ret = float(
                rng.normal(0.0, self.params.fundamental_sd)
                + self.params.sentiment_impact * (new_sentiment - sentiment)
            )
            sentiment = new_sentiment
            if t >= burn_in:
                returns[t - burn_in] = ret
        return returns


def make_msm_simulator(
    template: HerdingParameters,
    num_traders: int = 100,
    steps: int = 500,
    burn_in: int = 100,
):
    """Build the MSM moment simulator ``(theta, rng) -> statistics``.

    ``theta = (idiosyncratic_rate, herding_rate)``; statistics come from
    :func:`repro.calibration.moments.standard_market_moments`.
    """
    from repro.calibration.moments import standard_market_moments

    def simulator(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        safe = np.maximum(theta, 1e-6)
        params = HerdingParameters.from_vector(safe, template)
        model = HerdingMarketModel(params, num_traders)
        returns = model.simulate_returns(steps, rng, burn_in=burn_in)
        return standard_market_moments(returns)

    return simulator
