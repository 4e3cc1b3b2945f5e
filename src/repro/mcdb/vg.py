"""Variable-generation (VG) functions for the Monte Carlo database.

In MCDB (Jampani et al., TODS 2011 — Section 2.1 of the paper), uncertain
data is represented not by values but by *stochastic models*, implemented as
libraries of VG functions.  A call to a VG function generates a pseudorandom
realization of one or more uncertain values; parameters typically come from
SQL queries over the non-random tables.

This module provides the VG interface plus the library of functions the
paper mentions: sampling from a normal distribution (the blood-pressure
example), a backward random walk for imputing missing prior prices, a
geometric-Brownian-motion walk for valuing a stock option, and a Bayesian
customer-demand model.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.stats.distributions import Discrete, Distribution

Params = Mapping[str, Any]


class VGFunction(ABC):
    """Base class for variable-generation functions.

    A VG function maps a parameter dictionary to a realization of one or
    more uncertain values.  ``output_columns`` names the values produced;
    :meth:`generate` returns one realization, :meth:`generate_many`
    returns ``n`` realizations as columns of Python values (one naive
    Monte Carlo world's random table) and :meth:`generate_bundle`
    returns ``n`` realizations as arrays (the representation used by
    tuple-bundle query processing).

    ``generate_many`` is held to ``n`` calls of ``generate``: the same
    draws from ``rng``, the same values and Python types, and ``rng``
    left in the same state.  The base class loops; ``NormalVG``
    overrides it with one sized draw, and loops again when a subclass
    overrides its ``generate``.
    """

    #: Names of the generated values.
    output_columns: Sequence[str] = ("value",)

    @abstractmethod
    def generate(
        self, rng: np.random.Generator, params: Params
    ) -> Dict[str, Any]:
        """Generate one realization of the uncertain values."""

    def generate_many(
        self, rng: np.random.Generator, params: Params, n: int
    ) -> Dict[str, List[Any]]:
        """Generate ``n >= 1`` realizations as columns, one list per value.

        Exactly ``n`` calls of :meth:`generate`, each handed its own
        ``dict(params)``; the columns are the first realization's keys,
        and realizations whose key sets differ raise
        :class:`RaggedRealizations`.
        """
        return realization_columns(
            [self.generate(rng, dict(params)) for _ in range(n)]
        )

    def generate_bundle(
        self, rng: np.random.Generator, params: Params, n: int
    ) -> Dict[str, np.ndarray]:
        """Generate ``n`` i.i.d. realizations, one array per output column.

        The default implementation loops over :meth:`generate`; subclasses
        override it with vectorized sampling when possible.
        """
        columns: Dict[str, List[Any]] = {c: [] for c in self.output_columns}
        for _ in range(n):
            sample = self.generate(rng, params)
            for column in self.output_columns:
                columns[column].append(sample[column])
        return {c: np.asarray(v) for c, v in columns.items()}

    def _require(self, params: Params, *names: str) -> List[Any]:
        missing = [n for n in names if n not in params or params[n] is None]
        if missing:
            raise VGFunctionError(
                f"{type(self).__name__} missing parameters {missing}; "
                f"got {sorted(params)}"
            )
        return [params[n] for n in names]


class RaggedRealizations(VGFunctionError):
    """Realizations whose key sets differ, which no set of columns holds.

    Its ``samples`` keeps them, in draw order, for a caller that can
    take them a row at a time.
    """


def realization_columns(
    samples: Sequence[Mapping[str, Any]]
) -> Dict[str, List[Any]]:
    """One or more realizations as columns, keyed by the first one's keys.

    Raises :class:`RaggedRealizations` when a realization's key set
    differs from the first one's.
    """
    keys = samples[0].keys()
    other = next((s for s in samples if s.keys() != keys), None)
    if other is not None:
        error = RaggedRealizations(
            f"VG realizations differ in their keys: {sorted(keys)} "
            f"and {sorted(other)}"
        )
        error.samples = samples
        raise error
    return {c: [s[c] for s in samples] for c in keys}


class NormalVG(VGFunction):
    """Sample from ``Normal(mean, std)`` — the SBP_DATA example.

    Parameters: ``mean``, ``std``.
    """

    output_columns = ("value",)

    def _mean_std(self, params: Params) -> List[Any]:
        mean, std = self._require(params, "mean", "std")
        if std <= 0:
            raise VGFunctionError(f"std must be positive, got {std}")
        return [mean, std]

    def generate(self, rng, params):
        mean, std = self._mean_std(params)
        return {"value": float(rng.normal(mean, std))}

    def generate_many(self, rng, params, n):
        if type(self).generate is not NormalVG.generate:
            # A subclass's own ``generate`` defines its draws.
            return super().generate_many(rng, params, n)
        mean, std = self._mean_std(params)
        return {"value": rng.normal(mean, std, size=n).tolist()}

    def generate_bundle(self, rng, params, n):
        mean, std = self._mean_std(params)
        return {"value": rng.normal(mean, std, size=n)}


class PoissonVG(VGFunction):
    """Sample a Poisson count (e.g. uncertain demand volume).

    Parameters: ``mean``.
    """

    output_columns = ("value",)

    def generate(self, rng, params):
        (mean,) = self._require(params, "mean")
        if mean <= 0:
            raise VGFunctionError(f"mean must be positive, got {mean}")
        return {"value": int(rng.poisson(mean))}

    def generate_bundle(self, rng, params, n):
        (mean,) = self._require(params, "mean")
        if mean <= 0:
            raise VGFunctionError(f"mean must be positive, got {mean}")
        return {"value": rng.poisson(mean, size=n)}


class DiscreteChoiceVG(VGFunction):
    """Sample from a finite set of alternatives with given probabilities.

    Parameters: ``values`` (sequence), ``probabilities`` (sequence).
    """

    output_columns = ("value",)

    def generate(self, rng, params):
        values, probs = self._require(params, "values", "probabilities")
        dist = Discrete(values, probs)
        return {"value": float(dist.sample(rng))}

    def generate_bundle(self, rng, params, n):
        values, probs = self._require(params, "values", "probabilities")
        dist = Discrete(values, probs)
        return {"value": dist.sample(rng, size=n)}


class BackwardRandomWalkVG(VGFunction):
    """Impute a missing prior price by walking backward from today's price.

    The paper describes "executing a backward random walk starting at a
    given current price in order to estimate missing prior prices".  The
    walk is multiplicative with per-step volatility ``sigma``.

    Parameters: ``current_price``, ``steps_back``, ``sigma``.
    """

    output_columns = ("prior_price",)

    def generate(self, rng, params):
        price, steps, sigma = self._require(
            params, "current_price", "steps_back", "sigma"
        )
        if price <= 0 or sigma <= 0 or steps < 0:
            raise VGFunctionError(
                "need current_price > 0, sigma > 0, steps_back >= 0"
            )
        log_price = math.log(price)
        log_price -= float(rng.normal(0.0, sigma, size=int(steps)).sum())
        return {"prior_price": math.exp(log_price)}

    def generate_bundle(self, rng, params, n):
        price, steps, sigma = self._require(
            params, "current_price", "steps_back", "sigma"
        )
        if price <= 0 or sigma <= 0 or steps < 0:
            raise VGFunctionError(
                "need current_price > 0, sigma > 0, steps_back >= 0"
            )
        increments = rng.normal(0.0, sigma, size=(n, int(steps)))
        return {
            "prior_price": np.exp(
                math.log(price) - increments.sum(axis=1)
            )
        }


class StockOptionVG(VGFunction):
    """Value a European call option one period ahead by simulating GBM.

    This is the paper's "simulating a sequence of stock prices in order to
    return a sample of the value of a stock option one week from now".

    Parameters: ``price`` (spot), ``strike``, ``drift`` (per step),
    ``volatility`` (per step), ``steps``.
    """

    output_columns = ("option_value", "terminal_price")

    def generate(self, rng, params):
        price, strike, drift, vol, steps = self._require(
            params, "price", "strike", "drift", "volatility", "steps"
        )
        if price <= 0 or vol <= 0 or steps < 1:
            raise VGFunctionError("need price > 0, volatility > 0, steps >= 1")
        increments = rng.normal(
            drift - 0.5 * vol * vol, vol, size=int(steps)
        )
        terminal = price * math.exp(float(increments.sum()))
        return {
            "option_value": max(terminal - strike, 0.0),
            "terminal_price": terminal,
        }

    def generate_bundle(self, rng, params, n):
        price, strike, drift, vol, steps = self._require(
            params, "price", "strike", "drift", "volatility", "steps"
        )
        if price <= 0 or vol <= 0 or steps < 1:
            raise VGFunctionError("need price > 0, volatility > 0, steps >= 1")
        increments = rng.normal(
            drift - 0.5 * vol * vol, vol, size=(n, int(steps))
        )
        terminal = price * np.exp(increments.sum(axis=1))
        return {
            "option_value": np.maximum(terminal - strike, 0.0),
            "terminal_price": terminal,
        }


class BayesianDemandVG(VGFunction):
    """Customer demand at a price, blending a global model with history.

    The paper sketches fitting "a parametric global demand model based on
    data from all customers, and then computing a customized demand
    distribution for each customer using the customer's individual purchase
    history together with Bayes' Theorem".

    We use the conjugate normal model: global log-demand elasticity prior
    ``N(prior_mean, prior_sd^2)`` updated with ``history_n`` observations of
    mean ``history_mean`` and known observation noise ``noise_sd``.  Demand
    at price ``p`` is ``exp(base - beta * log p)`` with ``beta`` drawn from
    the posterior.

    Parameters: ``price``, ``base``, ``prior_mean``, ``prior_sd``,
    ``history_mean``, ``history_n``, ``noise_sd``.
    """

    output_columns = ("demand", "elasticity")

    def _posterior(self, params: Params) -> "tuple[float, float]":
        (
            prior_mean,
            prior_sd,
            history_mean,
            history_n,
            noise_sd,
        ) = self._require(
            params,
            "prior_mean",
            "prior_sd",
            "history_mean",
            "history_n",
            "noise_sd",
        )
        if prior_sd <= 0 or noise_sd <= 0 or history_n < 0:
            raise VGFunctionError(
                "need prior_sd > 0, noise_sd > 0, history_n >= 0"
            )
        prior_prec = 1.0 / prior_sd**2
        data_prec = history_n / noise_sd**2
        post_prec = prior_prec + data_prec
        post_mean = (
            prior_prec * prior_mean + data_prec * history_mean
        ) / post_prec
        return post_mean, math.sqrt(1.0 / post_prec)

    def generate(self, rng, params):
        price, base = self._require(params, "price", "base")
        if price <= 0:
            raise VGFunctionError(f"price must be positive, got {price}")
        post_mean, post_sd = self._posterior(params)
        beta = float(rng.normal(post_mean, post_sd))
        demand = math.exp(base - beta * math.log(price))
        return {"demand": demand, "elasticity": beta}

    def generate_bundle(self, rng, params, n):
        price, base = self._require(params, "price", "base")
        if price <= 0:
            raise VGFunctionError(f"price must be positive, got {price}")
        post_mean, post_sd = self._posterior(params)
        beta = rng.normal(post_mean, post_sd, size=n)
        demand = np.exp(base - beta * math.log(price))
        return {"demand": demand, "elasticity": beta}


class DistributionVG(VGFunction):
    """Adapt any :class:`repro.stats.distributions.Distribution` as a VG.

    Parameters are fixed at construction; useful for tests and custom
    models without writing a VG subclass.
    """

    output_columns = ("value",)

    def __init__(self, distribution: Distribution) -> None:
        self.distribution = distribution

    def generate(self, rng, params):
        return {"value": float(self.distribution.sample(rng))}

    def generate_bundle(self, rng, params, n):
        return {"value": np.asarray(self.distribution.sample(rng, size=n))}
