"""Bijection between the feasible parameter region and unconstrained coordinates.

Positivity is handled by log/exp coordinates; the NM mixture weights by a
softmax with the first logit pinned to zero. Each model class holds its own
encode, decode and chain rule. The stationarity constraint is not encoded
here — it is enforced by the augmented-Lagrangian outer loop.
"""

import numpy as np


class FeasibleMap:
    """encode: ModelParams -> R^k, decode: inverse, both smooth; model is the class."""

    def __init__(self, model, d=1):
        self.model = model
        self.d = d

    def encode(self, params):
        return params.encode()

    def decode(self, z):
        # the clip to +-700 keeps exp finite; z never reaches it on feasible paths
        z = np.minimum(np.maximum(np.asarray(z, dtype=float), -700.0), 700.0)
        return self.model.decode(z, self.d)

    def chain_rule(self, grad_theta, params):
        """Map a gradient in natural parameters to unconstrained coordinates."""
        return params.chain_rule(grad_theta)


def feasible_map_for(params):
    return FeasibleMap(type(params), d=params.d)
