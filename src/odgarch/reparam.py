"""Bijection between the feasible parameter region and unconstrained coordinates.

Positivity is handled by log/exp coordinates; the NM mixture weights by a
softmax with the first logit pinned to zero. Each model class holds its own
encode, decode and chain rule. The stationarity constraint is not encoded
here — it is enforced by the augmented-Lagrangian outer loop.
"""

import numpy as np


class FeasibleMap:
    """encode: ModelParams -> R^k, decode: inverse, both smooth; for params' model and d."""

    def __init__(self, params):
        self.model = type(params)
        self.d = params.d

    def encode(self, params):
        return params.encode()

    def decode(self, z):
        # the clip to +-700 keeps exp finite; z never reaches it on feasible paths
        z = np.minimum(np.maximum(np.asarray(z, dtype=float), -700.0), 700.0)
        return self.model.decode(z, self.d)

    def chain_rule(self, grad_theta, params):
        """Map a gradient in natural parameters to unconstrained coordinates."""
        return params.chain_rule(grad_theta)
