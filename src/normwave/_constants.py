"""Names that the 1D solver (bvp) and the explicit boundary layers
(boundary_layer) share, kept apart so that neither module imports the other.
"""

import math

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# |Theta| ~ THETA_RATE_CONSTANT s e^{-2s}, s = d/eps, at p = 1 + 4/N on an
# interval of half-width d, and mass - 2 sigma0 ~ -2 Theta (boundary_layer)
THETA_RATE_CONSTANT = 4.0 * math.sqrt(3.0)
