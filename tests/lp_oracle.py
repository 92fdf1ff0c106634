"""LP and region checks that only the tests use.

``dual_certificate`` turns a solved basis into the dual vector whose
objective must match the primal one; ``contains`` is the one-region
point-in-polyhedron test that the package's batched point location
replaced.
"""

import numpy as np

from qpopf.grid import ParametricLP
from qpopf.lp import LPSolution
from qpopf.regions import TOL_CONTAIN, CriticalRegion


def dual_certificate(plp: ParametricLP, solution: LPSolution) -> np.ndarray:
    """Dual vector y >= 0 with W'y = -c supported on the basis rows.

    For a nondegenerate optimum, -rhs.y equals the primal objective.
    """
    if solution.basis is None:
        raise ValueError("solution has no basis to build a certificate from")
    y = np.zeros(plp.q)
    y_b = np.linalg.solve(plp.W[solution.basis].T, -plp.c)
    y[solution.basis] = y_b
    return y


def contains(region: CriticalRegion, theta: np.ndarray, tol: float = TOL_CONTAIN) -> bool:
    """Whether theta satisfies every row of the region's polyhedron within tol."""
    theta = np.asarray(theta, dtype=float)
    return bool(np.all(region.poly_A @ theta <= region.poly_b + tol))
