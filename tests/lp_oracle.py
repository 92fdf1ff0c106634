"""LP and region checks that only the tests use.

``scipy_linprog`` is the cold solve ``lp.linprog`` replaces, through
scipy's public API, and ``solve_lp_cold`` is ``solve_lp``'s answer built
from that solve.  ``hyperplanes_by_set`` is the pair
filter that ``lp._hyperplanes`` replaced with a boolean mask.  ``dual_certificate`` turns a solved
basis into the dual vector whose objective must match the primal one;
``contains`` is the one-region point-in-polyhedron test that the
package's batched point location replaced.
"""

import numpy as np
import scipy.optimize

from qpopf import lp as lp_mod
from qpopf.grid import ParametricLP
from qpopf.lp import LPSolution
from qpopf.regions import TOL_CONTAIN, CriticalRegion

SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def scipy_linprog(c, A, b):
    """The solve ``lp.linprog`` replaces, through scipy's public API."""
    return scipy.optimize.linprog(
        c, A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1],
        method="highs", options=lp_mod._HIGHS_OPTIONS,
    )


def solve_lp_cold(plp: ParametricLP, theta: np.ndarray) -> LPSolution:
    """``solve_lp``'s post-processing of scipy's cold solve at ``theta``."""
    b = plp.rhs(theta)
    ref = scipy_linprog(plp.c, plp.W, b)
    status = SCIPY_STATUS[ref.status]
    return lp_mod._solution(plp, b, status, ref.x if status == "optimal" else None)


def hyperplanes_by_set(plp: ParametricLP, active: list[int]) -> list[int]:
    """``lp._hyperplanes`` as a set comprehension over ``eq_pairs``."""
    rows = set(active)
    higher = {max(i, j) for i, j in plp.eq_pairs if i in rows and j in rows}
    return [i for i in active if i not in higher]


def solution_bytes(sol: LPSolution) -> tuple:
    """Every field of ``sol``, floats as bytes so that NaN equals NaN."""
    return (sol.x.tobytes(), np.float64(sol.objective).tobytes(), sol.status,
            sol.active_set, sol.basis, np.float64(sol.max_violation).tobytes())


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
