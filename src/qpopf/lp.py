"""Dense LP solving with active-set extraction and L1 feasibility projection.

``linprog`` drives the HiGHS dual simplex (Huangfu & Hall 2018) through
the binding scipy bundles: the same model, options and checks as
``scipy.optimize.linprog(method="highs")``, so the same answer bit for
bit, without that function's per-call option validation and input
conversion.  The constraint matrix of a parametric LP, and that of its
L1 projection LP, are converted once (``ParametricLP.W_csc``,
``ParametricLP.projection_csc``).  ``solve_lp`` post-processes the answer: a
residual scan identifies the active rows, a deterministic rank selection
picks an n-row basis (treating each opposing equality pair as one
hyperplane), and the solution is re-solved from that basis so the
returned vertex is accurate to linear-solve precision rather than solver
tolerance.  ``perturbed_basis`` recovers a basis where the vertex is
degenerate.  Results are deterministic for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qpopf.grid import ParametricLP, column_compressed

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    import scipy

    raise ImportError(
        "qpopf.lp needs scipy.optimize._highspy._core, the HiGHS binding "
        f"bundled with scipy >= 1.15; the installed scipy is {scipy.__version__}"
    ) from exc

TOL_FEAS = 1e-8
TOL_ACTIVE = 1e-7

# In scipy's linprog naming; the tests solve with them through scipy as an oracle.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "maxiter": 200_000,
}

# What linprog(method="highs", options=_HIGHS_OPTIONS) sets, built once.
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.primal_feasibility_tolerance = _HIGHS_OPTIONS["primal_feasibility_tolerance"]
_OPTIONS.dual_feasibility_tolerance = _HIGHS_OPTIONS["dual_feasibility_tolerance"]
_OPTIONS.simplex_iteration_limit = _HIGHS_OPTIONS["maxiter"]
_OPTIONS.ipm_iteration_limit = _HIGHS_OPTIONS["maxiter"]
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.highs_debug_level = int(_highs.HighsDebugLevel.kHighsDebugLevelNone)

_STATUS = _highs.HighsModelStatus
# scipy reports a model HiGHS refuses to load as infeasible
_NO_SOLUTION = {
    _STATUS.kInfeasible: "infeasible",
    _STATUS.kModelError: "infeasible",
    _STATUS.kUnbounded: "unbounded",
}
# scipy's _check_result: an "optimal" slack below this is a numerical failure
_SLACK_TOL = math.sqrt(1e-9) * 10


class LpNumericError(RuntimeError):
    """Solver gave no optimal, infeasible or unbounded verdict (e.g. it ran
    out of pivots), or its optimum failed the result check."""


class ProjectionError(RuntimeError):
    """Feasible set empty at the given parameter."""


@dataclass
class LPSolution:
    """Solver output.

    ``active_set`` lists every row whose residual is within ``TOL_ACTIVE``
    (both members of a binding equality pair appear).  ``basis`` is the
    deterministic n-row subset used for polishing and for the parametric
    affine map; it is None when the solve did not produce one.  Status
    ``degenerate`` means optimal but with a non-unique basis (more active
    hyperplanes than variables, or fewer than n).
    """

    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded | degenerate
    active_set: list[int] = field(default_factory=list)
    basis: list[int] | None = None
    max_violation: float = float("nan")

    @property
    def is_optimal(self) -> bool:
        return self.status in ("optimal", "degenerate")

    @property
    def degenerate(self) -> bool:
        return self.status == "degenerate"

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist() if self.x is not None else None,
            "objective": self.objective,
            "status": self.status,
            "active_set": list(self.active_set),
            "basis": list(self.basis) if self.basis is not None else None,
            "max_violation": self.max_violation,
        }


def linprog(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    csc: tuple[list[int], list[int], list[float]] | None = None,
) -> tuple[str, np.ndarray | None]:
    """min c.x s.t. A x <= b over free x: (status, x), x None unless optimal.

    ``csc`` is ``column_compressed(A)`` when the caller keeps it.  Any
    status other than optimal, infeasible or unbounded, and an optimum
    with a NaN or a slack below -``_SLACK_TOL``, raise ``LpNumericError``.
    """
    n, q = c.size, b.size
    if A.shape != (q, n):
        raise ValueError(f"constraint matrix {A.shape} does not match c ({n}) and b ({q})")
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError("LP cost and right-hand side must be finite")
    start, index, value = column_compressed(A) if csc is None else csc
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, q
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [-_highs.kHighsInf] * n
    lp.col_upper_ = [_highs.kHighsInf] * n
    lp.row_lower_ = [-_highs.kHighsInf] * q
    lp.row_upper_ = b.tolist()
    mat = lp.a_matrix_
    mat.format_ = _highs.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = n, q
    mat.start_, mat.index_, mat.value_ = start, index, value

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status, solved = _STATUS.kModelError, False
    else:
        solved = highs.run() != _highs.HighsStatus.kError
        status = highs.getModelStatus()
    if status == _STATUS.kOptimal and solved:
        sol = highs.getSolution()
        x = np.array(sol.col_value)
        slack = b - np.array(sol.row_value)
        if np.isnan(x).any() or np.isnan(slack).any() or math.isnan(highs.getObjectiveValue()):
            raise LpNumericError("LP solver returned NaN at an optimum")
        if (slack < -_SLACK_TOL).any():
            raise LpNumericError(f"LP optimum violates a row by {-slack.min():.3e}")
        return "optimal", x
    if status in _NO_SOLUTION:
        return _NO_SOLUTION[status], None
    raise LpNumericError(f"LP solver failed: {highs.modelStatusToString(status)}")


def _scan_active(A: np.ndarray, b: np.ndarray, x: np.ndarray, tol: float) -> list[int]:
    resid = A @ x - b
    return [int(i) for i in np.flatnonzero(np.abs(resid) <= tol)]


def _effective_count(active: list[int], mirror: dict[int, int]) -> int:
    """Active-hyperplane count: a fully-active opposing pair counts once."""
    active_set = set(active)
    count = 0
    for i in active:
        j = mirror.get(i)
        if j is not None and j in active_set and j < i:
            continue  # counted at the lower-indexed member
        count += 1
    return count


def _greedy_basis(
    A: np.ndarray, rows: list[int], n: int, mirror: dict[int, int]
) -> list[int] | None:
    """First n linearly independent rows of ``rows`` (ascending order).

    The higher member of an active opposing pair is exactly minus the
    lower one, which the scan has already picked or rejected, so it is
    skipped without a projection.
    """
    active = set(rows)
    picked: list[int] = []
    basis_vecs = np.empty((n, A.shape[1]))
    for i in rows:
        j = mirror.get(i)
        if j is not None and j < i and j in active:
            continue
        v = A[i]
        k = len(picked)
        r = v - basis_vecs[:k].T @ (basis_vecs[:k] @ v) if k else v
        # sqrt(x @ x) is how np.linalg.norm computes a real 2-norm
        nrm = math.sqrt(r @ r)
        if nrm > 1e-9 * max(1.0, math.sqrt(v @ v)):
            picked.append(i)
            basis_vecs[k] = r / nrm
            if len(picked) == n:
                return picked
    return None


def _fix_basis_signs(
    plp: ParametricLP, basis: list[int], mirror: dict[int, int]
) -> tuple[list[int], np.ndarray | None]:
    """Swap equality-pair members so the basic dual is nonnegative.

    Returns the (sorted) corrected basis and its dual values, or the
    original basis with None if the basic system is singular.
    """
    W_B = plp.W[basis]
    try:
        y = np.linalg.solve(W_B.T, -plp.c)
    except np.linalg.LinAlgError:
        return basis, None
    out = list(basis)
    for pos, i in enumerate(out):
        j = mirror.get(i)
        if j is not None and y[pos] < -1e-9:
            out[pos] = j
            y[pos] = -y[pos]
    order = np.argsort(out)
    return [out[k] for k in order], y[order]


def solve_lp(
    plp: ParametricLP,
    theta: np.ndarray,
    tol_active: float = TOL_ACTIVE,
    tol_feas: float = TOL_FEAS,
) -> LPSolution:
    """Minimize c.x over {W x <= S + T theta} and extract the active set."""
    theta = np.asarray(theta, dtype=float)
    b = plp.rhs(theta)
    status, x = linprog(plp.c, plp.W, b, csc=plp.W_csc)
    if x is None:
        return LPSolution(x=np.full(plp.n, np.nan), objective=float("nan"), status=status)

    mirror = plp.mirror_row()
    active = _scan_active(plp.W, b, x, tol_active)
    basis = _greedy_basis(plp.W, active, plp.n, mirror)
    if basis is not None:
        basis, _ = _fix_basis_signs(plp, basis, mirror)
        x_polished = _polish(plp, b, basis)
        if x_polished is not None:
            raw_viol = float(np.max(plp.W @ x - b, initial=0.0))
            new_viol = float(np.max(plp.W @ x_polished - b, initial=0.0))
            if new_viol <= max(1e-9, raw_viol):
                x = x_polished
        active = _scan_active(plp.W, b, x, tol_active)

    eff = _effective_count(active, mirror)
    status = "optimal" if eff == plp.n and basis is not None else "degenerate"
    return LPSolution(
        x=x,
        objective=float(plp.c @ x),
        status=status,
        active_set=active,
        basis=basis,
        max_violation=float(np.max(plp.W @ x - b, initial=0.0)),
    )


def _polish(plp: ParametricLP, b: np.ndarray, basis: list[int]) -> np.ndarray | None:
    try:
        return np.linalg.solve(plp.W[basis], b[basis])
    except np.linalg.LinAlgError:
        return None


def perturbed_basis(
    plp: ParametricLP, theta: np.ndarray, eps: float = 1e-9
) -> list[int] | None:
    """Basis recovery for degenerate solves.

    A lexicographic right-hand-side perturbation (eps * row index) breaks
    ties so a unique vertex basis exists; the basis is returned for use
    with the *unperturbed* data.  Escalates eps once if the perturbation
    is too small to separate ties at solver precision.
    """
    theta = np.asarray(theta, dtype=float)
    mirror = plp.mirror_row()
    for scale in (eps, eps * 100.0):
        b = plp.rhs(theta) + scale * np.arange(1, plp.q + 1)
        status, x = linprog(plp.c, plp.W, b, csc=plp.W_csc)
        if x is None:
            return None
        tol = max(scale / 3.0, 1e-10)
        active = _scan_active(plp.W, b, x, tol)
        basis = _greedy_basis(plp.W, active, plp.n, mirror)
        if basis is None:
            continue
        basis, _ = _fix_basis_signs(plp, basis, mirror)
        if _effective_count(active, mirror) == plp.n:
            return basis
    return basis


def active_set(
    solution: LPSolution,
    plp: ParametricLP,
    theta: np.ndarray,
    tol_active: float = TOL_ACTIVE,
) -> list[int]:
    """Rows with |W_i x - S_i - T_i theta| <= tol_active, ascending."""
    if not solution.is_optimal:
        raise ValueError(f"active_set requires an optimal solution, got {solution.status}")
    b = plp.rhs(np.asarray(theta, dtype=float))
    return _scan_active(plp.W, b, solution.x, tol_active)


def dual_certificate(plp: ParametricLP, solution: LPSolution, theta: np.ndarray) -> np.ndarray:
    """Dual vector y >= 0 with W'y = -c supported on the basis rows.

    For a nondegenerate optimum, -rhs.y equals the primal objective.
    """
    if solution.basis is None:
        raise ValueError("solution has no basis to build a certificate from")
    y = np.zeros(plp.q)
    y_b = np.linalg.solve(plp.W[solution.basis].T, -plp.c)
    y[solution.basis] = y_b
    return y


def solve_raw(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray | None]:
    """One-shot dense LP (no parametric structure), same backend."""
    return linprog(
        np.asarray(c, dtype=float), np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    )


def project_feasible(
    x_tilde: np.ndarray,
    plp: ParametricLP,
    theta: np.ndarray,
    tol_feas: float = TOL_FEAS,
) -> np.ndarray:
    """L1-closest feasible point to ``x_tilde`` at parameter ``theta``.

    Solved as an auxiliary LP over (x, u) with u >= |x - x_tilde|;
    already-feasible inputs are returned unchanged.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b = plp.rhs(theta)
    if float(np.max(plp.W @ x_tilde - b, initial=0.0)) <= tol_feas:
        return x_tilde.copy()

    n = plp.n
    A_aux = plp.projection_matrix
    b_aux = np.concatenate([b, x_tilde, -x_tilde])
    c_aux = np.concatenate([np.zeros(n), np.ones(n)])
    status, z = linprog(c_aux, A_aux, b_aux, csc=plp.projection_csc)
    if status != "optimal":
        raise ProjectionError(f"projection LP is {status} at theta={theta}")
    # Polish from the aux basis for a precise vertex.  The leading q rows
    # of A_aux are W, so W's opposing pairs carry over.
    active = _scan_active(A_aux, b_aux, z, TOL_ACTIVE)
    basis = _greedy_basis(A_aux, active, 2 * n, plp.mirror_row())
    if basis is not None:
        try:
            z_p = np.linalg.solve(A_aux[basis], b_aux[basis])
            if float(np.max(A_aux @ z_p - b_aux, initial=0.0)) <= max(
                1e-9, float(np.max(A_aux @ z - b_aux, initial=0.0))
            ):
                z = z_p
        except np.linalg.LinAlgError:
            pass
    x = z[:n]
    viol = float(np.max(plp.W @ x - b, initial=0.0))
    if viol > tol_feas:
        raise LpNumericError(f"projection violates constraints by {viol:.3e}")
    return x
