"""Dense LP solving with active-set extraction and L1 feasibility projection.

``linprog`` drives the HiGHS dual simplex (Huangfu & Hall 2018) through
the binding scipy bundles: the same model, options and checks as
``scipy.optimize.linprog(method="highs")``, so a cold solve gives the
same answer bit for bit, without that function's per-call option
validation and input conversion.  ``simplex_solve``, ``perturbed_basis``,
``project_feasible`` and ``solve_raw`` each load their LP into a fresh
model and solve it cold by ``linprog``; ``_Kept`` says what each LP
keeps.  ``feasible_dispatch`` scores a batch of reconstructed dispatches
and runs their projections on two pool threads where a second CPU is
free and BLAS runs one thread (``_workers``), else on the caller.  HiGHS
runs without the interpreter lock, and the threads share no HiGHS
object.  A cold solve's answer is fixed by the model and the options
alone, so the bytes do not depend on which thread ran it.
Every path checks its input and judges HiGHS's answer by one rule
(``_checked``, ``_answer``).  ``simplex_solve`` then post-processes the
answer: a residual scan identifies the active rows, a deterministic rank
selection picks the first n independent ones as a basis, and the
solution is re-solved from the basis's one LU factorization
(``_polished``, which ``project_feasible`` shares) so the returned
vertex is accurate to linear-solve precision rather than solver
tolerance; a LAPACK getrf factor and a getrs solve from it give
``np.linalg.solve``'s answer bit for bit.  The projection's rank
selection reads the block structure of its matrix
(``_projection_basis``).  An equality is written as two opposing rows
(``ParametricLP.eq_pairs``) and counts as one hyperplane
(``_hyperplanes``): the rank selection scans only the lower member of a
fully active pair, since the higher is its negation, and the vertex is
degenerate unless there are exactly n active hyperplanes.  The basis
then takes whichever member of a pair has a nonnegative dual.
``perturbed_basis`` recovers a basis where the vertex is degenerate.
Results are deterministic for identical inputs.

``solve_lp`` answers from a certified optimal basis before it runs
HiGHS.  A basis whose duals are feasible stays optimal at every theta
where its vertex is feasible, because the duals do not depend on theta
(Gal & Nedoma, Management Science 1972; Borrelli, Bemporad & Morari,
JOTA 2003).  So the LP keeps the basis of each "optimal" simplex answer
whose basic inequality rows all have a dual of at least ``_CERT_DUAL``
(``_keep_vertex``).  At a new theta each kept basis is re-solved from
its factor; the point answers only if it is feasible, no residual lies
near the active tolerance, and its active rows pick that basis again
(``_certified``).  Strict primal and dual nondegeneracy make that
optimum unique, so the answer is the one ``simplex_solve`` builds, bit
for bit, and carries its own optimality proof.  A degenerate answer
always comes from HiGHS.  A kept vertex's residual is affine in theta,
``R_v theta + r_v`` (``_Kept.screen``), so one stacked product gives
every vertex's worst residual at a sample, and only a vertex whose worst
is within ``_SCREEN_MARGIN`` of ``_CERT_FEAS`` is tried: the others
would fail the exact check.  A try's last test, whether its active rows
are exactly n hyperplanes that pick its basis, is decided once per
basis and active set (``_Kept.verdicts``).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from qpopf.grid import ParametricLP

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
# The margins of a certified answer (``_keep_vertex``, ``_certified``)
_CERT_FEAS = 1e-9
_CERT_BAND = 1e-6
_CERT_DUAL = 1e-6
# A vertex whose affine worst residual exceeds _CERT_FEAS by more than this is
# not tried; the affine and the exact residual differ by rounding alone
_SCREEN_MARGIN = 1e-7

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
# The binding sets up its numpy support on the first list it converts, and
# runs Python code while it does; a HiGHS call made from that code (by a
# signal handler) would wait for the set-up forever.  So it runs here.
_highs.HighsLp().col_cost_ = [0.0]

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


def _checked(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> None:
    """``linprog``'s input rule: A is (q, n) for a cost of n and a right-hand
    side of shape (q,), and the cost and right-hand side are finite."""
    n, q = c.size, b.size
    if A.shape != (q, n) or b.shape != (q,):
        raise ValueError(f"constraint matrix {A.shape} does not match c ({n}) and b {b.shape}")
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError("LP cost and right-hand side must be finite")


def _answer(highs: _highs._Highs, b: np.ndarray) -> tuple[str, np.ndarray | None]:
    """Run ``highs`` on the model it holds, whose row upper bounds are ``b``,
    and judge the answer as scipy does: (status, x), x None unless optimal.
    Any status other than optimal, infeasible or unbounded, and an optimum
    with a NaN or a slack below -``_SLACK_TOL``, raise ``LpNumericError``."""
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


def column_compressed(A: np.ndarray) -> tuple[list[int], list[int], list[float]]:
    """``A`` as column-compressed (indptr, index, value), laid out as
    ``scipy.sparse.csc_array(A)``: zeros dropped, rows ascending within
    each column.  Python lists, because HiGHS's binding copies a list
    several times faster than a numpy array.
    """
    if not np.isfinite(A).all():
        raise ValueError("constraint matrix must be finite")
    At = A.T
    cols, rows = np.nonzero(At)
    indptr = np.zeros(A.shape[1] + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(At, axis=1), out=indptr[1:])
    return indptr.tolist(), rows.tolist(), At[cols, rows].tolist()


def _loaded(
    c: np.ndarray, b: np.ndarray, csc: tuple[list[int], list[int], list[float]]
) -> _highs._Highs | None:
    """A HiGHS instance holding min c.x s.t. A x <= b over free x, with A
    given as ``column_compressed(A)``; None if HiGHS refuses the model."""
    n, q = c.size, b.size
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
    mat.start_, mat.index_, mat.value_ = csc
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    return None if highs.passModel(lp) == _highs.HighsStatus.kError else highs


def linprog(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    csc: tuple[list[int], list[int], list[float]] | None = None,
) -> tuple[str, np.ndarray | None]:
    """min c.x s.t. A x <= b over free x, solved cold: (status, x), x None
    unless optimal, judged by ``_answer``.

    ``csc`` is ``column_compressed(A)`` when the caller keeps it.
    """
    _checked(c, A, b)
    highs = _loaded(c, b, column_compressed(A) if csc is None else csc)
    if highs is None:
        return _NO_SOLUTION[_STATUS.kModelError], None
    return _answer(highs, b)


class _Kept:
    """What this module keeps of one parametric LP between calls.

    Each part is built on first use and goes with the LP:
    - ``W_csc``: W as HiGHS loads it; ``projection_matrix``: the rows
      [[W, 0], [I, -I], [-I, -I]] of the L1 projection LP over (x, u),
      read-only, and ``projection_csc``, that matrix as HiGHS loads it.
      The pool threads of ``feasible_dispatch`` share both;
    - ``eq_rows``: the lower and the higher row of each equality pair;
    - ``bases``: basis picks keyed by the scanned matrix ("W" or
      "projection") and the active rows.  A pick depends only on those
      rows and the LP, so the samples of one critical region scan their
      rows once.  The values are index tuples, so two compare with ``==``.
      Two projection threads may pick the same key at once; both store
      the same tuple;
    - ``factors``: getrf's (lu, piv) of each W basis ``simplex_solve``
      polishes from, or None when it is singular, so the samples of one
      region polish with two triangular solves.  A projection's basis is
      factored per call and not kept: its factor is 2n x 2n, a dispatch
      loop meets many, and kept they cost megabytes for a few percent of
      the projection time;
    - ``vertices``: the W bases of "optimal" simplex answers whose basic
      inequality rows all have a dual of at least ``_CERT_DUAL``, in the
      order found (``_keep_vertex``).  ``solve_lp`` tries those the
      screen passes in that order before it runs HiGHS (``_certified``);
    - ``screen``: the vertices it was built for, and each one's residual
      ``W x_v(theta) - b(theta) = R_v theta + r_v`` stacked, with
      ``R_v = W F_v - T`` and ``r_v = W f_v - S`` solved from the
      vertex's factor (``_screened``).  It is rebuilt whenever
      ``vertices`` has changed, however a vertex was added;
    - ``verdicts``: whether a try's active rows are exactly n hyperplanes
      whose basis pick is the vertex's basis, keyed by the basis and the
      active rows (``_certified``);
    - ``work``: counts of simplex solves, certificate tries, certified
      answers and ``perturbed_basis`` calls, and of whatever else a caller
      adds through ``work_counts``.

    No solve depends on which ran before it.  That holds for the vertex
    tries too: a vertex answers only with the ``LPSolution`` that
    ``simplex_solve`` gives at that theta, which depends on theta alone,
    so whichever vertex answers, and whichever were kept by then, the
    bytes are the same.  The LP's arrays are kept, never the
    ``ParametricLP``, so an LP and what it keeps are freed with its last
    reference, not by the cyclic garbage collector.
    """

    def __init__(self, plp: ParametricLP):
        self.W = plp.W
        pairs = np.array(plp.eq_pairs, dtype=np.intp).reshape(-1, 2)
        self.eq_rows = pairs.min(axis=1), pairs.max(axis=1)
        self.bases: dict[tuple[str, tuple[int, ...]], tuple[int, ...] | None] = {}
        self.factors: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray] | None] = {}
        self.vertices: list[tuple[int, ...]] = []
        self.screen: tuple[list[tuple[int, ...]], np.ndarray | None, np.ndarray | None] = (
            [], None, None)
        self.verdicts: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        self.work: Counter[str] = Counter()

    @cached_property
    def W_csc(self) -> tuple[list[int], list[int], list[float]]:
        return column_compressed(self.W)

    @cached_property
    def projection_matrix(self) -> np.ndarray:
        q, n = self.W.shape
        eye = np.eye(n)
        A = np.block([[self.W, np.zeros((q, n))], [eye, -eye], [-eye, -eye]])
        A.setflags(write=False)
        return A

    @cached_property
    def projection_csc(self) -> tuple[list[int], list[int], list[float]]:
        return column_compressed(self.projection_matrix)


def _kept(plp: ParametricLP) -> _Kept:
    """``plp.solver_state``, built on first use."""
    if plp.solver_state is None:
        plp.solver_state = _Kept(plp)
    return plp.solver_state


def work_counts(plp: ParametricLP) -> Counter[str]:
    """The work done on ``plp`` so far, by name, live: ``simplex_solves``,
    ``tries`` (kept vertices ``solve_lp`` tried), ``certified`` (answers
    read off a kept vertex) and ``perturbed_basis``.  Callers add their own LP work
    on ``plp`` under names of their own; a name never counted reads 0."""
    return _kept(plp).work


def _scan_active(resid: np.ndarray, tol: float) -> list[int]:
    """Rows whose residual ``A @ x - b`` is within ``tol`` of zero."""
    return np.flatnonzero(np.abs(resid) <= tol).tolist()


def _hyperplanes(plp: ParametricLP, active: list[int]) -> list[int]:
    """One active row per active hyperplane: ``active`` without the higher
    member of each fully active opposing pair (the negation of the lower)."""
    active = np.asarray(active, dtype=np.intp)
    lower, higher = _kept(plp).eq_rows
    # long enough for the rows of W and of the projection matrix
    rows = np.zeros(plp.q + 2 * plp.n, dtype=bool)
    rows[active] = True
    rows[higher[rows[lower] & rows[higher]]] = False
    return active[rows[active]].tolist()


def _independent(A: np.ndarray, rows: list[int], basis_vecs: np.ndarray, k: int) -> list[int]:
    """Gram-Schmidt scan: each row of A among ``rows``, in order, that is
    independent of the first k (orthonormal) rows of ``basis_vecs`` and of
    the rows picked before it, until ``basis_vecs`` is full.  Each pick
    appends its normalized residual to ``basis_vecs``."""
    picked: list[int] = []
    for i in rows:
        if k == len(basis_vecs):
            break
        v = A[i]
        r = v - basis_vecs[:k].T @ (basis_vecs[:k] @ v) if k else v
        # sqrt(x @ x) is how np.linalg.norm computes a real 2-norm
        nrm = math.sqrt(r @ r)
        if nrm > 1e-9 * max(1.0, math.sqrt(v @ v)):
            picked.append(i)
            basis_vecs[k] = r / nrm
            k += 1
    return picked


def _greedy_basis(A: np.ndarray, rows: list[int], n: int) -> list[int] | None:
    """First n linearly independent rows of ``rows`` (ascending order)."""
    picked = _independent(A, rows, np.empty((n, A.shape[1])), 0)
    return picked if len(picked) == n else None


def _projection_basis(plp: ParametricLP, rows: list[int]) -> list[int] | None:
    """``_greedy_basis(_kept(plp).projection_matrix, rows, 2 * plp.n)``, for
    ascending ``rows``, from that matrix's blocks [[W, 0], [I, -I], [-I, -I]]
    over (x, u).

    The W rows have no u part, so the scan picks among them what W's own
    n-space scan picks.  Row [e_i, -e_i] is the first with a u_i entry, so
    every active one is picked, and so is each active [-e_i, -e_i] whose
    partner is not.  With its partner picked, [-e_i, -e_i] is independent
    exactly when e_i is independent of the W rows picked and of e_j for
    every earlier coordinate j whose two rows were picked.  The picks are
    in ascending row order, as the scan makes them.
    """
    n, q = plp.n, plp.q
    rows = np.asarray(rows, dtype=np.intp)
    basis_vecs = np.empty((n, n))
    picked = _independent(plp.W, rows[rows < q].tolist(), basis_vecs, 0)
    active = np.zeros(2 * n, dtype=bool)
    active[rows[rows >= q] - q] = True
    plus, minus = active[:n], active[n:]
    both = np.flatnonzero(plus & minus).tolist()
    minus = minus & ~plus
    minus[_independent(np.eye(n), both, basis_vecs, len(picked))] = True
    picked += (q + np.flatnonzero(plus)).tolist() + (q + n + np.flatnonzero(minus)).tolist()
    return picked if len(picked) == 2 * n else None


def _fix_basis_signs(plp: ParametricLP, basis: list[int]) -> list[int]:
    """Swap equality-pair members so the basic dual is nonnegative.

    Returns the sorted corrected basis, or the basis unchanged if the
    basic system is singular.
    """
    try:
        y = np.linalg.solve(plp.W[basis].T, -plp.c)
    except np.linalg.LinAlgError:
        return basis
    partner = {i: j for pair in plp.eq_pairs for i, j in (pair, pair[::-1])}
    return sorted(
        partner[i] if i in partner and y[pos] < -1e-9 else i for pos, i in enumerate(basis)
    )


def _basis(plp: ParametricLP, matrix: str, active: list[int]) -> list[int] | None:
    """Basis of the active rows of ``matrix``, picked once per LP and active
    set (``_Kept.bases``): the greedy pick of W with its signs fixed ("W"),
    or the greedy pick of the projection matrix (``_projection_basis``,
    "projection")."""
    key, bases = (matrix, tuple(active)), _kept(plp).bases
    if key not in bases:
        # the leading rows of the projection matrix are W, so W's pairs carry over
        rows = _hyperplanes(plp, active)
        if matrix == "W":
            basis = _greedy_basis(plp.W, rows, plp.n)
            if basis is not None:
                basis = _fix_basis_signs(plp, basis)
        else:
            basis = _projection_basis(plp, rows)
        bases[key] = None if basis is None else tuple(basis)
    basis = bases[key]
    return None if basis is None else list(basis)


def _factored(A: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """LAPACK's LU factorization of the square ``A``, getrf's (lu, piv), or
    None when getrf meets an exactly zero pivot.  ``np.linalg.solve`` is
    getrf then getrs and raises ``LinAlgError`` in exactly that case, so a
    getrs from this factor gives its answer bit for bit."""
    lu, piv, info = dgetrf(A)
    return None if info > 0 else (lu, piv)


def _w_factor(plp: ParametricLP, basis: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """``_factored(plp.W[basis])``, factored once per LP and basis
    (``_Kept.factors``)."""
    key, factors = tuple(basis), _kept(plp).factors
    if key not in factors:
        factors[key] = _factored(plp.W[basis])
    return factors[key]


def _polished(
    A: np.ndarray, b: np.ndarray, x: np.ndarray, resid: np.ndarray, basis: list[int],
    factor: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``x`` re-solved from the basis rows of A x <= b if that point's worst
    violation is at most max(1e-9, that of ``x``); otherwise ``x`` itself.
    Returned with its residual A x - b; ``resid`` is that of ``x``.
    ``factor`` is ``_factored(A[basis])``; when it is None (a singular
    basis), ``x`` is returned."""
    if factor is None:
        return x, resid
    x_basis, _ = dgetrs(*factor, b[basis])
    resid_basis = A @ x_basis - b
    before = float(np.max(resid, initial=0.0))
    after = float(np.max(resid_basis, initial=0.0))
    return (x_basis, resid_basis) if after <= max(1e-9, before) else (x, resid)


def _solution(plp: ParametricLP, b: np.ndarray, status: str, x: np.ndarray | None) -> LPSolution:
    """The ``LPSolution`` of a ``linprog`` answer to min c.x s.t. W x <= b."""
    if x is None:
        return LPSolution(x=np.full(plp.n, np.nan), objective=float("nan"), status=status)

    resid = plp.W @ x - b
    active = _scan_active(resid, TOL_ACTIVE)
    basis = _basis(plp, "W", active)
    if basis is not None:
        x, resid = _polished(plp.W, b, x, resid, basis, _w_factor(plp, basis))
        active = _scan_active(resid, TOL_ACTIVE)

    unique = basis is not None and len(_hyperplanes(plp, active)) == plp.n
    return LPSolution(
        x=x,
        objective=float(plp.c @ x),
        status="optimal" if unique else "degenerate",
        active_set=active,
        basis=basis,
        max_violation=float(np.max(resid, initial=0.0)),
    )


def _keep_vertex(plp: ParametricLP, basis: list[int]) -> None:
    """Keep ``basis``, that of an "optimal" simplex answer, as a vertex
    (``_Kept.vertices``) when it is factored and every basic inequality
    row's dual ``y = -W_B^-T c`` is at least ``_CERT_DUAL``: dual feasible
    with a margin for every theta, since y does not depend on theta."""
    kept, key = _kept(plp), tuple(basis)
    factor = kept.factors[key]
    if factor is None or key in kept.vertices:
        return
    y, _ = dgetrs(*factor, -plp.c, trans=1)
    inequality = ~np.isin(basis, kept.eq_rows)
    if np.all(y[inequality] >= _CERT_DUAL):
        kept.vertices.append(key)


def _certified(plp: ParametricLP, b: np.ndarray, basis: tuple[int, ...]) -> LPSolution | None:
    """The answer ``simplex_solve`` gives at right-hand side ``b``, read off
    the kept vertex ``basis`` when its point proves it optimal; else None.

    The point is ``_polished``'s re-solve from the basis's kept factor.  It
    answers when it is feasible within ``_CERT_FEAS`` (so the polish would
    take it whatever HiGHS returned), no row's residual is in
    (``_CERT_FEAS``, ``_CERT_BAND``] (so HiGHS's point, accurate to about
    1e-10, scans the same active rows), those rows are exactly n
    hyperplanes, and their basis pick is ``basis``.  With the basis's dual
    margin that makes the optimum unique, and the answer is the simplex
    path's ``LPSolution`` field for field.
    """
    kept, rows = _kept(plp), list(basis)
    x, _ = dgetrs(*kept.factors[basis], b[rows])
    resid = plp.W @ x - b
    worst = float(np.max(resid, initial=0.0))
    slack = np.abs(resid)
    if worst > _CERT_FEAS or np.any((slack > _CERT_FEAS) & (slack <= _CERT_BAND)):
        return None
    active = _scan_active(resid, TOL_ACTIVE)
    key = (basis, tuple(active))
    if key not in kept.verdicts:
        kept.verdicts[key] = (len(_hyperplanes(plp, active)) == plp.n
                              and _basis(plp, "W", active) == rows)
    if not kept.verdicts[key]:
        return None
    return LPSolution(x=x, objective=float(plp.c @ x), status="optimal", active_set=active,
                      basis=rows, max_violation=worst)


def _screened(plp: ParametricLP, theta: np.ndarray) -> np.ndarray:
    """Each kept vertex's worst residual ``max(R_v theta + r_v)`` at
    ``theta``, in the order kept, from one product with the stacked maps
    (``_Kept.screen``); there is at least one kept vertex."""
    kept = _kept(plp)
    if kept.screen[0] != kept.vertices:
        maps = []
        for basis in kept.vertices:
            rows = list(basis)
            # x_v(theta) = f_v + F_v theta, both solved from the kept factor at once
            fF, _ = dgetrs(*kept.factors[basis], np.column_stack([plp.S[rows], plp.T[rows]]))
            maps.append((plp.W @ fF[:, 1:] - plp.T, plp.W @ fF[:, 0] - plp.S))
        R, r = zip(*maps)
        kept.screen = (list(kept.vertices), np.concatenate(R), np.concatenate(r))
    vertices, R, r = kept.screen
    return (R @ theta + r).reshape(len(vertices), plp.q).max(axis=1)


def solve_lp(plp: ParametricLP, theta: np.ndarray) -> LPSolution:
    """Minimize c.x over {W x <= S + T theta} and extract the active set.

    The kept vertices (``_Kept.vertices``) are tried first, in the order
    kept, each whose affine worst residual (``_screened``) is at most
    ``_CERT_FEAS + _SCREEN_MARGIN``; the first that proves its point
    optimal (``_certified``) answers without a solve.  Otherwise, and for
    every degenerate, infeasible or unbounded answer, ``simplex_solve``
    runs.  Either way the answer is ``simplex_solve``'s bit for bit.  A
    bad theta raises before any try.
    """
    b = plp.rhs(theta)
    _checked(plp.c, plp.W, b)
    kept = _kept(plp)
    if kept.vertices:
        screened = _screened(plp, np.asarray(theta, dtype=float))
        for basis, worst in zip(kept.vertices, screened.tolist()):
            if worst > _CERT_FEAS + _SCREEN_MARGIN:
                continue
            kept.work["tries"] += 1
            sol = _certified(plp, b, basis)
            if sol is not None:
                kept.work["certified"] += 1
                return sol
    return simplex_solve(plp, theta)


def simplex_solve(plp: ParametricLP, theta: np.ndarray) -> LPSolution:
    """``solve_lp`` by one cold ``linprog``.  The basis of an "optimal"
    answer is kept as a vertex when its duals allow (``_keep_vertex``)."""
    b = plp.rhs(theta)
    _kept(plp).work["simplex_solves"] += 1
    sol = _solution(plp, b, *linprog(plp.c, plp.W, b, csc=_kept(plp).W_csc))
    if sol.status == "optimal":
        _keep_vertex(plp, sol.basis)
    return sol


def perturbed_basis(plp: ParametricLP, theta: np.ndarray) -> list[int] | None:
    """Basis recovery for degenerate solves.

    A lexicographic right-hand-side perturbation (1e-9 * row index) breaks
    ties so a unique vertex basis exists; the basis is returned for use
    with the *unperturbed* data.  Escalates the perturbation a hundredfold
    once if it is too small to separate ties at solver precision.
    """
    theta = np.asarray(theta, dtype=float)
    _kept(plp).work["perturbed_basis"] += 1
    for scale in (1e-9, 1e-9 * 100.0):
        b = plp.rhs(theta) + scale * np.arange(1, plp.q + 1)
        _, x = linprog(plp.c, plp.W, b, csc=_kept(plp).W_csc)
        if x is None:
            return None
        active = _scan_active(plp.W @ x - b, max(scale / 3.0, 1e-10))
        basis = _basis(plp, "W", active)
        if basis is not None and len(_hyperplanes(plp, active)) == plp.n:
            return basis
    return basis


def solve_raw(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> tuple[str, np.ndarray | None]:
    """One-shot dense LP (no parametric structure), same backend."""
    return linprog(
        np.asarray(c, dtype=float), np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    )


FEASIBILITY_THRESHOLD = 1e-4


def feasible_dispatch(
    xs: np.ndarray, plp: ParametricLP, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed dispatches as they are scored, and which were projected.

    Row j of ``xs`` (N, n) is kept unless it violates a constraint at row
    j of ``thetas`` (N, m) by more than ``FEASIBILITY_THRESHOLD``; then it
    is replaced by its L1 projection (:func:`project_feasible`).  Returns
    the (N, n) dispatches and an (N,) boolean mask, in input order;
    dispatches of another shape, or N of them with another number of
    thetas, raise ``ValueError``.  The projections run on a pool of
    ``_workers() + 1`` threads, never more than there are projections, or
    on the caller where that is one.  Each is a cold solve, so the bytes
    are those of a serial loop, and so is the exception: the first
    failure in input order raises, and those not yet started by then are
    cancelled.
    """
    xs = np.array(xs, dtype=float)
    if xs.shape == (0,):  # an empty list
        xs = xs.reshape(0, plp.n)
    if xs.ndim != 2 or xs.shape[1] != plp.n:
        raise ValueError(f"dispatches of shape {xs.shape}, expected (N, {plp.n})")
    thetas = np.asarray(thetas, dtype=float)
    if len(xs) != len(thetas):
        raise ValueError(f"{len(xs)} dispatches but {len(thetas)} thetas")
    rhs = {}  # the right-hand side of each row to project, kept for its projection
    for i, (x, theta) in enumerate(zip(xs, thetas)):
        b = plp.rhs(theta)
        if float(np.max(plp.W @ x - b, initial=0.0)) > FEASIBILITY_THRESHOLD:
            rhs[i] = b
    pending = list(rhs)
    projected = np.zeros(len(xs), dtype=bool)
    projected[pending] = True

    # a violation above FEASIBILITY_THRESHOLD is above TOL_FEAS: each row projects
    def project(i: int) -> np.ndarray:
        return _l1_projection(xs[i], plp, thetas[i], rhs[i])

    threads = min(_workers() + 1, len(pending))
    if threads > 1:
        # built before the threads start, so no two of them build one at once
        _kept(plp).projection_csc  # reads projection_matrix
        with ThreadPoolExecutor(threads) as pool:
            xs[pending] = list(pool.map(project, pending))
    else:
        for i in pending:
            xs[i] = project(i)
    return xs, projected


# Pool threads beyond the first, as measured: on 2 CPUs, with BLAS on one
# thread, a second thread took a 500-scenario sweep from 1.14 to 0.69 s
# (medians of 10 on a shared host).
# Each pool thread takes a malloc arena, and HiGHS is most of a
# projection's 2.6 ms, so more threads were not tried.
_MAX_WORKERS = 1
# What OpenBLAS reads for its thread count: the first set to a positive number.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _workers() -> int:
    """Pool threads a projection batch may run beyond the first: one if
    this process may run on a second CPU and BLAS runs one thread, else
    none.

    BLAS threads (OpenBLAS starts one per CPU by default) compete with the
    pool for the same CPUs: on 2 CPUs, unpinned, that 500-scenario sweep
    took 2.0 s on two threads against 1.25 s on one.  The BLAS thread count
    is read as OpenBLAS reads it, from the environment (``_blas_threads``).
    """
    if _blas_threads() != 1:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has an affinity mask
        cpus = os.cpu_count() or 1
    return min(cpus - 1, _MAX_WORKERS)


def _blas_threads() -> int | None:
    """OpenBLAS's thread count as set in the environment, or None where no
    variable sets it (then OpenBLAS starts one thread per CPU)."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def project_feasible(x_tilde: np.ndarray, plp: ParametricLP, theta: np.ndarray) -> np.ndarray:
    """L1-closest feasible point to ``x_tilde`` at parameter ``theta``.

    Solved as an auxiliary LP over (x, u) with u >= |x - x_tilde|, by one
    cold ``linprog``; inputs feasible within ``TOL_FEAS`` are returned unchanged.
    """
    x_tilde = np.asarray(x_tilde, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b = plp.rhs(theta)
    if float(np.max(plp.W @ x_tilde - b, initial=0.0)) <= TOL_FEAS:
        return x_tilde.copy()
    return _l1_projection(x_tilde, plp, theta, b)


def _l1_projection(x_tilde: np.ndarray, plp: ParametricLP, theta: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """``project_feasible``'s LP for an ``x_tilde`` that violates a row of
    W x <= b by more than ``TOL_FEAS``, where b is ``plp.rhs(theta)``."""
    kept = _kept(plp)
    A_aux = kept.projection_matrix
    b_aux = np.concatenate([b, x_tilde, -x_tilde])
    c_aux = np.concatenate([np.zeros(plp.n), np.ones(plp.n)])
    status, z = linprog(c_aux, A_aux, b_aux, csc=kept.projection_csc)
    if status != "optimal":
        raise ProjectionError(f"projection LP is {status} at theta={theta}")
    resid = A_aux @ z - b_aux
    basis = _basis(plp, "projection", _scan_active(resid, TOL_ACTIVE))
    if basis is not None:
        z, _ = _polished(A_aux, b_aux, z, resid, basis, _factored(A_aux[basis]))
    x = z[:plp.n]
    viol = float(np.max(plp.W @ x - b, initial=0.0))
    if viol > TOL_FEAS:
        raise LpNumericError(f"projection violates constraints by {viol:.3e}")
    return x
