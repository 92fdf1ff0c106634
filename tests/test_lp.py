import itertools
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core as highs_core

from qpopf import lp as lp_mod
from qpopf.data import case_path
from qpopf.grid import ParametricLP, column_compressed, linearize, load_case
from qpopf.lp import (
    active_set,
    dual_certificate,
    perturbed_basis,
    project_feasible,
    solve_lp,
)
from qpopf.regions import chebyshev_center, enumerate_regions


def brute_force_lp(c, A, b):
    """Vertex enumeration oracle: try every n-row subset of tight rows."""
    c, A, b = np.asarray(c, float), np.asarray(A, float), np.asarray(b, float)
    q, n = A.shape
    best = None
    for rows in itertools.combinations(range(q), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.max(A @ x - b) <= 1e-8:
            val = float(c @ x)
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
    return best


def random_bounded_lp(rng, n=3, extra_rows=8):
    A = np.vstack([rng.normal(size=(extra_rows, n)), np.eye(n), -np.eye(n)])
    b = np.concatenate([rng.uniform(0.5, 2.0, size=extra_rows), np.full(2 * n, 2.0)])
    c = rng.normal(size=n)
    return c, A, b


def as_plp(c, A, b):
    A = np.asarray(A, float)
    q = A.shape[0]
    return ParametricLP(
        c=np.asarray(c, float),
        W=np.asarray(A, float),
        S=np.asarray(b, float),
        T=np.zeros((q, 1)),
        theta_box=np.array([[-1.0, 1.0]]),
    )


def test_toy_positive_theta(toy_plp):
    sol = solve_lp(toy_plp, np.array([0.5]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.active_set == [0]


def test_toy_negative_theta(toy_plp):
    sol = solve_lp(toy_plp, np.array([-0.5]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.active_set == [1]


def test_toy_boundary_is_degenerate(toy_plp):
    sol = solve_lp(toy_plp, np.array([0.0]))
    assert sol.degenerate
    assert sol.active_set == [0, 1]


def test_infeasible_and_unbounded_statuses():
    # x <= 0 and -x <= -1 cannot hold together
    plp = as_plp([1.0], [[1.0], [-1.0]], [0.0, -1.0])
    assert solve_lp(plp, np.zeros(1)).status == "infeasible"
    # min x with only x <= 1
    plp = as_plp([1.0], [[1.0]], [1.0])
    assert solve_lp(plp, np.zeros(1)).status == "unbounded"


def test_active_set_matches_residual_scan():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c, A, b = random_bounded_lp(rng, n=3, extra_rows=5)
        plp = as_plp(c, A, b)
        sol = solve_lp(plp, np.zeros(1))
        assert sol.status in ("optimal", "degenerate")
        resid = np.abs(A @ sol.x - b)
        expected = [int(i) for i in np.flatnonzero(resid <= 1e-7)]
        assert active_set(sol, plp, np.zeros(1)) == expected
        assert sol.active_set == expected


def test_objective_matches_vertex_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c, A, b = random_bounded_lp(rng, n=3, extra_rows=6)
        plp = as_plp(c, A, b)
        sol = solve_lp(plp, np.zeros(1))
        oracle = brute_force_lp(c, A, b)
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle[0], abs=1e-8)


def test_determinism_bitwise():
    rng = np.random.default_rng(23)
    c, A, b = random_bounded_lp(rng, n=4, extra_rows=10)
    plp = as_plp(c, A, b)
    first = solve_lp(plp, np.zeros(1))
    for _ in range(3):
        again = solve_lp(plp, np.zeros(1))
        assert again.active_set == first.active_set
        assert again.basis == first.basis
        assert np.array_equal(again.x, first.x)


def test_dual_certificate_reproduces_objective():
    rng = np.random.default_rng(31)
    for _ in range(10):
        c, A, b = random_bounded_lp(rng, n=3, extra_rows=6)
        plp = as_plp(c, A, b)
        sol = solve_lp(plp, np.zeros(1))
        if sol.status != "optimal":
            continue
        y = dual_certificate(plp, sol, np.zeros(1))
        assert np.min(y) >= -1e-9
        np.testing.assert_allclose(plp.W.T @ y, -plp.c, atol=1e-8)
        assert -float(plp.rhs(np.zeros(1)) @ y) == pytest.approx(sol.objective, abs=1e-6)


def test_project_feasible_identity(toy_plp):
    x = np.array([0.7])
    out = project_feasible(x, toy_plp, np.array([0.5]))
    np.testing.assert_array_equal(out, x)


def test_project_single_bound(toy_plp):
    out = project_feasible(np.array([2.0]), toy_plp, np.array([0.5]))
    assert out[0] == pytest.approx(1.0, abs=1e-8)


def test_project_idempotent():
    rng = np.random.default_rng(41)
    c, A, b = random_bounded_lp(rng, n=3, extra_rows=6)
    plp = as_plp(c, A, b)
    x_tilde = rng.normal(size=3) * 10.0
    p1 = project_feasible(x_tilde, plp, np.zeros(1))
    p2 = project_feasible(p1, plp, np.zeros(1))
    np.testing.assert_allclose(p1, p2, atol=1e-10)
    assert np.max(A @ p1 - b) <= 1e-8


def test_projection_l1_optimality_small():
    # brute-force check on a box: projection of an outside point onto
    # [-1,1]^2 clips componentwise under the L1 objective
    plp = as_plp(
        [0.0, 0.0],
        np.vstack([np.eye(2), -np.eye(2)]),
        np.ones(4),
    )
    out = project_feasible(np.array([3.0, -0.2]), plp, np.zeros(1))
    np.testing.assert_allclose(out, [1.0, -0.2], atol=1e-8)
    assert np.sum(np.abs(out - [3.0, -0.2])) == pytest.approx(2.0, abs=1e-8)


def greedy_basis_vstack(A, rows, n):
    """The basis scan before mirror skipping: Gram-Schmidt over every
    active row, growing the orthonormal set with vstack."""
    picked = []
    basis_vecs = np.zeros((0, A.shape[1]))
    for i in rows:
        v = A[i].astype(float)
        r = v - basis_vecs.T @ (basis_vecs @ v) if len(picked) else v
        nrm = np.linalg.norm(r)
        if nrm > 1e-9 * max(1.0, np.linalg.norm(v)):
            picked.append(i)
            basis_vecs = np.vstack([basis_vecs, r / nrm])
            if len(picked) == n:
                return picked
    return None


@pytest.fixture()
def basis_calls(monkeypatch):
    """Record (A, rows, n, result) of every basis scan the lp module runs."""
    calls = []
    scan = lp_mod._greedy_basis

    def recording(A, rows, n, mirror):
        out = scan(A, rows, n, mirror)
        calls.append((A, list(rows), n, out))
        return out

    monkeypatch.setattr(lp_mod, "_greedy_basis", recording)
    return calls


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_basis_scan_matches_vstack_oracle(case, basis_calls):
    plp = linearize(load_case(case_path(case)))
    rng = np.random.default_rng(61)
    thetas = rng.uniform(-1.0, 1.0, size=(12, plp.m))
    thetas[0] = 0.0
    for k, theta in enumerate(thetas):
        sol = solve_lp(plp, theta)
        assert sol.is_optimal
        # a dispatch solved at another theta is usually infeasible here
        project_feasible(sol.x, plp, thetas[k - 1])
        perturbed_basis(plp, theta)
    projections = [c for c in basis_calls if c[2] == 2 * plp.n]
    assert len(projections) >= 3
    for A, rows, n, picked in basis_calls:
        assert picked == greedy_basis_vstack(A, rows, n)


SCIPY_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def scipy_linprog(c, A, b):
    """The solve ``lp.linprog`` replaces, through scipy's public API."""
    return scipy.optimize.linprog(
        c, A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1],
        method="highs", options=lp_mod._HIGHS_OPTIONS,
    )


@pytest.fixture()
def lp_calls(monkeypatch):
    """Record (c, A, b, csc) of every LP the package solves."""
    calls = []
    solve = lp_mod.linprog

    def recording(c, A, b, csc=None):
        calls.append((c, A, b, csc))
        return solve(c, A, b, csc=csc)

    monkeypatch.setattr(lp_mod, "linprog", recording)
    return calls


def assert_matches_scipy(calls):
    for c, A, b, csc in calls:
        status, x = lp_mod.linprog(c, A, b, csc=csc)
        ref = scipy_linprog(c, A, b)
        assert status == SCIPY_STATUS[ref.status]
        if status == "optimal":
            assert x.tobytes() == ref.x.tobytes()
        else:
            assert x is None


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_linprog_matches_scipy_oracle(case, lp_calls):
    plp = linearize(load_case(case_path(case)))
    rng = np.random.default_rng(67)
    thetas = rng.uniform(-1.0, 1.0, size=(30, plp.m))
    thetas[0] = 0.0

    def calls_of(run):
        start = len(lp_calls)
        run()
        return lp_calls[start:]

    atlas = []
    families = {
        "solve_lp": calls_of(lambda: [solve_lp(plp, t) for t in thetas]),
        "perturbed_basis": calls_of(lambda: [perturbed_basis(plp, t) for t in thetas[:10]]),
        # a dispatch solved at another theta is usually infeasible here
        "projection": calls_of(lambda: [project_feasible(solve_lp(plp, t).x, plp, thetas[k - 1])
                                        for k, t in enumerate(thetas[:10])]),
        "pruning": calls_of(lambda: atlas.append(enumerate_regions(plp, 16, seed=5))),
    }
    families["chebyshev_center"] = calls_of(
        lambda: [chebyshev_center(r.poly_A, r.poly_b) for r in atlas[0].regions])
    families["projection"] = [c for c in families["projection"] if c[1].shape[1] == 2 * plp.n]
    families["pruning"] = [c for c in families["pruning"] if c[1].shape[1] == plp.m]
    for name, calls in families.items():
        assert calls, name
        assert_matches_scipy(calls)


def test_linprog_matches_scipy_on_infeasible_and_unbounded():
    infeasible = (np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    unbounded = (np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert lp_mod.linprog(*infeasible) == ("infeasible", None)
    assert lp_mod.linprog(*unbounded) == ("unbounded", None)
    assert_matches_scipy([(*infeasible, None), (*unbounded, None)])


def test_linprog_passes_scipys_options(monkeypatch):
    """Every HiGHS option equals the one linprog(method="highs") sets."""
    passed = []

    class Recording(highs_core._Highs):
        def passOptions(self, options):
            passed.append(options)
            return super().passOptions(options)

    monkeypatch.setattr(highs_core, "_Highs", Recording)
    c, A, b = random_bounded_lp(np.random.default_rng(3))
    scipy_linprog(c, A, b)
    lp_mod.linprog(c, A, b)
    theirs, ours = passed
    names = [k for k in dir(ours) if not k.startswith("_")]
    assert len(names) > 50
    for name in names:
        assert getattr(ours, name) == getattr(theirs, name), name


def test_linprog_raises_past_the_iteration_limit(monkeypatch, plp69):
    options = highs_core.HighsOptions()
    for name in ("presolve", "simplex_strategy", "primal_feasibility_tolerance",
                 "dual_feasibility_tolerance", "output_flag", "log_to_console",
                 "highs_debug_level"):
        setattr(options, name, getattr(lp_mod._OPTIONS, name))
    options.simplex_iteration_limit = options.ipm_iteration_limit = 3
    monkeypatch.setattr(lp_mod, "_OPTIONS", options)
    b = plp69.rhs(np.zeros(plp69.m))
    ref = scipy.optimize.linprog(
        plp69.c, A_ub=plp69.W, b_ub=b, bounds=(None, None), method="highs",
        options={**lp_mod._HIGHS_OPTIONS, "maxiter": 3},
    )
    assert ref.status == 1
    with pytest.raises(lp_mod.LpNumericError, match="limit"):
        lp_mod.linprog(plp69.c, plp69.W, b, csc=plp69.W_csc)


@pytest.mark.parametrize("tamper,match", [
    (lambda x, row: (x, row + 1e-3), "violates a row"),
    (lambda x, row: (x * np.nan, row), "NaN"),
])
def test_linprog_checks_an_optimal_answer(monkeypatch, tamper, match):
    """An optimum scipy's result check would flag as status 4 raises."""
    class Tampered(highs_core._Highs):
        def getSolution(self):
            sol = super().getSolution()
            x, row = tamper(np.array(sol.col_value), np.array(sol.row_value))
            return types.SimpleNamespace(col_value=x.tolist(), row_value=row.tolist())

    c, A, b = random_bounded_lp(np.random.default_rng(7))
    assert lp_mod.linprog(c, A, b)[0] == "optimal"
    monkeypatch.setattr(highs_core, "_Highs", Tampered)
    with pytest.raises(lp_mod.LpNumericError, match=match):
        lp_mod.linprog(c, A, b)


def test_linprog_rejects_non_finite_data():
    c, A, b = np.ones(2), np.eye(2), np.ones(2)
    for bad in ((c * np.nan, A, b), (c, A + np.inf, b), (c, A, b * np.nan)):
        with pytest.raises(ValueError, match="finite"):
            lp_mod.linprog(*bad)
    with pytest.raises(ValueError, match="does not match"):
        lp_mod.linprog(c, A[:1], b)


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_cached_csc_matches_scipy_sparse(case):
    plp = linearize(load_case(case_path(case)))
    ref = scipy.sparse.csc_array(plp.W)
    start, index, value = plp.W_csc
    assert plp.W_csc is plp.W_csc
    np.testing.assert_array_equal(start, ref.indptr)
    np.testing.assert_array_equal(index, ref.indices)
    assert np.array(value).tobytes() == ref.data.tobytes()


def test_import_names_the_missing_binding():
    script = (
        "import sys, scipy.optimize._highspy as pkg\n"
        "del pkg._core\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        "import qpopf.lp\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError")
    assert "scipy.optimize._highspy._core" in last
    assert f"installed scipy is {scipy.__version__}" in last


def project_feasible_assembled(x_tilde, plp, theta, tol_feas=lp_mod.TOL_FEAS):
    """The projection with its auxiliary matrix assembled and converted per call."""
    b = plp.rhs(theta)
    if float(np.max(plp.W @ x_tilde - b, initial=0.0)) <= tol_feas:
        return x_tilde.copy()
    n, q = plp.n, plp.q
    eye = np.eye(n)
    A_aux = np.block([[plp.W, np.zeros((q, n))], [eye, -eye], [-eye, -eye]])
    b_aux = np.concatenate([b, x_tilde, -x_tilde])
    c_aux = np.concatenate([np.zeros(n), np.ones(n)])
    status, z = lp_mod.linprog(c_aux, A_aux, b_aux)
    assert status == "optimal"
    active = lp_mod._scan_active(A_aux, b_aux, z, lp_mod.TOL_ACTIVE)
    basis = lp_mod._greedy_basis(A_aux, active, 2 * n, plp.mirror_row())
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
    assert float(np.max(plp.W @ x - b, initial=0.0)) <= tol_feas
    return x


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_cached_projection_matrix_matches_assembly(case):
    plp = linearize(load_case(case_path(case)))
    n, q = plp.n, plp.q
    eye = np.eye(n)
    A_aux = np.block([[plp.W, np.zeros((q, n))], [eye, -eye], [-eye, -eye]])
    assert plp.projection_matrix is plp.projection_matrix
    assert plp.projection_csc is plp.projection_csc
    assert plp.projection_matrix.shape == A_aux.shape
    assert plp.projection_matrix.tobytes() == A_aux.tobytes()
    assert plp.projection_csc == column_compressed(A_aux)


@pytest.mark.parametrize("case,rows", [("ieee69", 40), ("toy2", 12)])
def test_projection_matches_per_call_assembly(case, rows, lp_calls):
    plp = linearize(load_case(case_path(case)))
    rng = np.random.default_rng(71)
    thetas = rng.uniform(-1.0, 1.0, size=(rows, plp.m))
    dispatches = [solve_lp(plp, t).x for t in thetas]
    start = len(lp_calls)
    for k, x in enumerate(dispatches):
        # a dispatch solved at another theta is usually infeasible here
        theta = thetas[k - 1]
        assert project_feasible(x, plp, theta).tobytes() == (
            project_feasible_assembled(x, plp, theta).tobytes())
    cached = [c for c in lp_calls[start:] if c[3] is not None]
    assembled = [c for c in lp_calls[start:] if c[3] is None]
    assert len(cached) == len(assembled) == rows
    for (c, A, b, csc), (c0, A0, b0, _) in zip(cached, assembled):
        # HiGHS receives the same model either way
        assert csc == column_compressed(A0)
        assert (c.tobytes(), A.tobytes(), b.tobytes()) == (c0.tobytes(), A0.tobytes(), b0.tobytes())
