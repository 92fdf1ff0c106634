import dataclasses
import functools
import gc
import itertools
import os
import subprocess
import sys
import threading
import types
import weakref

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core as highs_core

from qpopf import lp as lp_mod
from qpopf import regions as regions_mod
from qpopf.data import case_path
from qpopf.grid import ParametricLP, linearize, load_case
from qpopf.lp import column_compressed, perturbed_basis, project_feasible, solve_lp
from qpopf.regions import chebyshev_center, enumerate_regions
from tests.conftest import make_toy_plp
from tests.lp_oracle import (SCIPY_STATUS, dual_certificate, hyperplanes_by_set, scipy_linprog,
                             solution_bytes, solve_lp_cold)


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
        y = dual_certificate(plp, sol)
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

    def recording(A, rows, n):
        out = scan(A, rows, n)
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
    kept = lp_mod._kept(plp)
    assert [matrix for matrix, _ in kept.bases].count("projection") >= 3
    for A, rows, n, picked in basis_calls:
        assert picked == greedy_basis_vstack(A, rows, n)
    # a scan of one row per hyperplane picks what a scan of every active row picks
    for (matrix, active), basis in kept.bases.items():
        A, n = (plp.W, plp.n) if matrix == "W" else (kept.projection_matrix, 2 * plp.n)
        picked = greedy_basis_vstack(A, list(active), n)
        if matrix == "W" and picked is not None:
            picked = lp_mod._fix_basis_signs(plp, picked)
        assert basis == (None if picked is None else tuple(picked))


def effective_count_mirror(active, mirror):
    """The hyperplane count as it was kept with a mirror map: an active row
    counts unless its opposing row is active with a lower index."""
    active_set = set(active)
    count = 0
    for i in active:
        j = mirror.get(i)
        if j is not None and j in active_set and j < i:
            continue
        count += 1
    return count


def perturbed_basis_mirror(plp, theta, mirror):
    """``perturbed_basis`` deciding uniqueness with ``effective_count_mirror``."""
    for scale in (1e-9, 1e-9 * 100.0):
        b = plp.rhs(theta) + scale * np.arange(1, plp.q + 1)
        _, x = lp_mod.linprog(plp.c, plp.W, b, csc=lp_mod._kept(plp).W_csc)
        if x is None:
            return None
        active = lp_mod._scan_active(plp.W @ x - b, max(scale / 3.0, 1e-10))
        basis = lp_mod._basis(plp, "W", active)
        if basis is not None and effective_count_mirror(active, mirror) == plp.n:
            return basis
    return basis


@pytest.mark.parametrize("case,boundary", [("ieee69", None), ("toy2", 0.5)])
def test_pair_count_matches_the_mirror_oracle(case, boundary):
    plp = linearize(load_case(case_path(case)))
    mirror = {}
    for i, j in plp.eq_pairs:
        mirror[i], mirror[j] = j, i
    rng = np.random.default_rng(79)
    thetas = rng.uniform(-1.0, 1.0, size=(30, plp.m))
    if boundary is not None:
        thetas[0] = boundary
    statuses = []
    for theta in thetas:
        sol = solve_lp(plp, theta)
        assert len(lp_mod._hyperplanes(plp, sol.active_set)) == (
            effective_count_mirror(sol.active_set, mirror))
        unique = sol.basis is not None and effective_count_mirror(sol.active_set, mirror) == plp.n
        assert sol.status == ("optimal" if unique else "degenerate")
        assert perturbed_basis(plp, theta) == perturbed_basis_mirror(plp, theta, mirror)
        statuses.append(sol.status)
    if boundary is not None:
        # toy2's region boundary: six active rows, two pairs, four hyperplanes for n = 3
        assert statuses[0] == "degenerate"
        assert "optimal" in statuses[1:]


def lp_answers(plp, thetas, k):
    """Every field of solve_lp, perturbed_basis and project_feasible at thetas[k]."""
    theta = thetas[k]
    sol = solve_lp(plp, theta)
    # a dispatch solved at another theta is usually infeasible here
    projected = project_feasible(solve_lp(plp, thetas[k - 1]).x, plp, theta)
    return (
        (sol.x.tobytes(), sol.objective, sol.status, sol.active_set, sol.basis,
         sol.max_violation),
        perturbed_basis(plp, theta),
        projected.tobytes(),
    )


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_basis_memo_matches_a_cold_lp(case):
    grid_case = load_case(case_path(case))
    warm = linearize(grid_case)
    rng = np.random.default_rng(73)
    thetas = rng.uniform(-1.0, 1.0, size=(100, warm.m))
    filling = [lp_answers(warm, thetas, k) for k in range(len(thetas))]
    memo = dict(lp_mod._kept(warm).bases)
    for k in range(len(thetas)):
        cold = linearize(grid_case)
        assert not lp_mod._kept(cold).bases
        assert filling[k] == lp_answers(warm, thetas, k) == lp_answers(cold, thetas, k)
    # the second pass over the warm LP scanned nothing new
    assert lp_mod._kept(warm).bases == memo
    kinds = [matrix for matrix, _ in memo]
    assert 0 < kinds.count("W") < len(thetas)
    assert 0 < kinds.count("projection") < len(thetas)


def w_bases(plp):
    """The distinct bases the LP keeps for W, without None."""
    return {basis for (matrix, _), basis in lp_mod._kept(plp).bases.items()
            if matrix == "W" and basis is not None}


def test_enumeration_scans_each_active_set_once(case69, basis_calls, lp_calls, highs_runs,
                                               factor_calls, simplex_calls, certified_calls,
                                               monkeypatch):
    # solve_lp rebound in qpopf.regions, as the benchmark counts enumeration solves
    solves = []
    solve = regions_mod.solve_lp

    def counted(*args, **kwargs):
        solves.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(regions_mod, "solve_lp", counted)
    for budget, regions, simplex, runs in [(1, 1, 1, 11), (1000, 7, 7, 71)]:
        for calls in (solves, basis_calls, lp_calls, highs_runs, factor_calls, simplex_calls,
                      certified_calls):
            calls.clear()
        plp = linearize(case69)
        atlas = enumerate_regions(plp, budget, seed=11)
        assert len(solves) == budget
        # each sample is one simplex solve or one answer read off a kept vertex: one
        # simplex solve per region, and every vertex kept is a region's basis
        assert (len(simplex_calls), len(certified_calls)) == (simplex, budget - simplex)
        assert set(lp_mod._kept(plp).vertices) == {r.active_set for r in atlas.regions}
        assert all(sol.basis == list(basis) for *_, basis, sol in certified_calls)
        assert len(basis_calls) == atlas.K == regions
        # one LU factorization per distinct W basis, of those rows of W
        bases = w_bases(plp)
        assert len(bases) == regions
        assert sorted(A.tobytes() for A in factor_calls) == sorted(
            plp.W[list(basis)].tobytes() for basis in bases)
        assert set(lp_mod._kept(plp).factors) == bases
        # every simplex solve is one cold solve of W, and HiGHS runs only for those
        # and the pruning LPs
        assert len([A for _, A, *_ in lp_calls if A is plp.W]) == simplex
        assert len(highs_runs) == runs
    # a projection factors its basis and keeps no factor
    factored = len(factor_calls)
    project_feasible(solve_lp(plp, np.full(plp.m, 0.5)).x, plp, np.full(plp.m, -0.5))
    assert len(factor_calls) == factored + 1 and factor_calls[-1].shape == (2 * plp.n,) * 2
    assert set(lp_mod._kept(plp).factors) == w_bases(plp)


@pytest.mark.parametrize("case", ["ieee69", "toy2", "toy"])
def test_a_fresh_lp_runs_highs_once_for_its_first_solve(case, highs_runs):
    """A fresh LP's first ``solve_lp`` is one cold HiGHS run at its theta."""
    plp = lp_of(case)
    theta = plp.theta_box[:, 0]
    sol = solve_lp(plp, theta)
    assert len(highs_runs) == 1 and highs_runs[0].tobytes() == plp.rhs(theta).tobytes()
    assert solution_bytes(sol) == solution_bytes(solve_lp_cold(plp, theta))


def test_each_w_basis_is_factored_once(basis_calls, factor_calls):
    # toy2's region boundary is a third active set, and its basis is the lower region's
    plp = lp_of("toy2")
    enumerate_regions(plp, 64, seed=9)
    boundary = solve_lp(plp, np.full(plp.m, 0.5))
    assert boundary.status == "degenerate"
    assert len(basis_calls) == 3 and tuple(boundary.basis) in w_bases(plp)
    kept = lp_mod._kept(plp)
    assert len(factor_calls) == len(kept.factors) == len(w_bases(plp)) == 2
    # projection bases are factored per call and never kept
    thetas = np.random.default_rng(73).uniform(-1.0, 1.0, size=(16, plp.m))
    for k, theta in enumerate(thetas):
        project_feasible(solve_lp(plp, theta).x, plp, thetas[k - 1])
    assert [matrix for matrix, _ in kept.bases].count("projection") > 0
    assert any(A.shape == (2 * plp.n, 2 * plp.n) for A in factor_calls)
    assert len(kept.factors) == len(w_bases(plp))
    assert all(len(basis) == plp.n for basis in kept.factors)


@pytest.fixture()
def factor_calls(monkeypatch):
    """Record a copy of every matrix the lp module factors."""
    calls = []
    getrf = lp_mod.dgetrf

    def recording(A, *args, **kwargs):
        calls.append(np.array(A))
        return getrf(A, *args, **kwargs)

    monkeypatch.setattr(lp_mod, "dgetrf", recording)
    return calls


def polished_by_solve(A, b, x, resid, basis):
    """The polish with its basis rows solved by ``np.linalg.solve``, which
    raises ``LinAlgError`` on a singular basis: the oracle of ``_polished``."""
    try:
        x_basis = np.linalg.solve(A[basis], b[basis])
    except np.linalg.LinAlgError:
        return x, resid
    resid_basis = A @ x_basis - b
    before = float(np.max(resid, initial=0.0))
    after = float(np.max(resid_basis, initial=0.0))
    return (x_basis, resid_basis) if after <= max(1e-9, before) else (x, resid)


@pytest.fixture()
def polish_calls(monkeypatch):
    """Record (A, b, x, resid, basis, factor, result) of every polish."""
    calls = []
    polish = lp_mod._polished

    def recording(A, b, x, resid, basis, factor):
        out = polish(A, b, x, resid, basis, factor)
        calls.append((A, b, x, resid, list(basis), factor, out))
        return out

    monkeypatch.setattr(lp_mod, "_polished", recording)
    return calls


def assert_certified_match_the_solve(plp, calls):
    """Each answer read off a kept vertex is its basis system solved as
    ``np.linalg.solve`` does, bit for bit, a point the polish takes from
    any start (it violates no row by more than 1e-9), with its residual."""
    for _, b, basis, sol in calls:
        rows = list(basis)
        x = np.linalg.solve(plp.W[rows], b[rows])
        resid = plp.W @ x - b
        assert sol.x.tobytes() == x.tobytes()
        assert sol.max_violation == float(np.max(resid, initial=0.0)) <= 1e-9
        assert sol.active_set == lp_mod._scan_active(resid, lp_mod.TOL_ACTIVE)


def assert_polishes_match_the_solve(calls):
    """Each polish solves its basis system as ``np.linalg.solve`` does, bit
    for bit, and returns what ``polished_by_solve`` returns."""
    for A, b, x, resid, basis, factor, (x_out, resid_out) in calls:
        system = np.linalg.solve(A[basis], b[basis])
        assert lp_mod.dgetrs(*factor, b[basis])[0].tobytes() == system.tobytes()
        x_ref, resid_ref = polished_by_solve(A, b, x, resid, basis)
        assert (x_out.tobytes(), resid_out.tobytes()) == (x_ref.tobytes(), resid_ref.tobytes())


@pytest.mark.parametrize("case,budget,seed", [("ieee69", 1000, 11), ("toy2", 64, 9)])
def test_polish_matches_the_linalg_solve_oracle(case, budget, seed, polish_calls,
                                                certified_calls):
    plp = lp_of(case)
    enumerate_regions(plp, budget, seed=seed)
    bases, kept = w_bases(plp), lp_mod._kept(plp)
    # one simplex solve, so one polish, per basis; a kept vertex answers every other sample
    assert len(polish_calls) == len(bases) and set(kept.factors) == bases
    assert len(certified_calls) == budget - len(bases)
    assert {basis for *_, basis, _ in certified_calls} == bases
    assert_certified_match_the_solve(plp, certified_calls)
    # the first polish of each basis factors it, the later ones reuse the factor
    first = {}
    for A, _, _, _, basis, factor, _ in polish_calls:
        assert A is plp.W
        assert first.setdefault(tuple(basis), factor) is factor is kept.factors[tuple(basis)]
    assert_polishes_match_the_solve(polish_calls)
    # 200 parameters per basis, each polishing the same start point from the kept factor
    rng = np.random.default_rng(29)
    x = solve_lp(plp, np.zeros(plp.m)).x
    polish_calls.clear()
    for basis in sorted(bases):
        for theta in rng.uniform(-1.0, 1.0, size=(200, plp.m)):
            b = plp.rhs(theta)
            lp_mod._polished(plp.W, b, x, plp.W @ x - b, list(basis),
                             lp_mod._w_factor(plp, list(basis)))
    assert len(polish_calls) == 200 * len(bases) and set(kept.factors) == bases
    assert_polishes_match_the_solve(polish_calls)
    # the projections' polishes, each from a factor of its own basis
    polish_calls.clear()
    thetas = np.random.default_rng(73).uniform(-1.0, 1.0, size=(16, plp.m))
    for k, theta in enumerate(thetas):
        project_feasible(solve_lp(plp, theta).x, plp, thetas[k - 1])
    projections = [call for call in polish_calls if call[0] is kept.projection_matrix]
    assert projections
    assert_polishes_match_the_solve(polish_calls)


def test_each_lp_polishes_from_its_own_factors(polish_calls):
    # the same LP with every row scaled by 3: its bases are ieee69's, its W is not
    plp = lp_of("ieee69")
    scaled = dataclasses.replace(plp, W=3.0 * plp.W, S=3.0 * plp.S, T=3.0 * plp.T)
    thetas = np.random.default_rng(31).uniform(-1.0, 1.0, size=(40, plp.m))
    for theta in thetas:
        solve_lp(plp, theta)
        solve_lp(scaled, theta)
    assert set(lp_mod._kept(plp).factors) & set(lp_mod._kept(scaled).factors)
    assert all(call[0] is plp.W or call[0] is scaled.W for call in polish_calls)
    assert_polishes_match_the_solve(polish_calls)


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_a_singular_basis_leaves_the_point_unpolished(case):
    plp = lp_of(case)
    theta = np.zeros(plp.m)
    sol = solve_lp(plp, theta)
    b = plp.rhs(theta)
    # the basis with its last row replaced by its first: exactly singular
    planted = [*sol.basis[:-1], sol.basis[0]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(plp.W[planted], b[planted])
    factor = lp_mod._factored(plp.W[planted])
    assert factor is None
    x, resid = np.ones(plp.n), plp.W @ np.ones(plp.n) - b
    out = lp_mod._polished(plp.W, b, x, resid, planted, factor)
    assert out[0] is x and out[1] is resid
    ref = polished_by_solve(plp.W, b, x, resid, planted)
    assert ref[0] is x and ref[1] is resid


@pytest.fixture()
def lp_calls(monkeypatch):
    """Record (c, A, b, csc) of every cold LP the package solves."""
    calls = []
    solve = lp_mod.linprog

    def recording(c, A, b, csc=None):
        calls.append((c, A, b, csc))
        return solve(c, A, b, csc=csc)

    monkeypatch.setattr(lp_mod, "linprog", recording)
    return calls


@pytest.fixture()
def highs_runs(monkeypatch):
    """Record the b of every HiGHS run the package judges (``lp._answer``)."""
    calls = []
    answer = lp_mod._answer

    def recording(highs, b):
        calls.append(b.copy())
        return answer(highs, b)

    monkeypatch.setattr(lp_mod, "_answer", recording)
    return calls


@pytest.fixture()
def simplex_calls(monkeypatch):
    """Record the theta of every ``simplex_solve``: each ``solve_lp`` that no
    kept vertex answers, and each direct call."""
    calls = []
    solve = lp_mod.simplex_solve

    def recording(plp, theta):
        calls.append(np.array(theta))
        return solve(plp, theta)

    monkeypatch.setattr(lp_mod, "simplex_solve", recording)
    return calls


@pytest.fixture()
def certified_calls(monkeypatch):
    """Record (plp, b, basis, answer) of every answer ``solve_lp`` reads off a
    kept vertex."""
    calls = []
    certify = lp_mod._certified

    def recording(plp, b, basis):
        sol = certify(plp, b, basis)
        if sol is not None:
            calls.append((plp, b.copy(), basis, sol))
        return sol

    monkeypatch.setattr(lp_mod, "_certified", recording)
    return calls


def assert_answers_match_scipy(answers):
    """For each (c, A, b, (status, x)): scipy's status, and its vertex bit for bit."""
    for c, A, b, (status, x) in answers:
        ref = scipy_linprog(c, A, b)
        assert status == SCIPY_STATUS[ref.status]
        if status != "optimal":
            assert x is None
        else:
            assert x.tobytes() == ref.x.tobytes()


def assert_matches_scipy(calls):
    """``linprog`` on each (c, A, b, csc) gives scipy's answer."""
    assert_answers_match_scipy([(c, A, b, lp_mod.linprog(c, A, b, csc=csc))
                                for c, A, b, csc in calls])


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_linprog_matches_scipy_oracle(case, lp_calls, simplex_calls, certified_calls):
    plp = linearize(load_case(case_path(case)))
    rng = np.random.default_rng(67)
    thetas = rng.uniform(-1.0, 1.0, size=(30, plp.m))
    thetas[0] = 0.0

    simplex, certified = [], []  # simplex solves and answers off a kept vertex per family

    def calls_of(run):
        cold, before, read = len(lp_calls), len(simplex_calls), len(certified_calls)
        run()
        simplex.append(len(simplex_calls) - before)
        certified.append(len(certified_calls) - read)
        return lp_calls[cold:]

    atlas, solutions = [], []
    families = {
        "simplex_solve": calls_of(
            lambda: solutions.extend(lp_mod.simplex_solve(plp, t) for t in thetas)),
        "perturbed_basis": calls_of(lambda: [perturbed_basis(plp, t) for t in thetas[:10]]),
        # a dispatch solved at another theta is usually infeasible here
        "projection": calls_of(lambda: [project_feasible(solve_lp(plp, t).x, plp, thetas[k - 1])
                                        for k, t in enumerate(thetas[:10])]),
        "pruning": calls_of(lambda: atlas.append(enumerate_regions(plp, 16, seed=5))),
    }
    families["chebyshev_center"] = calls_of(
        lambda: [chebyshev_center(r.poly_A, r.poly_b) for r in atlas[0].regions])
    families["pruning"] = [c for c in families["pruning"] if c[1].shape[1] == plp.m]
    # each solve_lp of the projection family is answered off a kept vertex, so its
    # cold LPs are the projections, on the matrix the LP keeps; every LP, simplex
    # solves and projections included, is one cold linprog
    kept = lp_mod._kept(plp)
    assert all(A is kept.projection_matrix and csc is kept.projection_csc
               for _, A, _, csc in families["projection"])
    assert all(A is plp.W for _, A, *_ in families["simplex_solve"])
    for name, calls in families.items():
        assert calls, name
        assert_matches_scipy(calls)
    # the projection and pruning families' solve_lp calls are each a simplex solve
    # or an answer off a vertex the 30 simplex solves kept
    assert [s + c for s, c in zip(simplex, certified)] == [len(thetas), 0, 10, 16, 0]
    assert simplex == {"ieee69": [30, 0, 0, 1, 0], "toy2": [30, 0, 0, 0, 0]}[case]
    for theta, sol in zip(thetas, solutions):
        assert solution_bytes(sol) == solution_bytes(solve_lp_cold(plp, theta))
    # an answer off a kept vertex is solve_lp's post-processing of scipy's cold solve
    for _, b, _, sol in certified_calls:
        ref = scipy_linprog(plp.c, plp.W, b)
        assert SCIPY_STATUS[ref.status] == "optimal"
        assert solution_bytes(sol) == solution_bytes(lp_mod._solution(plp, b, "optimal", ref.x))


def test_linprog_matches_scipy_on_infeasible_and_unbounded():
    infeasible = (np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    unbounded = (np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert lp_mod.linprog(*infeasible) == ("infeasible", None)
    assert lp_mod.linprog(*unbounded) == ("unbounded", None)
    assert_matches_scipy([(*infeasible, None), (*unbounded, None)])


def test_linprog_passes_scipys_options(monkeypatch):
    """Every HiGHS option equals the one linprog(method="highs") sets, in a
    cold solve and in each projection's."""
    passed = []

    class Recording(highs_core._Highs):
        def passOptions(self, options):
            passed.append(options)
            return super().passOptions(options)

    monkeypatch.setattr(highs_core, "_Highs", Recording)
    c, A, b = random_bounded_lp(np.random.default_rng(3))
    scipy_linprog(c, A, b)
    lp_mod.linprog(c, A, b)
    # once per projection (x = 0 is infeasible at both)
    plp = make_toy_plp()
    for theta in (0.5, 0.25):
        project_feasible(np.zeros(plp.n), plp, np.array([theta]))
    theirs, *ours = passed
    assert len(ours) == 3
    names = [k for k in dir(theirs) if not k.startswith("_")]
    assert len(names) > 50
    for options in ours:
        for name in names:
            assert getattr(options, name) == getattr(theirs, name), name


def limited_options(limit):
    """``lp._OPTIONS`` with an iteration limit of ``limit``."""
    options = highs_core.HighsOptions()
    for name in ("presolve", "simplex_strategy", "primal_feasibility_tolerance",
                 "dual_feasibility_tolerance", "output_flag", "log_to_console",
                 "highs_debug_level"):
        setattr(options, name, getattr(lp_mod._OPTIONS, name))
    options.simplex_iteration_limit = options.ipm_iteration_limit = limit
    return options


def test_linprog_raises_past_the_iteration_limit(monkeypatch, plp69):
    monkeypatch.setattr(lp_mod, "_OPTIONS", limited_options(3))
    b = plp69.rhs(np.zeros(plp69.m))
    ref = scipy.optimize.linprog(
        plp69.c, A_ub=plp69.W, b_ub=b, bounds=(None, None), method="highs",
        options={**lp_mod._HIGHS_OPTIONS, "maxiter": 3},
    )
    assert ref.status == 1
    with pytest.raises(lp_mod.LpNumericError, match="limit"):
        lp_mod.linprog(plp69.c, plp69.W, b, csc=lp_mod._kept(plp69).W_csc)
    # solve_lp fails as the cold solve does, and keeps no vertex
    plp = dataclasses.replace(plp69)
    with pytest.raises(lp_mod.LpNumericError, match="limit"):
        solve_lp(plp, np.zeros(plp.m))
    assert lp_mod._kept(plp).vertices == []


@pytest.mark.parametrize("tamper,match", [
    (lambda x, row: (x, row + 1e-3), "violates a row"),
    (lambda x, row: (x * np.nan, row), "NaN"),
])
def test_linprog_checks_an_optimal_answer(monkeypatch, tamper, match):
    """An optimum scipy's result check would flag as status 4 raises, from
    ``linprog``, from a simplex solve and from a projection."""
    class Tampered(highs_core._Highs):
        active = False

        def getSolution(self):
            sol = super().getSolution()
            if not Tampered.active:
                return sol
            x, row = tamper(np.array(sol.col_value), np.array(sol.row_value))
            return types.SimpleNamespace(col_value=x.tolist(), row_value=row.tolist())

    c, A, b = random_bounded_lp(np.random.default_rng(7))
    assert lp_mod.linprog(c, A, b)[0] == "optimal"
    monkeypatch.setattr(highs_core, "_Highs", Tampered)
    plp, theta = make_toy_plp(), np.array([0.5])
    assert solve_lp(plp, theta).status == "optimal"
    # x = 0 is infeasible at theta 0.5; its projection is x = 0.5
    assert project_feasible(np.zeros(plp.n), plp, theta).tolist() == [0.5]
    monkeypatch.setattr(Tampered, "active", True)
    with pytest.raises(lp_mod.LpNumericError, match=match):
        lp_mod.linprog(c, A, b)
    # solve_lp would answer from the vertex the first solve kept, without HiGHS
    with pytest.raises(lp_mod.LpNumericError, match=match):
        lp_mod.simplex_solve(plp, theta)
    with pytest.raises(lp_mod.LpNumericError, match=match):
        project_feasible(np.zeros(plp.n), plp, theta)


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
    kept = lp_mod._kept(plp)
    start, index, value = kept.W_csc
    assert kept.W_csc is kept.W_csc
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


def test_no_python_code_runs_inside_a_list_conversion():
    """The binding sets up its numpy support on the first list it converts and
    runs Python code then; a HiGHS call from that code, as from a signal
    handler, never returns.  Importing ``qpopf.lp`` does that set-up."""
    script = (
        "import sys\n"
        "import qpopf.lp\n"
        "from scipy.optimize._highspy import _core\n"
        "ran = []\n"
        "def reenter(frame, event, arg):\n"
        "    if event == 'call' and not ran:\n"
        "        ran.append(frame.f_code.co_name)\n"
        "        _core.HighsLp().col_cost_ = [1.0]\n"
        "model = _core.HighsLp()\n"
        "sys.setprofile(reenter)\n"
        "model.col_cost_ = [1.0, 2.0]\n"
        "sys.setprofile(None)\n"
        "print(ran)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


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
    active = lp_mod._scan_active(A_aux @ z - b_aux, lp_mod.TOL_ACTIVE)
    basis = lp_mod._greedy_basis(A_aux, active, 2 * n)
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
    kept = lp_mod._kept(plp)
    assert kept.projection_matrix is kept.projection_matrix
    assert kept.projection_csc is kept.projection_csc
    assert kept.projection_matrix.shape == A_aux.shape
    assert kept.projection_matrix.tobytes() == A_aux.tobytes()
    assert kept.projection_csc == column_compressed(A_aux)


@pytest.mark.parametrize("case,rows", [("ieee69", 40), ("toy2", 12)])
def test_projection_matches_per_call_assembly(case, rows, lp_calls):
    plp = linearize(load_case(case_path(case)))
    rng = np.random.default_rng(71)
    thetas = rng.uniform(-1.0, 1.0, size=(rows, plp.m))
    dispatches = [solve_lp(plp, t).x for t in thetas]
    kept = lp_mod._kept(plp)
    start = len(lp_calls)
    for k, x in enumerate(dispatches):
        # a dispatch solved at another theta is usually infeasible here
        theta = thetas[k - 1]
        assert project_feasible(x, plp, theta).tobytes() == (
            project_feasible_assembled(x, plp, theta).tobytes())
        # the LP solved is the one assembled for this projection
        (c, A, b, csc), (c0, A0, b0, _) = lp_calls[start + 2 * k:]
        assert A is kept.projection_matrix and csc is kept.projection_csc
        assert A.tobytes() == A0.tobytes()
        assert c.tobytes() == c0.tobytes() and b.tobytes() == b0.tobytes()
    assert len(lp_calls) - start == 2 * rows


def projection_rows(plp, seed, count):
    """The active rows, one per hyperplane, of the cold projection LPs of
    ``count`` dispatches each solved at the theta before it."""
    thetas = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, plp.m))
    A = lp_mod._kept(plp).projection_matrix
    c = np.concatenate([np.zeros(plp.n), np.ones(plp.n)])
    sets = []
    for k, theta in enumerate(thetas):
        x = solve_lp(plp, theta).x
        b = np.concatenate([plp.rhs(thetas[k - 1]), x, -x])
        status, z = lp_mod.linprog(c, A, b, csc=lp_mod._kept(plp).projection_csc)
        assert status == "optimal"
        sets.append(lp_mod._hyperplanes(plp, lp_mod._scan_active(A @ z - b, lp_mod.TOL_ACTIVE)))
    return sets


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_projection_basis_matches_the_greedy_scan(case):
    plp = lp_of(case)
    n, q = plp.n, plp.q
    A = lp_mod._kept(plp).projection_matrix
    sets = [rows for seed in (73, 71, 67) for rows in projection_rows(plp, seed, 20)]
    # a coordinate the projection leaves at x_tilde has both its rows active
    assert any(set(rows) & {i + n for i in rows if q <= i < q + n} for rows in sets)
    # every row, so W alone spans x and no [-I, -I] row with an active partner is
    # picked; only the I blocks, so each such row is; the first row dropped; none
    everything = list(range(q + 2 * n))
    blocks = list(range(q, q + 2 * n))
    cases = [*sets, *[rows[1:] for rows in sets], everything, blocks, []]
    picks = [lp_mod._projection_basis(plp, rows) for rows in cases]
    assert picks == [lp_mod._greedy_basis(A, rows, 2 * n) for rows in cases]
    assert picks[-3] == [*lp_mod._greedy_basis(plp.W, everything[:q], n), *range(q, q + n)]
    assert picks[-2] == blocks and picks[-1] is None
    assert None in picks[:len(sets) * 2] and any(picks[:len(sets)])


def projection_bytes(plp, x, theta):
    """``project_feasible``'s bytes, or the message of its ``ProjectionError``."""
    try:
        return project_feasible(x, plp, theta).tobytes()
    except lp_mod.ProjectionError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_projection_order_does_not_change_the_bytes(case):
    plp = lp_of(case)
    thetas = np.random.default_rng(73).uniform(-1.0, 1.0, size=(16, plp.m))
    # a dispatch solved at another theta is usually infeasible here
    pairs = [(solve_lp(plp, theta).x, thetas[k - 1]) for k, theta in enumerate(thetas)]
    far = np.full(plp.m, 1000.0)
    assert solve_lp(plp, far).status == "infeasible"
    # an empty feasible set, and a bound of -1e20 or less that HiGHS refuses
    empty, refused = (pairs[1][0], far), (np.full(plp.n, 1e25), thetas[0])
    fresh = [projection_bytes(lp_of(case), *pair) for pair in [*pairs, empty, refused]]
    assert fresh[-2:] == [f"projection LP is infeasible at theta={theta}"
                          for theta in (far, thetas[0])]
    order = np.random.default_rng(5).permutation(len(fresh))
    shuffled = lp_of(case)
    out = {k: projection_bytes(shuffled, *[*pairs, empty, refused][k]) for k in order}
    assert [out[k] for k in range(len(fresh))] == fresh
    # a refused projection first, then each one after a failure
    after = lp_of(case)
    assert projection_bytes(after, *refused) == fresh[-1]
    for k, pair in enumerate(pairs):
        assert projection_bytes(after, *(empty if k % 2 else refused)) == fresh[-1 - k % 2]
        assert projection_bytes(after, *pair) == fresh[k]


def lp_of(case):
    return make_toy_plp() if case == "toy" else linearize(load_case(case_path(case)))


def property_thetas(plp, count, boundary, seed):
    """Points over 1.3 times the theta box, a tenth of them far outside it
    (often infeasible), and the box's midpoint and the ``boundary`` point."""
    rng = np.random.default_rng(seed)
    lo, hi = plp.theta_box.T
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    near = mid + half * rng.uniform(-1.3, 1.3, size=(count - count // 10, plp.m))
    far = rng.uniform(-40.0, 40.0, size=(count // 10, plp.m))
    return np.vstack([mid, np.full(plp.m, boundary), near, far])


@functools.lru_cache(maxsize=None)
def cold_simplex_answers(case, boundary):
    """``property_thetas(lp, 2000, boundary, seed=83)`` of ``lp_of(case)``, and
    the ``solution_bytes`` of a simplex solve at each (no vertex tried),
    computed once for the tests that compare with them."""
    plp = lp_of(case)
    thetas = property_thetas(plp, 2000, boundary, seed=83)
    return thetas, [solution_bytes(lp_mod.simplex_solve(plp, theta)) for theta in thetas]


@pytest.mark.parametrize("case,boundary", [("ieee69", 0.0), ("toy2", 0.5), ("toy", 0.0)])
def test_certified_answers_are_the_cold_simplex_answers(case, boundary, certified_calls):
    """``solve_lp``, answering from the vertices it has kept so far, gives the
    cold simplex solve's bytes at each point, forwards and in reverse."""
    thetas, cold = cold_simplex_answers(case, boundary)
    for order in (range(len(thetas)), reversed(range(len(thetas)))):
        plp, read = lp_of(case), len(certified_calls)
        for k in order:
            assert solution_bytes(solve_lp(plp, thetas[k])) == cold[k]
        # most points inside the box are certified
        assert len(certified_calls) - read > len(thetas) // 2


@pytest.mark.parametrize("case,budget,seed", [
    ("ieee69", 1000, 11), ("ieee69", 3000, 11), ("ieee69", 3000, 0), ("ieee69", 2000, 5),
    ("ieee69", 500, 3), ("ieee69", 64, 9), ("ieee69", 1, 9),
    ("toy2", 3000, 0), ("toy2", 2000, 5), ("toy2", 64, 9), ("toy2", 1, 9),
])
def test_enumeration_matches_the_simplex_loop(case, budget, seed, monkeypatch):
    """An atlas enumerated through the certificate is, byte for byte, the one
    a loop of simplex solves gives, degenerate flags included."""
    atlas = enumerate_regions(lp_of(case), budget, seed=seed)
    monkeypatch.setattr(regions_mod, "solve_lp", lp_mod.simplex_solve)
    assert atlas.to_dict() == enumerate_regions(lp_of(case), budget, seed=seed).to_dict()


def dual_degenerate_lp():
    """min -x1 - x2 s.t. x1 + x2 <= 1 + theta, 0 <= x1, x2 <= 1: the cost is
    parallel to the first row, so every optimum is a segment of it, and
    each vertex basis has a basic row with dual 0."""
    return ParametricLP(
        c=np.array([-1.0, -1.0]),
        W=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        S=np.array([1.0, 0.0, 0.0, 1.0, 1.0]),
        T=np.array([[1.0], [0.0], [0.0], [0.0], [0.0]]),
        theta_box=np.array([[-0.5, 0.5]]),
    )


def test_a_dual_degenerate_vertex_is_never_kept(certified_calls, simplex_calls):
    plp = dual_degenerate_lp()
    thetas = [np.array([t]) for t in (-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4, 0.1, -0.4)]
    # every answer is the cold solve's, whichever vertex of the optimal segment
    # HiGHS ends on
    answers = [solve_lp(plp, theta) for theta in thetas]
    for theta, sol in zip(thetas, answers):
        assert solution_bytes(sol) == solution_bytes(solve_lp_cold(plp, theta))
    # each answer is an optimal vertex, yet none is kept: a basic row's dual is 0
    assert {sol.status for sol in answers} == {"optimal"}
    for sol in answers:
        y = dual_certificate(plp, sol)
        assert y[sol.basis].min() < lp_mod._CERT_DUAL
    assert lp_mod._kept(plp).vertices == [] and not certified_calls
    assert len(simplex_calls) == len(thetas)


def test_a_slack_in_the_band_is_never_certified(certified_calls, simplex_calls):
    # the toy LP, min x s.t. x >= t, x >= 0, x <= 1: at t > 0 the vertex is x = t
    # on row 0, and row 1's residual is -t
    plp = make_toy_plp()
    cold = dataclasses.replace(plp)
    assert solve_lp(plp, np.array([0.5])).basis == [0]
    assert lp_mod._kept(plp).vertices == [(0,)]
    for t, certified in [(2e-6, True), (1e-6, False), (5e-7, False), (2e-7, False),
                         (1.5e-9, False), (0.25, True)]:
        theta = np.array([t])
        read, solved = len(certified_calls), len(simplex_calls)
        sol = solve_lp(plp, theta)
        assert solution_bytes(sol) == solution_bytes(lp_mod.simplex_solve(cold, theta))
        assert (len(certified_calls) - read, len(simplex_calls) - solved) == (
            (1, 1) if certified else (0, 2)), t


def test_a_vertex_is_only_the_basis_its_point_scans(plp69):
    """A kept vertex whose basis is not the pick of its own point's active rows
    does not answer: here the vertex of a basis at the centre of the box with
    one equality row swapped for its partner, the same point by another pick."""
    plp = dataclasses.replace(plp69)
    theta = np.zeros(plp.m)
    ref = lp_mod.simplex_solve(dataclasses.replace(plp), theta)
    kept = lp_mod._kept(plp)
    partner = {i: j for pair in plp.eq_pairs for i, j in (pair, pair[::-1])}
    swapped = next(i for i in ref.basis if i in partner)
    other = tuple(sorted(partner[i] if i == swapped else i for i in ref.basis))
    # the swapped basis solves to the same point, with the same active rows
    b = plp.rhs(theta)
    x = np.linalg.solve(plp.W[list(other)], b[list(other)])
    assert lp_mod._scan_active(plp.W @ x - b, lp_mod.TOL_ACTIVE) == ref.active_set
    lp_mod._w_factor(plp, list(other))
    kept.vertices.append(other)
    assert solution_bytes(solve_lp(plp, theta)) == solution_bytes(ref)
    assert kept.vertices == [other, tuple(ref.basis)]


def test_a_degenerate_answer_keeps_no_vertex(certified_calls):
    # toy2's region boundary and the toy LP's kink at 0 are degenerate
    for case, boundary in [("toy2", 0.5), ("toy", 0.0)]:
        plp = lp_of(case)
        theta = np.full(plp.m, boundary)
        sol = solve_lp(plp, theta)
        assert sol.status == "degenerate" and sol.basis is not None
        assert lp_mod._kept(plp).vertices == []
        assert solution_bytes(solve_lp(plp, theta)) == solution_bytes(sol)
    assert not certified_calls


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_solve_order_does_not_change_the_bytes(case):
    thetas = property_thetas(lp_of(case), 60, 0.5, seed=89)

    def answers(order, project):
        plp, out = lp_of(case), {}
        for k in order:
            if project:
                # a dispatch of another theta, usually infeasible here
                project_feasible(np.zeros(plp.n), plp, thetas[k])
            # solve_lp may answer from the vertices kept so far
            sol = solution_bytes(solve_lp(plp, thetas[k]))
            assert solution_bytes(lp_mod.simplex_solve(plp, thetas[k])) == sol
            out[k] = sol
        return out

    forwards = answers(range(len(thetas)), False)
    assert answers(reversed(range(len(thetas))), False) == forwards
    assert answers(range(len(thetas)), True) == forwards


@pytest.mark.parametrize("plp,statuses", [
    # |x| <= theta - 0.25 is empty at the box's midpoint 0
    (ParametricLP(c=np.array([1.0]), W=np.array([[1.0], [-1.0]]), S=np.full(2, -0.25),
                  T=np.ones((2, 1)), theta_box=np.array([[-1.0, 1.0]])),
     ["infeasible"] * 5 + ["degenerate", "optimal", "optimal", "optimal"]),
    # min x with only x <= 1 + theta
    (ParametricLP(c=np.array([1.0]), W=np.array([[1.0]]), S=np.ones(1), T=np.ones((1, 1)),
                  theta_box=np.array([[-1.0, 1.0]])),
     ["unbounded"] * 9),
])
def test_no_midpoint_basis_means_cold_solves(plp, statuses, lp_calls):
    """LPs with no optimum at the centre of the box: each simplex solve is one
    cold ``linprog``, and every answer is the cold oracle's."""
    thetas = np.linspace(-1.0, 1.0, 9)[:, None]
    solutions = [lp_mod.simplex_solve(plp, theta) for theta in thetas]
    assert len(lp_calls) == len(thetas)
    assert [sol.status for sol in solutions] == statuses
    for theta, sol in zip(thetas, solutions):
        assert solution_bytes(sol) == solution_bytes(solve_lp_cold(plp, theta))
        # solve_lp answers as the cold solve, from a kept vertex or by one
        assert solution_bytes(solve_lp(plp, theta)) == solution_bytes(sol)


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_a_bad_theta_raises_on_both_paths(case):
    """``solve_lp`` checks b as ``linprog`` does before it tries a kept vertex."""
    plp = lp_of(case)
    thetas = property_thetas(plp, 10, 0.5, seed=101)
    solve_lp(plp, thetas[0])
    assert lp_mod._kept(plp).vertices
    for bad in (np.zeros((plp.m, 1)), np.full(plp.m, np.nan), np.full(plp.m, np.inf),
                np.full(plp.m, -np.inf)):
        raised = []
        for solve in (solve_lp, lp_mod.simplex_solve):
            with pytest.raises(ValueError) as info, np.errstate(invalid="ignore"):
                solve(plp, bad)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert ("does not match" if bad.ndim == 2 else "finite") in raised[0]
        for theta in thetas:
            assert solution_bytes(solve_lp(plp, theta)) == (
                solution_bytes(solve_lp_cold(plp, theta)))


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_a_failed_solve_leaves_the_next_one_cold(case, monkeypatch):
    """After an infeasible, a refused and an interrupted projection LP, the
    next projections answer as on a fresh LP."""
    plp = lp_of(case)
    thetas = np.random.default_rng(103).uniform(-1.0, 1.0, size=(12, plp.m))
    # a dispatch solved at another theta is usually infeasible here
    pairs = [(solve_lp(plp, theta).x, thetas[k - 1]) for k, theta in enumerate(thetas)]
    fresh = [projection_bytes(lp_of(case), *pair) for pair in pairs]

    def next_solves_are_cold():
        assert [projection_bytes(plp, *pair) for pair in pairs] == fresh

    next_solves_are_cold()
    # infeasible: the feasible set is empty far outside the box
    far = np.full(plp.m, 1000.0)
    assert projection_bytes(plp, pairs[1][0], far) == (
        f"projection LP is infeasible at theta={far}")
    next_solves_are_cold()
    # a bound of -1e20 or less is -inf to HiGHS: x_tilde = 1e25 gives such a row, so
    # passModel refuses the model
    refused = (np.full(plp.n, 1e25), thetas[0])
    assert projection_bytes(plp, *refused) == projection_bytes(lp_of(case), *refused) == (
        f"projection LP is infeasible at theta={thetas[0]}")
    next_solves_are_cold()
    # out of pivots: projections that need one raise; presolve alone solves toy2's
    raised = 0
    with monkeypatch.context() as patched:
        patched.setattr(lp_mod, "_OPTIONS", limited_options(0))
        for pair in pairs:
            try:
                project_feasible(pair[0], plp, pair[1])
            except lp_mod.LpNumericError as exc:
                assert "limit" in str(exc)
                raised += 1
    assert bool(raised) == (case == "ieee69")
    next_solves_are_cold()


@pytest.mark.parametrize("case", ["ieee69", "toy2"])
def test_hyperplanes_match_the_set_oracle(case):
    plp = lp_of(case)
    thetas = property_thetas(plp, 300, 0.5, seed=109)
    actives = [solve_lp(plp, theta).active_set for theta in thetas]
    assert np.mean([len(active) for active in actives]) > plp.n
    # every row of the projection matrix, in either order, and none
    rows = list(range(plp.q + 2 * plp.n))
    for active in [*actives, rows, rows[::-1], []]:
        picked = lp_mod._hyperplanes(plp, active)
        assert picked == hyperplanes_by_set(plp, active)
        assert all(type(i) is int for i in picked)


def dispatch_pairs(plp, count, seed):
    """``count`` (x, theta) pairs whose x violates a row at theta by more than
    ``FEASIBILITY_THRESHOLD``, each x solved at a seeded theta and scored at
    the one before it, and after every fourth a pair x feasible at theta."""
    thetas = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(4 * count, plp.m))
    xs, at, infeasible = [], [], 0
    for k, theta in enumerate(thetas):
        x = solve_lp(plp, theta).x
        if np.max(plp.W @ x - plp.rhs(thetas[k - 1])) > lp_mod.FEASIBILITY_THRESHOLD:
            xs.append(x)
            at.append(thetas[k - 1])
            infeasible += 1
            if infeasible % 4 == 0:
                xs.append(x)
                at.append(theta)
            if infeasible == count:
                return np.array(xs), np.array(at)
    raise AssertionError(f"{infeasible} infeasible pairs of {count}")


def serial_dispatch(plp, xs, thetas):
    """``feasible_dispatch`` as a loop of single projections: each row's
    bytes, or the message of the first ``ProjectionError``, and the mask."""
    out, mask = [], []
    for x, theta in zip(xs, thetas):
        mask.append(bool(np.max(plp.W @ x - plp.rhs(theta)) > lp_mod.FEASIBILITY_THRESHOLD))
        out.append(projection_bytes(plp, x, theta) if mask[-1] else x.tobytes())
        if not isinstance(out[-1], bytes):
            return out[-1], mask
    return out, mask


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(lp_mod, "_workers", lambda: workers)


@pytest.mark.parametrize("case,count", [("ieee69", 60), ("toy2", 20)])
def test_a_batch_is_the_serial_loop(case, count, monkeypatch):
    """On the caller alone and on a pool of two or three threads, under a
    short switch interval, a batch gives each pair's serial bytes and raises
    the serial loop's first error."""
    plp = lp_of(case)
    xs, thetas = dispatch_pairs(plp, count, seed=127)
    fresh, mask = serial_dispatch(lp_of(case), xs, thetas)
    assert sum(mask) == count and len(mask) > count
    # an empty feasible set at the second pair, and a bound HiGHS refuses later on
    far = np.full(plp.m, 1000.0)
    failing = (np.vstack([xs[:1], xs[1:2], xs[2:], np.full((1, plp.n), 1e25)]),
               np.vstack([thetas[:1], far[None], thetas[2:], thetas[:1]]))
    error, _ = serial_dispatch(lp_of(case), *failing)
    assert error == f"projection LP is infeasible at theta={far}"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the pool threads share the LP's basis memo
    try:
        for workers in (0, 1, 2):
            with_workers(monkeypatch, workers)
            out, projected = lp_mod.feasible_dispatch(xs, plp, thetas)
            assert projected.tolist() == mask
            assert out.shape == xs.shape and [row.tobytes() for row in out] == fresh
            with pytest.raises(lp_mod.ProjectionError) as info:
                lp_mod.feasible_dispatch(failing[0], plp, failing[1])
            assert str(info.value) == error
    finally:
        sys.setswitchinterval(interval)


def test_a_batch_needs_one_theta_per_dispatch():
    """Dispatches and thetas of different counts raise, naming both counts."""
    plp = lp_of("toy2")
    xs, thetas = dispatch_pairs(plp, 3, seed=131)
    for dispatches, scored in ((3, 2), (2, 3), (0, 1)):
        with pytest.raises(ValueError, match=f"^{dispatches} dispatches but {scored} thetas$"):
            lp_mod.feasible_dispatch(xs[:dispatches], plp, thetas[:scored])


def test_a_batch_with_one_cpu_starts_no_thread(monkeypatch):
    plp = lp_of("toy2")
    xs, thetas = dispatch_pairs(plp, 8, seed=131)
    threads = []

    def counted(*args):
        threads.append((threading.current_thread(), threading.active_count()))
        return project_feasible(*args)

    monkeypatch.setattr(lp_mod, "project_feasible", counted)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    before = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert lp_mod._workers() == 0
    lp_mod.feasible_dispatch(xs, plp, thetas)
    # and on more CPUs, a batch with one projection
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert lp_mod._workers() == 1
    lp_mod.feasible_dispatch(xs[:1], plp, thetas[:1])
    assert len(threads) == 9
    assert set(threads) == {(threading.main_thread(), before)}
    assert threading.active_count() == before


BLAS_ENVIRONMENTS = [
    ({}, 0),  # OpenBLAS starts one thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({"GOTO_NUM_THREADS": " 1 "}, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 0),  # the first set one counts
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),  # 0 sets nothing
    ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "4"}, 0),
]


@pytest.mark.parametrize("env,workers", BLAS_ENVIRONMENTS)
def test_a_worker_starts_only_beside_one_blas_thread(env, workers, monkeypatch):
    """A second pool thread needs a further CPU and BLAS on one thread, as
    OpenBLAS reads its thread count; however many CPUs there are, two pool
    threads are the most."""
    for var in lp_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    for cpus, expected in ((1, 0), (2, workers), (64, workers)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert lp_mod._workers() == expected


def test_a_failed_batch_stops_early_and_leaves_no_thread(monkeypatch):
    """A batch whose first projection fails raises before most of the
    other 39 start, and ends its pool threads as a good batch does."""
    plp = lp_of("ieee69")
    xs, thetas = dispatch_pairs(plp, 40, seed=149)
    thetas[0] = 1000.0  # an empty feasible set
    calls = []

    def counted(*args):
        calls.append(threading.get_ident())
        return project_feasible(*args)

    monkeypatch.setattr(lp_mod, "project_feasible", counted)
    with_workers(monkeypatch, 1)
    _, projected = lp_mod.feasible_dispatch(xs[1:], plp, thetas[1:])
    assert len(calls) == sum(projected) == 39 and len(set(calls)) == 2
    threads = threading.active_count()
    calls.clear()
    with pytest.raises(lp_mod.ProjectionError, match="infeasible"):
        lp_mod.feasible_dispatch(xs, plp, thetas)
    assert 1 <= len(calls) < 10
    assert threading.active_count() == threads


def test_an_lp_is_freed_with_its_last_reference(case69, monkeypatch):
    """What the lp module keeps of an LP holds no reference back to it, so the
    LP and what it keeps go without the cyclic garbage collector, also after
    a batch on two threads and a batch that raised."""
    with_workers(monkeypatch, 1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        plp = linearize(case69)
        thetas = np.random.default_rng(113).uniform(-1.0, 1.0, size=(2, plp.m))
        x = solve_lp(plp, thetas[0]).x
        perturbed_basis(plp, thetas[0])
        project_feasible(x, plp, thetas[1])
        kept = lp_mod._kept(plp)
        assert dataclasses.replace(plp).solver_state is None
        xs, at = dispatch_pairs(plp, 12, seed=139)
        lp_mod.feasible_dispatch(xs, plp, at)
        try:
            lp_mod.feasible_dispatch(xs[:3], plp, np.vstack([at[:1], np.full((2, plp.m), 1e3)]))
        except lp_mod.ProjectionError:
            pass
        else:
            raise AssertionError("no ProjectionError")
        refs = [weakref.ref(obj) for obj in (plp, kept)]
        del kept
        del plp
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
