"""Reconstructed 69-bus case: data sanity, LP oracle checks, region atlas."""

import itertools

import numpy as np
import networkx as nx
import pytest

from qpopf.lp import dual_certificate, project_feasible, solve_lp, solve_raw
from qpopf.regions import locate_region
from tests.conftest import region_interior_points


def test_case_layout(case69):
    assert len(case69.buses) == 69
    assert len(case69.lines) == 68
    assert sorted(d.bus for d in case69.elastic_demands) == [12, 23, 32, 42, 53, 62]
    assert sorted(r.bus for r in case69.renewables) == [9, 30, 60]
    assert all(r.deviation_kw == 10.0 for r in case69.renewables)
    assert case69.m == 3


def test_plp_dimensions(plp69):
    # 6 generators + 6 elastic demands + 68 flows
    assert plp69.n == 80
    assert plp69.T.shape[1] == 3
    assert len(plp69.eq_pairs) == 69


def test_theta_zero_feasible_and_unique(plp69):
    sol = solve_lp(plp69, np.zeros(3))
    assert sol.status == "optimal"
    assert sol.max_violation <= 1e-9


def test_corners_feasible(plp69):
    for corner in itertools.product((-1.0, 1.0), repeat=3):
        assert solve_lp(plp69, np.array(corner)).is_optimal


def _reduced_gen_lp(case, plp, theta):
    """Independent 6-variable reduction of the dispatch problem.

    On a tree, flows are fixed by injections, elastic demands pin at
    their lower bounds (they carry zero cost), and wide line/voltage
    limits cannot bind; what remains is generator dispatch against the
    system balance, generator boxes, and the tight line limits.
    """
    g = nx.Graph()
    g.add_nodes_from(case.buses)
    for ln in case.lines:
        g.add_edge(ln.from_bus, ln.to_bus, line=ln)

    fixed = {b: 0.0 for b in case.buses}
    for d in case.fixed_demands:
        fixed[d.bus] += d.p_mw
    for d in case.elastic_demands:
        fixed[d.bus] += d.p_min_mw
    for i, r in enumerate(case.renewables):
        fixed[r.bus] -= r.forecast_mw + r.deviation_kw / 1000.0 * theta[i]

    n_g = len(case.generators)
    c = np.array([gen.cost for gen in case.generators])
    rows, rhs = [], []
    # generator boxes
    for i, gen in enumerate(case.generators):
        e = np.zeros(n_g)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [gen.p_max_mw, -gen.p_min_mw]
    # tight line limits: net downstream demand minus downstream generation
    for ln in case.lines:
        if ln.limit_mw >= 4.0:
            continue
        h = g.copy()
        h.remove_edge(ln.from_bus, ln.to_bus)
        downstream = nx.node_connected_component(h, ln.to_bus)
        demand = sum(fixed[b] for b in downstream)
        gvec = np.array(
            [1.0 if gen.bus in downstream else 0.0 for gen in case.generators]
        )
        # flow toward downstream = demand - local generation
        rows += [-gvec, gvec]
        rhs += [ln.limit_mw - demand, ln.limit_mw + demand]
    A = np.vstack(rows)
    b = np.array(rhs)
    total = sum(fixed.values())
    return c, A, b, total


def brute_force_with_equality(c, A, b, eq_vec, eq_rhs):
    n = A.shape[1]
    best = None
    for rows in itertools.combinations(range(A.shape[0]), n - 1):
        sub = np.vstack([A[list(rows)], eq_vec])
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, np.concatenate([b[list(rows)], [eq_rhs]]))
        if np.max(A @ x - b) <= 1e-9:
            val = float(c @ x)
            if best is None or val < best - 1e-12:
                best = val
    return best


@pytest.mark.parametrize("theta", [np.zeros(3), np.array([-0.7, -0.7, 0.3])])
def test_objective_matches_reduced_vertex_enumeration(case69, plp69, theta):
    sol = solve_lp(plp69, theta)
    assert sol.is_optimal
    # wide rows really are slack at the optimum, so the reduction is sound
    resid = plp69.W @ sol.x - plp69.rhs(theta)
    for i, name in enumerate(plp69.con_names):
        if name.startswith(("vlo", "vhi")):
            assert resid[i] < -1e-3
    c, A, b, total = _reduced_gen_lp(case69, plp69, theta)
    oracle = brute_force_with_equality(c, A, b, np.ones(len(c)), total)
    assert oracle is not None
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_projection_distance_matches_permuted_resolve(plp69):
    rng = np.random.default_rng(101)
    theta = rng.uniform(-1, 1, 3)
    k = rng.integers(0, plp69.n, size=10)
    x_tilde = solve_lp(plp69, theta).x.copy()
    x_tilde[k] += rng.normal(scale=0.5, size=10)
    proj = project_feasible(x_tilde, plp69, theta)
    assert np.max(plp69.W @ proj - plp69.rhs(theta)) <= 1e-8
    dist = float(np.sum(np.abs(proj - x_tilde)))

    # independent re-solve of the auxiliary LP with permuted rows
    n, q = plp69.n, plp69.q
    perm = rng.permutation(q)
    eye = np.eye(n)
    A_aux = np.block(
        [[plp69.W[perm], np.zeros((q, n))], [eye, -eye], [-eye, -eye]]
    )
    b_aux = np.concatenate([plp69.rhs(theta)[perm], x_tilde, -x_tilde])
    status, z = solve_raw(np.concatenate([np.zeros(n), np.ones(n)]), A_aux, b_aux)
    assert status == "optimal"
    assert dist == pytest.approx(float(np.sum(z[n:])), abs=1e-7)


def test_dual_certificate_69(plp69):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(5):
        theta = rng.uniform(-1, 1, 3)
        sol = solve_lp(plp69, theta)
        if sol.status != "optimal":
            continue
        y = dual_certificate(plp69, sol, theta)
        assert np.min(y) >= -1e-9
        np.testing.assert_allclose(plp69.W.T @ y, -plp69.c, atol=1e-7)
        assert -float(plp69.rhs(theta) @ y) == pytest.approx(sol.objective, abs=1e-6)
        checked += 1
    assert checked >= 3


def test_solver_determinism_69(plp69):
    theta = np.array([0.3, -0.2, 0.6])
    a = solve_lp(plp69, theta)
    b = solve_lp(plp69, theta)
    assert a.active_set == b.active_set
    assert a.basis == b.basis
    assert np.array_equal(a.x, b.x)


# -- atlas ---------------------------------------------------------------


def test_atlas_shape(atlas69, plp69):
    assert 2 <= atlas69.K <= 9          # single-digit region count
    assert atlas69.coverage >= 0.999
    assert atlas69.plp_hash == plp69.hash_hex()
    ids = [r.id for r in atlas69.regions]
    assert ids == list(range(1, atlas69.K + 1))
    keys = {r.active_set for r in atlas69.regions}
    assert len(keys) == atlas69.K


def test_region_maps_match_lp_inside(atlas69, plp69):
    for region in atlas69.regions:
        pts = region_interior_points(atlas69, region, 50, seed=region.id)
        assert len(pts) == 50
        for theta in pts:
            sol = solve_lp(plp69, theta)
            assert sol.status == "optimal"
            assert tuple(sol.basis) == region.active_set
            np.testing.assert_allclose(
                region.solution(theta), sol.x, atol=1e-6
            )


def test_locate_against_lp_and_objective(atlas69, plp69):
    rng = np.random.default_rng(55)
    basis_to_id = {r.active_set: r.id for r in atlas69.regions}
    for _ in range(1000):
        theta = rng.uniform(-1, 1, 3)
        k = locate_region(atlas69, theta)
        sol = solve_lp(plp69, theta)
        gap = abs(float(plp69.c @ atlas69.region(k).solution(theta)) - sol.objective)
        assert gap <= 1e-8
        if sol.status == "optimal":
            assert basis_to_id[tuple(sol.basis)] == k


def test_partition_69(atlas69):
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        theta = rng.uniform(-1, 1, 3)
        strict = sum(
            1
            for r in atlas69.regions
            if np.all(r.poly_A @ theta <= r.poly_b - 1e-9)
        )
        loose = sum(1 for r in atlas69.regions if r.contains(theta))
        assert strict <= 1
        assert loose >= 1


def test_facet_rows_are_tight(atlas69):
    for region in atlas69.regions:
        A, b = region.poly_A, region.poly_b
        for i in range(A.shape[0]):
            others = [j for j in range(A.shape[0]) if j != i]
            status, x = solve_raw(-A[i], A[others], b[others])
            # a real facet: without it the row's direction is unbounded or
            # reaches strictly beyond its rhs
            assert status in ("optimal", "unbounded")
            if status == "optimal":
                assert float(A[i] @ x) > b[i] + 1e-9


def test_continuity_across_facets_69(atlas69):
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(4000):
        a, b = rng.uniform(-1, 1, (2, 3))
        ka, kb = locate_region(atlas69, a), locate_region(atlas69, b)
        if ka == kb:
            continue
        lo, hi = a, b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if locate_region(atlas69, mid) == ka:
                lo = mid
            else:
                hi = mid
        facet_point = 0.5 * (lo + hi)
        ra, rb = atlas69.region(ka), atlas69.region(kb)
        if not (ra.contains(facet_point, 1e-9) and rb.contains(facet_point, 1e-9)):
            continue  # bisection converged onto a third region's corner
        np.testing.assert_allclose(
            ra.solution(facet_point), rb.solution(facet_point), atol=1e-6
        )
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5
