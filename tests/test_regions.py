import json

import numpy as np
import pytest

from qpopf import regions as regions_mod
from qpopf.classifier import OracleClassifier
from qpopf.data import case_path
from qpopf.grid import linearize, load_case
from qpopf.lp import solve_lp, solve_raw
from qpopf.regions import (
    EmptyRegionError,
    RegionAtlas,
    SingularActiveSetError,
    UncoveredThetaError,
    UnknownRegionError,
    chebyshev_center,
    compute_affine_map,
    enumerate_regions,
    locate_batch,
    locate_region,
    reconstruct_solution,
    region_polyhedron,
    sample_labeled_dataset,
)
from tests.lp_oracle import contains


def region_maps(atlas):
    return sorted((float(r.F[0, 0]), float(r.f[0])) for r in atlas.regions)


def test_affine_map_toy_regions(toy_plp):
    F, f = compute_affine_map(toy_plp, [0])
    np.testing.assert_allclose(F, [[1.0]])
    np.testing.assert_allclose(f, [0.0])
    F, f = compute_affine_map(toy_plp, [1])
    np.testing.assert_allclose(F, [[0.0]])
    np.testing.assert_allclose(f, [0.0])


def test_affine_map_requires_n_rows(toy_plp):
    with pytest.raises(ValueError):
        compute_affine_map(toy_plp, [0, 1])


def test_region_polyhedron_toy(toy_plp):
    F, f = compute_affine_map(toy_plp, [0])
    A, b = region_polyhedron(toy_plp, [0], F, f)
    # polyhedron is exactly [0, 1]
    lo, hi = -np.inf, np.inf
    for row, rhs in zip(A[:, 0], b):
        if row > 0:
            hi = min(hi, rhs / row)
        else:
            lo = max(lo, rhs / row)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_region_polyhedron_keeps_a_row_that_barely_cuts_the_box(toy_plp):
    # x <= 1 - 1e-6 becomes theta <= 1 - 1e-6 in the region x = theta: it
    # excludes a sliver of the box, so it must survive pruning
    toy_plp.S[2] = 1.0 - 1e-6
    F, f = compute_affine_map(toy_plp, [0])
    A, b = region_polyhedron(toy_plp, [0], F, f)
    assert np.max(b[A[:, 0] > 0] / A[A[:, 0] > 0, 0]) == pytest.approx(1.0 - 1e-6, abs=1e-12)


def test_enumerate_toy(toy_atlas):
    assert toy_atlas.K == 2
    assert region_maps(toy_atlas) == [(0.0, 0.0), (1.0, 0.0)]
    assert toy_atlas.coverage == pytest.approx(1.0)
    assert [r.id for r in toy_atlas.regions] == [1, 2]
    assert not any(r.degenerate for r in toy_atlas.regions)


def test_enumerate_budget_one(toy_plp):
    atlas = enumerate_regions(toy_plp, sampling_budget=1, seed=3)
    assert atlas.K == 1
    assert atlas.coverage < 1.0


def test_enumerate_deterministic(toy_plp):
    a1 = enumerate_regions(toy_plp, sampling_budget=64, seed=9)
    a2 = enumerate_regions(toy_plp, sampling_budget=64, seed=9)
    assert a1.to_dict() == a2.to_dict()


def test_locate_region_examples(toy_atlas):
    k = locate_region(toy_atlas, np.array([0.5]))
    region = toy_atlas.region(k)
    assert region.F[0, 0] == pytest.approx(1.0)
    # exactly on the shared facet: smallest id wins
    assert locate_region(toy_atlas, np.array([0.0])) == 1


def test_locate_region_against_lp(toy_plp, toy_atlas):
    rng = np.random.default_rng(29)
    for _ in range(300):
        theta = rng.uniform(-1, 1, size=1)
        k = locate_region(toy_atlas, theta)
        sol = solve_lp(toy_plp, theta)
        np.testing.assert_allclose(
            toy_atlas.region(k).solution(theta), sol.x, atol=1e-6
        )
        if sol.status == "optimal":
            assert tuple(sol.basis) == toy_atlas.region(k).active_set


def test_reconstruct_examples(toy_atlas):
    k_pos = next(r.id for r in toy_atlas.regions if r.F[0, 0] == 1.0)
    k_neg = next(r.id for r in toy_atlas.regions if r.F[0, 0] == 0.0)
    # correct region
    x = reconstruct_solution(toy_atlas, k_pos, np.array([0.5]))
    assert x[0] == pytest.approx(0.5, abs=1e-9)
    # wrong region: the theta<=0 map applied at 0.5 gives x=0, violating
    # x >= theta by exactly 0.5
    x_bad = reconstruct_solution(toy_atlas, k_neg, np.array([0.5]))
    assert x_bad[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(UnknownRegionError):
        reconstruct_solution(toy_atlas, 99, np.array([0.0]))


def test_region_centroid_is_feasible(toy_plp, toy_atlas):
    for region in toy_atlas.regions:
        center, radius = chebyshev_center(region.poly_A, region.poly_b)
        assert radius > 1e-9
        x = region.solution(center)
        viol = np.max(toy_plp.W @ x - toy_plp.rhs(center))
        assert viol <= 1e-9


def test_partition_property(toy_atlas):
    rng = np.random.default_rng(37)
    for _ in range(10_000):
        theta = rng.uniform(-1, 1, size=1)
        strict = sum(
            1
            for r in toy_atlas.regions
            if np.all(r.poly_A @ theta <= r.poly_b - 1e-9)
        )
        loose = sum(1 for r in toy_atlas.regions if contains(r, theta))
        assert strict <= 1
        assert loose >= 1


def test_continuity_across_facet(toy_atlas):
    theta = np.array([0.0])
    containing = [r for r in toy_atlas.regions if contains(r, theta, tol=1e-9)]
    assert len(containing) == 2
    xs = [r.solution(theta) for r in containing]
    np.testing.assert_allclose(xs[0], xs[1], atol=1e-6)


def test_objective_equivalence(toy_plp, toy_atlas):
    rng = np.random.default_rng(43)
    for region in toy_atlas.regions:
        center, _ = chebyshev_center(region.poly_A, region.poly_b)
        for _ in range(100):
            theta = center + rng.normal(scale=0.05, size=1)
            if not contains(region, theta, tol=-1e-9):
                continue
            sol = solve_lp(toy_plp, theta)
            gap = abs(toy_plp.c @ region.solution(theta) - sol.objective)
            assert gap <= 1e-8


def test_dedupe_soundness(toy_atlas):
    keys = [r.active_set for r in toy_atlas.regions]
    assert len(set(keys)) == len(keys)


def test_uncovered_theta_error(toy_plp):
    atlas = enumerate_regions(toy_plp, sampling_budget=1, seed=3)
    region = atlas.regions[0]
    # probe a point outside the single region
    probe = np.array([-0.5]) if contains(region, np.array([0.5])) else np.array([0.5])
    with pytest.raises(UncoveredThetaError):
        locate_region(atlas, probe)


def test_atlas_roundtrip(tmp_path, toy_atlas):
    path = tmp_path / "atlas.json"
    path.write_text(json.dumps(toy_atlas.to_dict(), sort_keys=True))
    loaded = RegionAtlas.load(path)
    assert loaded.to_dict() == toy_atlas.to_dict()


def prune_every_row(A, b):
    """Pruning without the box filter: one LP max test per row, in order."""
    keep = list(range(A.shape[0]))
    i = 0
    while i < len(keep):
        row = keep[i]
        others = [r for r in keep if r != row]
        if not others:
            break
        status, x = solve_raw(-A[row], A[others], b[others])
        if status == "infeasible":
            raise EmptyRegionError("region polyhedron is empty")
        if status == "optimal" and float(A[row] @ x) <= b[row] + 1e-9:
            keep.pop(i)
            continue
        i += 1
    return A[keep], b[keep]


@pytest.fixture(scope="module")
def toy2_plp():
    return linearize(load_case(case_path("toy2")))


@pytest.fixture(scope="module")
def toy2_atlas(toy2_plp):
    return enumerate_regions(toy2_plp, sampling_budget=64, seed=9)


@pytest.mark.parametrize("name", ["atlas69", "toy2_atlas", "toy_atlas"])
def test_box_filter_keeps_the_pruned_rows(name, request, plp69, toy2_plp, toy_plp):
    atlas = request.getfixturevalue(name)
    plp = {"atlas69": plp69, "toy2_atlas": toy2_plp, "toy_atlas": toy_plp}[name]
    for region in atlas.regions:
        A, b = region_polyhedron(plp, region.active_set, region.F, region.f,
                                 remove_redundant=False)
        A, b = prune_every_row(A, b)
        assert A.tobytes() == region.poly_A.tobytes()
        assert b.tobytes() == region.poly_b.tobytes()


def scan_regions(atlas, theta, tol=regions_mod.TOL_CONTAIN):
    """Per-region containment scan: smallest containing id, 0 if none."""
    return next((r.id for r in atlas.regions if contains(r, theta, tol)), 0)


def facet_points(atlas, rng, per_row=4):
    """Points on every region facet and at offsets around the tolerance."""
    box = atlas.theta_box
    out = []
    for region in atlas.regions:
        for a, rhs in zip(region.poly_A, region.poly_b):
            t = rng.uniform(box[:, 0], box[:, 1], size=(per_row, box.shape[0]))
            t -= np.outer(t @ a - rhs, a) / (a @ a)  # onto the facet
            for off in (0.0, 1e-12, -1e-12, 0.5e-9, 2e-9, -1e-6, 1e-6):
                out.append(t + off * a / np.linalg.norm(a))
    return np.clip(np.concatenate(out), box[:, 0], box[:, 1])


@pytest.mark.parametrize("name", ["atlas69", "toy2_atlas", "toy_atlas"])
def test_locate_batch_matches_region_scan(name, request):
    atlas = request.getfixturevalue(name)
    rng = np.random.default_rng(53)
    box = atlas.theta_box
    for thetas in (rng.uniform(box[:, 0], box[:, 1], size=(2000, box.shape[0])),
                   facet_points(atlas, rng)):
        expected = [scan_regions(atlas, t) for t in thetas]
        np.testing.assert_array_equal(locate_batch(atlas, thetas), expected)
        for t, k in zip(thetas[:200], expected[:200]):
            if k:
                assert locate_region(atlas, t) == k
            else:
                with pytest.raises(UncoveredThetaError):
                    locate_region(atlas, t)


def sample_one_at_a_time(atlas, count, seed, max_tries):
    """The scalar labeling loop: one draw, one location, until covered."""
    rng = np.random.default_rng(seed)
    box = atlas.theta_box
    thetas = np.empty((count, box.shape[0]))
    labels = np.empty(count, dtype=int)
    for i in range(count):
        for _ in range(max_tries):
            t = rng.uniform(box[:, 0], box[:, 1])
            k = scan_regions(atlas, t)
            if k:
                thetas[i], labels[i] = t, k
                break
        else:
            raise UncoveredThetaError(f"could not draw a covered theta in {max_tries} tries")
    return thetas, labels


@pytest.fixture(scope="module")
def one_region_atlas69(plp69):
    atlas = enumerate_regions(plp69, sampling_budget=1, seed=11, coverage_samples=256)
    assert 0.0 < atlas.coverage < 1.0
    return atlas


@pytest.mark.parametrize("max_tries", [1, 2, 3, 5, 100])
@pytest.mark.parametrize("count", [0, 1, 7, 300])
def test_sample_labeled_dataset_keeps_the_scalar_stream(one_region_atlas69, count, max_tries,
                                                        monkeypatch):
    atlas = one_region_atlas69
    monkeypatch.setattr(regions_mod, "_MAX_LABEL_TRIES", max_tries)
    for seed in range(4):
        try:
            expected = sample_one_at_a_time(atlas, count, seed, max_tries)
        except UncoveredThetaError:
            with pytest.raises(UncoveredThetaError, match=f"{max_tries} tries"):
                sample_labeled_dataset(atlas, count, seed)
            continue
        thetas, labels = sample_labeled_dataset(atlas, count, seed)
        assert thetas.tobytes() == expected[0].tobytes()
        np.testing.assert_array_equal(labels, expected[1])


@pytest.mark.parametrize("counts,bad", [
    ({"sampling_budget": 0}, "sampling_budget must be >= 1"),
    ({"sampling_budget": 16, "coverage_samples": 0}, "coverage_samples must be >= 1"),
])
def test_enumerate_rejects_an_empty_count_before_any_solve(toy_plp, monkeypatch, counts, bad):
    def no_solve(plp, theta):
        raise AssertionError("solved an LP")

    monkeypatch.setattr(regions_mod, "solve_lp", no_solve)
    with pytest.raises(ValueError, match=bad):
        enumerate_regions(toy_plp, seed=7, **counts)


def test_dropped_bases_are_counted(toy_plp, monkeypatch):
    clean = enumerate_regions(toy_plp, sampling_budget=16, seed=7)
    assert clean.dropped == {"singular": 0, "empty": 0, "unrecovered": 0}
    assert "dropped" not in clean.to_dict()
    first, second = (r.active_set for r in clean.regions)

    def fail_for(key, exc, fn):
        def patched(plp, active_set, *args):
            if tuple(active_set) == key:
                raise exc("forced")
            return fn(plp, active_set, *args)
        return patched

    monkeypatch.setattr(regions_mod, "compute_affine_map",
                        fail_for(first, SingularActiveSetError, compute_affine_map))
    atlas = enumerate_regions(toy_plp, sampling_budget=16, seed=7)
    assert atlas.K == 1
    assert atlas.dropped == {"singular": 1, "empty": 0, "unrecovered": 0}
    monkeypatch.undo()

    # the first five solves report degeneracy that perturbation cannot resolve
    solves = []

    def degenerate_solve(plp, theta):
        sol = solve_lp(plp, theta)
        solves.append(theta)
        if len(solves) <= 5:
            sol.status = "degenerate"
        return sol

    monkeypatch.setattr(regions_mod, "solve_lp", degenerate_solve)
    monkeypatch.setattr(regions_mod, "perturbed_basis", lambda plp, theta: None)
    monkeypatch.setattr(regions_mod, "region_polyhedron",
                        fail_for(second, EmptyRegionError, region_polyhedron))
    atlas = enumerate_regions(toy_plp, sampling_budget=16, seed=7)
    assert atlas.dropped == {"singular": 0, "empty": 1, "unrecovered": 5}


@pytest.mark.parametrize("name", ["atlas69", "toy2_atlas", "toy_atlas", "one_region_atlas69"])
def test_oracle_classifier_matches_point_loop(name, request):
    atlas = request.getfixturevalue(name)
    oracle = OracleClassifier(atlas)
    rng = np.random.default_rng(59)
    box = atlas.theta_box
    for thetas in (rng.uniform(box[:, 0], box[:, 1], size=(500, box.shape[0])),
                   facet_points(atlas, rng, per_row=1)):
        covered = np.array([scan_regions(atlas, t) > 0 for t in thetas])
        expected = np.zeros((covered.sum(), atlas.K))
        for i, t in enumerate(thetas[covered]):
            expected[i, locate_region(atlas, t) - 1] = 1.0
        np.testing.assert_array_equal(
            oracle.logits_from_base(oracle.base_scores(thetas[covered]), 0.0), expected)
        np.testing.assert_array_equal(
            oracle.probabilities_from_base(oracle.base_scores(thetas[covered]), 0.3, 2.0),
            expected)
        if not covered.all():
            first = int(np.argmin(covered))
            with pytest.raises(UncoveredThetaError,
                               match=f"{(~covered).sum()} of {len(thetas)} points .* point {first},"):
                oracle.logits_from_base(oracle.base_scores(thetas), 0.0)
