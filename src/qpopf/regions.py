"""Critical regions of the parametric LP.

Over each region of parameter space the optimal active set is constant,
so the optimizer is an affine map x*(theta) = F theta + f.  Enumeration
samples theta with a low-discrepancy sequence, solves each LP, and
collects distinct bases; each basis yields an affine map plus a region
polyhedron (the inactive constraints rewritten over theta, intersected
with the box, with redundant rows pruned: rows that hold over the whole
box are dropped outright, the rest by one LP each).  The atlas answers
point-location queries, which is both the exact ground-truth labeler and
the classical constraint-check baseline; ``locate_batch`` labels many
points with one product against the stacked halfspaces of every region,
and ``locate_covered`` does the same for points that must all be covered.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from qpopf.grid import ParametricLP
from qpopf.lp import perturbed_basis, solve_lp, solve_raw

TOL_CONTAIN = 1e-9


class SingularActiveSetError(RuntimeError):
    """Active-set matrix is singular; caller should fall back to perturbation."""


class EmptyRegionError(RuntimeError):
    """Active set is never optimal inside the parameter box."""


class UncoveredThetaError(LookupError):
    """No region of the atlas contains the query point."""


class UnknownRegionError(KeyError):
    """Region id not present in the atlas."""


class EnumerationError(RuntimeError):
    """Region enumeration produced no regions."""


@dataclass
class CriticalRegion:
    id: int
    active_set: tuple[int, ...]    # n-row basis into plp.W
    F: np.ndarray                  # (n, m), MW per normalized-theta unit
    f: np.ndarray                  # (n,), MW
    poly_A: np.ndarray             # (R, m) rows of the region polyhedron
    poly_b: np.ndarray             # (R,)
    degenerate: bool = False

    def solution(self, theta: np.ndarray) -> np.ndarray:
        return self.F @ np.asarray(theta, dtype=float) + self.f


@dataclass
class RegionAtlas:
    regions: list[CriticalRegion]
    theta_box: np.ndarray
    coverage: float
    provenance: dict = field(default_factory=dict)
    plp_hash: str = ""
    # Bases enumeration discarded, not saved: "singular" active-set matrix,
    # "empty" region, and samples whose degenerate basis was "unrecovered".
    dropped: dict = field(default_factory=dict)

    @property
    def K(self) -> int:
        return len(self.regions)

    def region(self, k: int) -> CriticalRegion:
        for r in self.regions:
            if r.id == k:
                return r
        raise UnknownRegionError(k)

    @functools.cached_property
    def _halfspaces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every region's rows stacked: A, b, each region's first row, ids.

        Built on the first point location; an atlas's regions do not
        change once it is built.
        """
        A = np.concatenate([r.poly_A for r in self.regions])
        b = np.concatenate([r.poly_b for r in self.regions])
        starts = np.cumsum([0] + [r.poly_b.size for r in self.regions[:-1]])
        return A, b, starts, np.array([r.id for r in self.regions])

    def to_dict(self) -> dict:
        return {
            "plp_hash": self.plp_hash,
            "theta_box": self.theta_box.tolist(),
            "coverage": self.coverage,
            "provenance": self.provenance,
            "regions": [
                {
                    "id": r.id,
                    "active_set": list(r.active_set),
                    "F": r.F.tolist(),
                    "f": r.f.tolist(),
                    "poly_A": r.poly_A.tolist(),
                    "poly_b": r.poly_b.tolist(),
                    "degenerate": r.degenerate,
                }
                for r in self.regions
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegionAtlas":
        regions = [
            CriticalRegion(
                id=int(e["id"]),
                active_set=tuple(int(i) for i in e["active_set"]),
                F=np.array(e["F"], dtype=float),
                f=np.array(e["f"], dtype=float),
                poly_A=np.array(e["poly_A"], dtype=float),
                poly_b=np.array(e["poly_b"], dtype=float),
                degenerate=bool(e["degenerate"]),
            )
            for e in d["regions"]
        ]
        return cls(
            regions=regions,
            theta_box=np.array(d["theta_box"], dtype=float),
            coverage=float(d["coverage"]),
            provenance=dict(d.get("provenance", {})),
            plp_hash=d.get("plp_hash", ""),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RegionAtlas":
        return cls.from_dict(json.loads(Path(path).read_text()))


def compute_affine_map(plp: ParametricLP, active_set) -> tuple[np.ndarray, np.ndarray]:
    """F = W_A^-1 T_A and f = W_A^-1 S_A by linear solve (no explicit inverse)."""
    rows = list(active_set)
    if len(rows) != plp.n:
        raise ValueError(f"active set has {len(rows)} rows, expected n={plp.n}")
    W_A = plp.W[rows]
    rhs = np.column_stack([plp.S[rows], plp.T[rows]])
    try:
        sol = np.linalg.solve(W_A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularActiveSetError(str(exc)) from exc
    f, F = sol[:, 0], sol[:, 1:]
    resid = max(
        float(np.max(np.abs(W_A @ F - plp.T[rows]), initial=0.0)),
        float(np.max(np.abs(W_A @ f - plp.S[rows]), initial=0.0)),
    )
    if resid > 1e-9:
        raise SingularActiveSetError(f"active-set solve residual {resid:.3e}")
    return F, f


def region_polyhedron(
    plp: ParametricLP,
    active_set,
    F: np.ndarray,
    f: np.ndarray,
    remove_redundant: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """H-representation of the region in theta space.

    Inactive rows W_N (F theta + f) <= S_N + T_N theta become
    (W_N F - T_N) theta <= S_N - W_N f, intersected with the theta box.
    """
    active = set(int(i) for i in active_set)
    inactive = [i for i in range(plp.q) if i not in active]
    A = plp.W[inactive] @ F - plp.T[inactive]
    b = plp.S[inactive] - plp.W[inactive] @ f

    # Drop numerically-zero rows (mirrors of active equality members give
    # exact zero rows); a zero row with negative rhs means an empty region.
    norms = np.max(np.abs(A), axis=1, initial=0.0)
    zero = norms <= 1e-12
    if np.any(b[zero] < -1e-9):
        raise EmptyRegionError("zero row with negative right-hand side")
    A, b = A[~zero], b[~zero]

    m = plp.m
    box_A = np.vstack([np.eye(m), -np.eye(m)])
    box_b = np.concatenate([plp.theta_box[:, 1], -plp.theta_box[:, 0]])
    A = np.vstack([A, box_A])
    b = np.concatenate([b, box_b])

    # Row scaling keeps the containment tolerance meaningful.
    scale = np.linalg.norm(A, axis=1)
    A, b = A / scale[:, None], b / scale

    if remove_redundant:
        # A row that holds over the whole box is implied by the box rows.
        # They are tested last, so the pruning LP of such a row always
        # sees them and drops it; dropping it up front keeps the same rows.
        lo, hi = plp.theta_box[:, 0], plp.theta_box[:, 1]
        implied = np.maximum(A * lo, A * hi).sum(axis=1) <= b
        implied[-2 * m :] = False
        A, b = _remove_redundant_rows(A[~implied], b[~implied])
    if A.shape[0] == 0:
        raise EmptyRegionError("no rows left after pruning")
    return A, b


def _remove_redundant_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row LP max test, deterministic order; also detects emptiness."""
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


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball inside {A x <= b}."""
    m = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    A_aux = np.column_stack([A, norms])
    c_aux = np.zeros(m + 1)
    c_aux[-1] = -1.0
    # r >= 0
    r_row = np.zeros(m + 1)
    r_row[-1] = -1.0
    status, z = solve_raw(c_aux, np.vstack([A_aux, r_row]), np.concatenate([b, [0.0]]))
    if status != "optimal" or z is None:
        return np.full(m, np.nan), -np.inf
    return z[:m], float(z[-1])


def _sobol_samples(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    sampler = qmc.Sobol(d=box.shape[0], scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # non power-of-two budgets are fine here
        unit = sampler.random(count)
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def enumerate_regions(
    plp: ParametricLP,
    sampling_budget: int,
    seed: int,
    coverage_samples: int = 2048,
) -> RegionAtlas:
    """Sample theta, collect distinct bases, build maps and polyhedra.

    Coverage is estimated on a fresh uniform sample, so a tiny budget
    reports its incompleteness honestly.  Deterministic under fixed seed.
    """
    if sampling_budget < 1:
        raise ValueError("sampling_budget must be >= 1")
    if coverage_samples < 1:
        raise ValueError("coverage_samples must be >= 1")
    thetas = _sobol_samples(plp.theta_box, sampling_budget, seed)

    found: dict[tuple[int, ...], bool] = {}  # basis -> built via fallback
    dropped = {"singular": 0, "empty": 0, "unrecovered": 0}
    for theta in thetas:
        sol = solve_lp(plp, theta)
        if not sol.is_optimal:
            continue
        if sol.status == "optimal":
            key = tuple(sol.basis)
            if found.get(key, True):
                found[key] = False
        else:
            basis = perturbed_basis(plp, theta)
            if basis is None:
                dropped["unrecovered"] += 1
                continue
            key = tuple(basis)
            if key not in found:
                found[key] = True

    regions: list[CriticalRegion] = []
    for key in sorted(found):
        try:
            F, f = compute_affine_map(plp, list(key))
            poly_A, poly_b = region_polyhedron(plp, list(key), F, f)
        except SingularActiveSetError:
            dropped["singular"] += 1
            continue
        except EmptyRegionError:
            dropped["empty"] += 1
            continue
        regions.append(
            CriticalRegion(
                id=0,
                active_set=key,
                F=F,
                f=f,
                poly_A=poly_A,
                poly_b=poly_b,
                degenerate=found[key],
            )
        )
    if not regions:
        raise EnumerationError("no critical regions found (LP infeasible everywhere?)")
    for i, r in enumerate(regions):
        r.id = i + 1

    atlas = RegionAtlas(
        regions=regions,
        theta_box=plp.theta_box.copy(),
        coverage=0.0,  # estimated below
        provenance={
            "sampling_budget": sampling_budget,
            "seed": seed,
            "coverage_samples": coverage_samples,
        },
        plp_hash=plp.hash_hex(),
        dropped=dropped,
    )
    rng = np.random.default_rng([seed, 0xC0FFEE])
    probes = rng.uniform(
        plp.theta_box[:, 0], plp.theta_box[:, 1], size=(coverage_samples, plp.m)
    )
    atlas.coverage = np.count_nonzero(locate_batch(atlas, probes)) / coverage_samples
    return atlas


def locate_batch(atlas: RegionAtlas, thetas: np.ndarray) -> np.ndarray:
    """Smallest id of a region containing each row of ``thetas``; 0 if none.

    Every region's halfspaces are stacked into one matrix, so the N points
    are tested with one product, and ``logical_and.reduceat`` folds the
    row tests of each region.
    """
    if atlas.K == 0:
        raise EnumerationError("atlas has no regions")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    A, b, starts, ids = atlas._halfspaces
    inside = np.logical_and.reduceat(thetas @ A.T <= b + TOL_CONTAIN, starts, axis=1)
    return np.where(inside.any(axis=1), ids[inside.argmax(axis=1)], 0)


def locate_covered(atlas: RegionAtlas, thetas: np.ndarray) -> np.ndarray:
    """``locate_batch`` for points that must all be covered.

    Raises ``UncoveredThetaError`` naming how many points are uncovered
    and the first of them.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    ids = locate_batch(atlas, thetas)
    missed = np.flatnonzero(ids == 0)
    if missed.size:
        first = missed[0]
        raise UncoveredThetaError(
            f"{missed.size} of {len(ids)} points are not covered by the atlas; "
            f"the first is point {first}, theta {thetas[first]}"
        )
    return ids


def locate_region(atlas: RegionAtlas, theta: np.ndarray) -> int:
    """Smallest region id containing theta (the exact labeler / baseline)."""
    theta = np.asarray(theta, dtype=float)
    k = int(locate_batch(atlas, theta)[0])
    if k == 0:
        raise UncoveredThetaError(f"theta {theta} not covered by the atlas")
    return k


def reconstruct_solution(atlas: RegionAtlas, k: int, theta: np.ndarray) -> np.ndarray:
    """x = F_k theta + f_k.  No feasibility guarantee if k is wrong."""
    return atlas.region(k).solution(theta)


_MAX_LABEL_TRIES = 100


def sample_labeled_dataset(
    atlas: RegionAtlas, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform thetas with locate_region labels; uncovered draws are retried.

    Sample i is the i-th covered draw of the generator; a run of
    ``_MAX_LABEL_TRIES`` uncovered draws raises.  Draws are made and located
    in blocks, which consumes the generator exactly as one draw at a time.
    """
    rng = np.random.default_rng(seed)
    lo, hi = atlas.theta_box[:, 0], atlas.theta_box[:, 1]
    thetas = np.empty((count, lo.size))
    labels = np.empty(count, dtype=int)
    done, misses = 0, 0  # misses: uncovered draws since the last covered one
    while done < count:
        draws = rng.uniform(lo, hi, size=(count - done, lo.size))
        ids = locate_batch(atlas, draws)
        hits = np.flatnonzero(ids)[: count - done]
        gaps = np.diff(hits, prepend=-1 - misses) - 1
        misses = len(draws) - 1 - hits[-1] if hits.size else misses + len(draws)
        tries = _MAX_LABEL_TRIES
        if np.any(gaps >= tries) or (done + hits.size < count and misses >= tries):
            raise UncoveredThetaError(f"could not draw a covered theta in {tries} tries")
        thetas[done : done + hits.size] = draws[hits]
        labels[done : done + hits.size] = ids[hits]
        done += hits.size
    return thetas, labels
