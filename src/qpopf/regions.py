"""Critical regions of the parametric LP.

Over each region of parameter space the optimal active set is constant,
so the optimizer is an affine map x*(theta) = F theta + f.  Enumeration
samples theta with a low-discrepancy sequence, solves each LP, and
collects distinct bases; each basis yields an affine map plus a region
polyhedron (the inactive constraints rewritten over theta, intersected
with the box, with redundant rows pruned: rows that hold over the whole
box are dropped outright, and of the rest the polyhedron keeps its
facets, read off the vertices of one Qhull halfspace intersection).  The
atlas records the work it took (``RegionAtlas.work``).  The atlas answers
point-location queries, which is both the exact ground-truth labeler and
the classical constraint-check baseline; ``locate_batch`` labels many
points with one product against the stacked halfspaces of every region,
and ``locate_covered`` does the same for points that must all be covered.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError
from scipy.stats import qmc

from qpopf.grid import ParametricLP, load_saved, saved_arrays, saved_field, saved_value
from qpopf.lp import perturbed_basis, solve_lp, solve_raw, work_counts

TOL_CONTAIN = 1e-9
# A region polyhedron's rows: a row is a facet when it is tight within
# _FACET_TOL at m affinely independent vertices, and Qhull finds the
# vertices only from a Chebyshev ball wider than _QHULL_MIN_RADIUS
_FACET_TOL = 1e-9
_QHULL_MIN_RADIUS = 1e-6
# The work counts of an atlas (RegionAtlas.work), in order
_WORK = ("simplex_solves", "certified", "tries", "perturbed_basis", "chebyshev_lps",
         "pruning_lps")


class SingularActiveSetError(RuntimeError):
    """Active-set matrix is singular; ``enumerate_regions`` drops the basis and
    counts it in ``dropped["singular"]``."""


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
    # Work enumeration discarded, not saved: bases with a "singular" active-set
    # matrix or an "empty" region, samples whose degenerate basis was
    # "unrecovered", and samples where the LP is "infeasible" or "unbounded".
    dropped: dict = field(default_factory=dict)
    # Work enumeration did, not saved: "simplex_solves", answers read off a
    # kept vertex ("certified") and the "tries" at one, "perturbed_basis"
    # calls, and the polyhedra's "chebyshev_lps" and fallback "pruning_lps".
    work: dict = field(default_factory=dict)

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
        """Read an atlas written by :meth:`to_dict`.

        Every key is required and of its JSON type: each region's ``id`` and
        ``active_set`` entries integers, ``degenerate`` a boolean,
        ``coverage`` a number, ``plp_hash`` a string and ``provenance`` an
        object.  Every array is finite and shaped as ``theta_box`` (m, 2)
        and, per region, ``F`` (len(active_set), m), ``f``
        (len(active_set),), ``poly_A`` (R, m) and ``poly_b`` (R,).  Each
        ``theta_box`` row's lower bound is below its upper bound, the
        region ids are 1..K in order, as ``enumerate_regions`` numbers them
        (``region`` and the privacy audit index by them), and ``coverage``
        is a fraction in [0, 1].  A failure is a ValueError naming the
        region and the field.
        """
        (theta_box,) = saved_arrays(d, {"theta_box": ("m", 2)}, "atlas")
        m = len(theta_box)
        empty = np.flatnonzero(theta_box[:, 0] >= theta_box[:, 1])
        if empty.size:
            raise ValueError(f"atlas: theta_box row {empty[0]} must have its lower bound below "
                             f"its upper bound, got {theta_box[empty[0]].tolist()}")
        regions = []
        for i, e in enumerate(saved_field(d, "regions", "atlas", list)):
            rid = saved_field(e, "id", f"atlas regions[{i}]", int)
            if rid != i + 1:
                raise ValueError(f"atlas regions[{i}]: id must be {i + 1} "
                                 f"(ids are 1..K in order), got {rid}")
            where = f"atlas region {rid}"
            active_set = tuple(saved_value(j, int, f"{where}: active_set[{k}]")
                               for k, j in enumerate(saved_field(e, "active_set", where, list)))
            n = len(active_set)
            F, f, poly_A, poly_b = saved_arrays(
                e, {"F": (n, m), "f": (n,), "poly_A": ("R", m), "poly_b": ("R",)}, where)
            regions.append(CriticalRegion(id=rid, active_set=active_set, F=F, f=f, poly_A=poly_A,
                                          poly_b=poly_b,
                                          degenerate=saved_field(e, "degenerate", where, bool)))
        coverage = saved_field(d, "coverage", "atlas", float)
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"atlas: coverage must be a fraction in [0, 1], got {coverage}")
        return cls(
            regions=regions,
            theta_box=theta_box,
            coverage=coverage,
            provenance=dict(saved_field(d, "provenance", "atlas", dict)),
            plp_hash=saved_field(d, "plp_hash", "atlas", str),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RegionAtlas":
        """Read an atlas file (see :meth:`from_dict`); a ValueError names the path."""
        return load_saved(path, cls.from_dict)


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
    (W_N F - T_N) theta <= S_N - W_N f, intersected with the theta box,
    each scaled to a unit row.  With ``remove_redundant`` the rows that
    hold over the whole box go, and of the rest the facets stay, in row
    order (``_irredundant_rows``): each row tight at m affinely
    independent vertices of the Qhull intersection built at the
    ``chebyshev_center``, and of rows on one facet the last.  Those are
    the rows a pruning LP per row keeps, and that LP loop still runs
    where Qhull cannot: at m = 1, and where the Chebyshev radius is at or
    below ``_QHULL_MIN_RADIUS``.
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
        A, b = A[~implied], b[~implied]
        keep = _irredundant_rows(A, b, work_counts(plp))
        A, b = A[keep], b[keep]
    if A.shape[0] == 0:
        raise EmptyRegionError("no rows left after pruning")
    return A, b


def _irredundant_rows(A: np.ndarray, b: np.ndarray, work: Counter) -> list[int]:
    """The rows of {A x <= b} (unit rows, bounded) that define a facet, in
    row order; where rows define the same facet, the last of them.

    One Qhull intersection of the halfspaces (Barber, Dobkin & Huhdanpaa,
    ACM TOMS 1996) at the Chebyshev center gives the vertices, and a row
    is a facet when it is tight within ``_FACET_TOL`` at m affinely
    independent vertices.  Two inputs keep the LP test of every row
    (``_pruned_rows``): m = 1, and a Chebyshev radius at or below
    ``_QHULL_MIN_RADIUS`` (an empty or flat polyhedron, or one too thin
    for Qhull's interior point), as does a Qhull failure.  Both ways keep
    the same rows.  Adds its LPs to ``work``: ``chebyshev_lps`` and
    ``pruning_lps``.
    """
    m = A.shape[1]
    if m > 1:
        work["chebyshev_lps"] += 1
        center, radius = chebyshev_center(A, b)
        if radius > _QHULL_MIN_RADIUS:
            try:
                vertices = HalfspaceIntersection(np.column_stack([A, -b]), center).intersections
            except QhullError:
                pass
            else:
                return _facet_rows(A, b, vertices)
    return _pruned_rows(A, b, work)


def _facet_rows(A: np.ndarray, b: np.ndarray, vertices: np.ndarray) -> list[int]:
    """The rows of ``_irredundant_rows`` read off the polyhedron's vertices."""
    m = A.shape[1]
    tight = np.abs(A @ vertices.T - b[:, None]) <= _FACET_TOL
    keep, facets = [], set()
    for i in reversed(range(len(b))):
        on = vertices[tight[i]]
        if len(on) < m or tight[i].tobytes() in facets:
            continue
        if np.linalg.matrix_rank(on[1:] - on[0], tol=_FACET_TOL) == m - 1:
            facets.add(tight[i].tobytes())
            keep.append(i)
    return keep[::-1]


def _pruned_rows(A: np.ndarray, b: np.ndarray, work: Counter) -> list[int]:
    """Per-row LP max test, deterministic order; also detects emptiness."""
    keep = list(range(A.shape[0]))
    i = 0
    while i < len(keep):
        row = keep[i]
        others = [r for r in keep if r != row]
        if not others:
            break
        work["pruning_lps"] += 1
        status, x = solve_raw(-A[row], A[others], b[others])
        if status == "infeasible":
            raise EmptyRegionError("region polyhedron is empty")
        if status == "optimal" and float(A[row] @ x) <= b[row] + 1e-9:
            keep.pop(i)
            continue
        i += 1
    return keep


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
    before = work_counts(plp).copy()

    found: dict[tuple[int, ...], bool] = {}  # basis -> built via fallback
    dropped = {"singular": 0, "empty": 0, "unrecovered": 0, "infeasible": 0, "unbounded": 0}
    for theta in thetas:
        sol = solve_lp(plp, theta)
        if not sol.is_optimal:
            dropped[sol.status] += 1
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
        counts = " ".join(f"{k}={v}" for k, v in dropped.items())
        raise EnumerationError(
            f"no critical regions found in {sampling_budget} samples, dropped: {counts}"
        )
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
        work={k: work_counts(plp)[k] - before[k] for k in _WORK},
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
