"""Distribution-network case data and its parametric-LP form.

A case file describes a radial network (buses, lines, generators, fixed
and elastic demands, renewable units).  ``linearize`` turns it into the
dense parametric LP

    min c.x   s.t.   W x <= S + T theta,

where theta is the vector of renewable deviations in *normalized* units
(each component in [-1, 1] maps to +-deviation_kw at its unit).  Power
balance uses the LinDistFlow model for radial feeders: active branch
flows are decision variables tied to injections by per-bus balance
equalities (written as opposing inequality pairs), while reactive flows
are constants implied by the fixed Q demands and voltage-drop limits
become linear rows over the active flows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

KW_PER_MW = 1000.0


class CaseError(ValueError):
    """Raised when a case file fails to parse or violates an invariant."""


class DegenerateThetaError(CaseError):
    """Raised when a renewable unit has a zero-width deviation box."""


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    limit_mw: float | None


@dataclass(frozen=True)
class Generator:
    bus: int
    cost: float          # $/MWh, linear
    p_min_mw: float
    p_max_mw: float


@dataclass(frozen=True)
class FixedDemand:
    bus: int
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class ElasticDemand:
    bus: int
    p_min_mw: float
    p_max_mw: float


@dataclass(frozen=True)
class Renewable:
    bus: int
    forecast_mw: float
    deviation_kw: float  # symmetric bound, box is [-dev, +dev] kW


@dataclass
class GridCase:
    """Network data, validated once when built (CaseError).  Immutable after construction."""

    name: str
    buses: list[int]
    lines: list[Line]
    generators: list[Generator]
    fixed_demands: list[FixedDemand]
    elastic_demands: list[ElasticDemand]
    renewables: list[Renewable]
    base_mva: float
    v_min_pu: float = 0.90
    v_max_pu: float = 1.10

    @property
    def root(self) -> int:
        """Root (substation) bus: first entry of the bus list."""
        return self.buses[0]

    @property
    def m(self) -> int:
        return len(self.renewables)

    def __post_init__(self) -> None:
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            raise CaseError("duplicate bus ids in bus list")
        for ln in self.lines:
            for b in (ln.from_bus, ln.to_bus):
                if b not in bus_set:
                    raise CaseError(f"line {ln.from_bus}-{ln.to_bus}: unknown bus {b}")
            if ln.from_bus == ln.to_bus:
                raise CaseError(f"line {ln.from_bus}-{ln.to_bus}: self loop")
        for g in self.generators:
            if g.bus not in bus_set:
                raise CaseError(f"generator at bus {g.bus}: bus not in bus list")
            if g.p_min_mw > g.p_max_mw:
                raise CaseError(f"generator at bus {g.bus}: p_min > p_max")
        for d in self.fixed_demands:
            if d.bus not in bus_set:
                raise CaseError(f"fixed demand at bus {d.bus}: bus not in bus list")
        for d in self.elastic_demands:
            if d.bus not in bus_set:
                raise CaseError(f"elastic demand at bus {d.bus}: bus not in bus list")
            if d.p_min_mw > d.p_max_mw:
                raise CaseError(f"elastic demand at bus {d.bus}: p_min > p_max")
        for r in self.renewables:
            if r.bus not in bus_set:
                raise CaseError(f"renewable at bus {r.bus}: bus not in bus list")
            if r.deviation_kw < 0:
                raise CaseError(f"renewable at bus {r.bus}: negative deviation bound")
        if self.base_mva <= 0:
            raise CaseError("base_mva must be positive")
        if not (0 < self.v_min_pu <= self.v_max_pu):
            raise CaseError("voltage limits must satisfy 0 < v_min <= v_max")
        self._check_radial()

    def _check_radial(self) -> None:
        """Connected tree check; reports the offending element."""
        n = len(self.buses)
        if len(self.lines) != n - 1:
            raise CaseError(
                f"non-radial topology: {len(self.lines)} lines for {n} buses "
                f"(a tree needs {n - 1})"
            )
        seen_edges = set()
        for ln in self.lines:
            key = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
            if key in seen_edges:
                raise CaseError(f"non-radial topology: duplicate line {key[0]}-{key[1]}")
            seen_edges.add(key)
        # |E| = n-1 and connected => tree
        reached = {self.root, *self.tree_parents()}
        if len(reached) != n:
            missing = sorted(set(self.buses) - reached)
            raise CaseError(f"non-radial topology: buses {missing} unreachable from root")

    def tree_parents(self) -> dict[int, tuple[int, Line]]:
        """Map bus -> (parent bus, connecting line), rooted at ``self.root``."""
        adj: dict[int, list[tuple[int, Line]]] = {b: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].append((ln.to_bus, ln))
            adj[ln.to_bus].append((ln.from_bus, ln))
        parents: dict[int, tuple[int, Line]] = {}
        visited = {self.root}
        frontier = [self.root]
        while frontier:
            nxt = []
            for b in frontier:
                for nb, ln in adj[b]:
                    if nb not in visited:
                        visited.add(nb)
                        parents[nb] = (b, ln)
                        nxt.append(nb)
            frontier = nxt
        return parents


def load_case(path: str | Path) -> GridCase:
    """Load and validate a case file (versioned JSON schema)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise CaseError(f"cannot parse case file {path}: {exc}") from exc
    return case_from_dict(raw, name=path.stem)


def _entries(raw: dict, key: str):
    """(name, entry) of each entry of the list under ``key``, named like ``lines[2]``."""
    if not isinstance(raw[key], list):
        raise CaseError(f"{key!r} must be a list, got {type(raw[key]).__name__}")
    return [(f"{key}[{i}]", e) for i, e in enumerate(raw[key])]


def _field(entry, key: str, ctx: str, optional: bool = False):
    if not isinstance(entry, dict):
        raise CaseError(f"{ctx} must be an object, got {type(entry).__name__}")
    if not optional and key not in entry:
        raise CaseError(f"{ctx}: missing field {key!r}")
    return entry.get(key)


def _bus_id(value, ctx: str) -> int:
    """A bus id as JSON gives it: an integer (a float, string or bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CaseError(f"{ctx}: bus id must be an integer, got {value!r}")
    return value


def _num(entry: dict, key: str, ctx: str, optional: bool = False):
    val = _field(entry, key, ctx, optional)
    if val is not None and not isinstance(val, (int, float)):
        raise CaseError(f"{ctx}: field {key!r} is not a number")
    return None if val is None else float(val)


def case_from_dict(raw: dict, name: str = "case") -> GridCase:
    """Validate a parsed case file; ``name`` is its name if it gives none."""
    if not isinstance(raw, dict):
        raise CaseError(f"a case file must hold a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CaseError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    required = ["buses", "lines", "generators", "demands", "renewables", "base_mva"]
    for key in required:
        if key not in raw:
            raise CaseError(f"case file missing required key {key!r}")

    lines = [
        Line(
            from_bus=_bus_id(_field(e, "from", c), c),
            to_bus=_bus_id(_field(e, "to", c), c),
            r_pu=_num(e, "r_pu", c),
            x_pu=_num(e, "x_pu", c),
            limit_mw=_num(e, "limit_mw", c, optional=True),
        )
        for c, e in _entries(raw, "lines")
    ]
    gens = [
        Generator(
            bus=_bus_id(_field(e, "bus", c), c),
            cost=_num(e, "cost", c),
            p_min_mw=_num(e, "p_min_mw", c),
            p_max_mw=_num(e, "p_max_mw", c),
        )
        for c, e in _entries(raw, "generators")
    ]
    fixed, elastic = [], []
    for c, e in _entries(raw, "demands"):
        if _field(e, "elastic", c, optional=True):
            elastic.append(
                ElasticDemand(
                    bus=_bus_id(_field(e, "bus", c), c),
                    p_min_mw=_num(e, "p_min_mw", c),
                    p_max_mw=_num(e, "p_max_mw", c),
                )
            )
        else:
            fixed.append(
                FixedDemand(
                    bus=_bus_id(_field(e, "bus", c), c),
                    p_mw=_num(e, "p_mw", c),
                    q_mvar=_num(e, "q_mvar", c),
                )
            )
    renewables = [
        Renewable(
            bus=_bus_id(_field(e, "bus", c), c),
            forecast_mw=_num(e, "forecast_mw", c),
            deviation_kw=_num(e, "deviation_kw", c),
        )
        for c, e in _entries(raw, "renewables")
    ]
    vlim = raw.get("voltage_limits", {})
    return GridCase(
        name=raw.get("name", name),
        buses=[_bus_id(b, c) for c, b in _entries(raw, "buses")],
        lines=lines,
        generators=gens,
        fixed_demands=fixed,
        elastic_demands=elastic,
        renewables=renewables,
        base_mva=float(raw["base_mva"]),
        v_min_pu=float(vlim.get("v_min_pu", 0.90)),
        v_max_pu=float(vlim.get("v_max_pu", 1.10)),
    )


@dataclass
class ParametricLP:
    """Dense parametric LP:  min c.x  s.t.  W x <= S + T theta, theta in a box.

    Equalities of the source model appear as two opposing inequality rows;
    ``eq_pairs`` lists those (row_le, row_ge) index pairs, each row in at
    most one pair.  ``qpopf.lp`` reads them to count a fully active pair as
    one hyperplane and to swap a basis row for its partner.
    ``solver_state`` is what ``qpopf.lp`` keeps for this LP between solves;
    only that module reads or sets it, and a ``dataclasses.replace`` copy
    starts without it.
    """

    c: np.ndarray                  # (n,)
    W: np.ndarray                  # (q, n)
    S: np.ndarray                  # (q,)
    T: np.ndarray                  # (q, m)
    theta_box: np.ndarray          # (m, 2) lower/upper, normalized space
    var_names: list[str] = field(default_factory=list)
    con_names: list[str] = field(default_factory=list)
    eq_pairs: list[tuple[int, int]] = field(default_factory=list)
    solver_state: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def q(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.T.shape[1]

    def rhs(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return self.S + self.T @ theta

    def validate(self) -> None:
        n, q, m = self.n, self.q, self.m
        if self.W.shape != (q, n):
            raise ValueError(f"W shape {self.W.shape} inconsistent with c ({n})")
        if self.S.shape != (q,):
            raise ValueError(f"S shape {self.S.shape} inconsistent with W ({q} rows)")
        if self.T.shape != (q, m):
            raise ValueError(f"T shape {self.T.shape} inconsistent with W/theta")
        if self.theta_box.shape != (m, 2):
            raise ValueError("theta_box must be (m, 2)")
        if not np.all(self.theta_box[:, 0] < self.theta_box[:, 1]):
            raise ValueError("theta_box lower bounds must be strictly below uppers")
        if self.var_names and len(self.var_names) != n:
            raise ValueError("variable name table length mismatch")
        if self.con_names and len(self.con_names) != q:
            raise ValueError("constraint name table length mismatch")
        for i, j in self.eq_pairs:
            if not np.allclose(self.W[i], -self.W[j]):
                raise ValueError(f"rows {i},{j} are not an opposing pair")

    def hash_hex(self) -> str:
        """Stable content hash used to tie atlases/checkpoints to this LP."""
        h = hashlib.sha256()
        for arr in (self.c, self.W, self.S, self.T, self.theta_box):
            a = np.ascontiguousarray(arr, dtype=float)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()


def linearize(case: GridCase) -> ParametricLP:
    """Assemble the LinDistFlow LP with renewable deviations as parameters.

    Decision vector: generator outputs, elastic demands, branch active
    flows (in MW).  theta is normalized: column r of T carries the MW
    effect of a unit normalized deviation at renewable r.
    """
    if case.m == 0:
        raise DegenerateThetaError("case has no renewable units; theta is empty")
    for r in case.renewables:
        if r.deviation_kw <= 0:
            raise DegenerateThetaError(
                f"renewable at bus {r.bus}: zero-width deviation box "
                "(deviation_kw must be > 0)"
            )
    for ln in case.lines:
        if ln.r_pu == 0 and ln.x_pu == 0:
            raise CaseError(f"zero-impedance line {ln.from_bus}-{ln.to_bus}")
        if ln.limit_mw is None:
            raise CaseError(
                f"line {ln.from_bus}-{ln.to_bus}: flow variable has no limit "
                "(unbounded variable with no box constraint)"
            )

    n_g, n_d, n_l = len(case.generators), len(case.elastic_demands), len(case.lines)
    n = n_g + n_d + n_l
    var_names = (
        [f"Pg_{g.bus}_{i}" for i, g in enumerate(case.generators)]
        + [f"Pd_{d.bus}_{i}" for i, d in enumerate(case.elastic_demands)]
        + [f"Pf_{ln.from_bus}_{ln.to_bus}" for ln in case.lines]
    )
    gen_col = {i: i for i in range(n_g)}
    dem_col = {i: n_g + i for i in range(n_d)}
    flow_col = {i: n_g + n_d + i for i in range(n_l)}

    c = np.zeros(n)
    for i, g in enumerate(case.generators):
        c[gen_col[i]] = g.cost

    fixed_p = {b: 0.0 for b in case.buses}
    fixed_q = {b: 0.0 for b in case.buses}
    for d in case.fixed_demands:
        fixed_p[d.bus] += d.p_mw
        fixed_q[d.bus] += d.q_mvar
    forecast = {b: 0.0 for b in case.buses}
    for r in case.renewables:
        forecast[r.bus] += r.forecast_mw

    parents = case.tree_parents()
    line_index = {id(ln): i for i, ln in enumerate(case.lines)}

    # Reactive flow on each line is fixed by the downstream Q demands.
    # Accumulate by walking children sums bottom-up.
    children: dict[int, list[int]] = {b: [] for b in case.buses}
    for b, (p, _ln) in parents.items():
        children[p].append(b)
    order: list[int] = []
    stack = [case.root]
    while stack:
        b = stack.pop()
        order.append(b)
        stack.extend(children[b])
    q_down = {b: fixed_q[b] for b in case.buses}
    for b in reversed(order):
        for ch in children[b]:
            q_down[b] += q_down[ch]
    # q flow on the line feeding bus b (oriented parent -> b): q_down[b],
    # sign-adjusted if the case lists the line as b -> parent.
    q_flow_mvar = np.zeros(n_l)
    flow_into = {}  # bus -> (line idx, +1 if flow variable is oriented toward bus)
    for b, (p, ln) in parents.items():
        li = line_index[id(ln)]
        orient = 1.0 if ln.to_bus == b else -1.0
        q_flow_mvar[li] = orient * q_down[b]
        flow_into[b] = (li, orient)

    rows_W: list[np.ndarray] = []
    rows_S: list[float] = []
    rows_T: list[np.ndarray] = []
    con_names: list[str] = []
    eq_pairs: list[tuple[int, int]] = []
    m = case.m

    def add_row(w: np.ndarray, s: float, t: np.ndarray, name: str) -> int:
        rows_W.append(w)
        rows_S.append(s)
        rows_T.append(t)
        con_names.append(name)
        return len(rows_W) - 1

    # Power balance per bus (equality -> opposing pair):
    #   sum(gen) - sum(elastic) + sum(flows in) - sum(flows out)
    #     = fixed_p - forecast - dev(theta)
    dev_mw = np.array([r.deviation_kw / KW_PER_MW for r in case.renewables])
    for b in case.buses:
        w = np.zeros(n)
        for i, g in enumerate(case.generators):
            if g.bus == b:
                w[gen_col[i]] += 1.0
        for i, d in enumerate(case.elastic_demands):
            if d.bus == b:
                w[dem_col[i]] -= 1.0
        for i, ln in enumerate(case.lines):
            if ln.to_bus == b:
                w[flow_col[i]] += 1.0
            if ln.from_bus == b:
                w[flow_col[i]] -= 1.0
        s = fixed_p[b] - forecast[b]
        t = np.zeros(m)
        for r_idx, r in enumerate(case.renewables):
            if r.bus == b:
                t[r_idx] -= dev_mw[r_idx]
        i_le = add_row(w, s, t, f"bal_le_{b}")
        i_ge = add_row(-w, -s, -t, f"bal_ge_{b}")
        eq_pairs.append((i_le, i_ge))

    # Branch flow limits.
    for i, ln in enumerate(case.lines):
        w = np.zeros(n)
        w[flow_col[i]] = 1.0
        add_row(w, ln.limit_mw, np.zeros(m), f"flow_hi_{ln.from_bus}_{ln.to_bus}")
        add_row(-w, ln.limit_mw, np.zeros(m), f"flow_lo_{ln.from_bus}_{ln.to_bus}")

    # Generator and elastic-demand boxes.
    for i, g in enumerate(case.generators):
        w = np.zeros(n)
        w[gen_col[i]] = 1.0
        add_row(w, g.p_max_mw, np.zeros(m), f"gmax_{g.bus}_{i}")
        add_row(-w, -g.p_min_mw, np.zeros(m), f"gmin_{g.bus}_{i}")
    for i, d in enumerate(case.elastic_demands):
        w = np.zeros(n)
        w[dem_col[i]] = 1.0
        add_row(w, d.p_max_mw, np.zeros(m), f"dmax_{d.bus}_{i}")
        add_row(-w, -d.p_min_mw, np.zeros(m), f"dmin_{d.bus}_{i}")

    # LinDistFlow voltage drop: v_b = 1 - sum over the root path of
    # 2 (r P + x Q) in per unit; Q contributions are constants.
    v_lo = case.v_min_pu**2
    v_hi = case.v_max_pu**2
    for b in case.buses:
        if b == case.root:
            continue
        w = np.zeros(n)
        q_const_pu = 0.0
        node = b
        while node != case.root:
            p, ln = parents[node]
            li = line_index[id(ln)]
            orient = 1.0 if ln.to_bus == node else -1.0
            w[flow_col[li]] += 2.0 * ln.r_pu * orient / case.base_mva
            q_const_pu += 2.0 * ln.x_pu * (q_flow_mvar[li] * orient) / case.base_mva
            node = p
        # v_b = 1 - w.x - q_const_pu ; enforce v_lo <= v_b <= v_hi
        add_row(w, 1.0 - v_lo - q_const_pu, np.zeros(m), f"vlo_{b}")
        add_row(-w, v_hi - 1.0 + q_const_pu, np.zeros(m), f"vhi_{b}")

    plp = ParametricLP(
        c=c,
        W=np.vstack(rows_W),
        S=np.array(rows_S),
        T=np.vstack(rows_T),
        theta_box=np.tile(np.array([-1.0, 1.0]), (m, 1)),
        var_names=var_names,
        con_names=con_names,
        eq_pairs=eq_pairs,
    )
    plp.validate()
    return plp
