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

Every saved JSON file of the package (a case file here, an atlas in
``qpopf.regions``, a checkpoint in ``qpopf.classifier``) is read by the
rules at the end of this module: :func:`saved_field` for a field of an
object, :func:`saved_value` for its JSON kind, :func:`saved_arrays` for
finite float arrays whose named axes agree, and :func:`load_saved` for
the file, whose path leads each fault's message.  This module imports no
other package module, so every reader can use them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
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

    def tree_parents(self) -> dict[int, tuple[int, int, float]]:
        """Map bus -> (parent bus, index of the connecting line, orient).

        Buses come in breadth-first order from ``self.root``.  ``orient`` is
        +1.0 when the case lists the line parent -> bus and -1.0 when it
        lists it bus -> parent.
        """
        adj: dict[int, list[tuple[int, int, float]]] = {b: [] for b in self.buses}
        for i, ln in enumerate(self.lines):
            adj[ln.from_bus].append((ln.to_bus, i, 1.0))
            adj[ln.to_bus].append((ln.from_bus, i, -1.0))
        parents: dict[int, tuple[int, int, float]] = {}
        queue = [self.root]
        for b in queue:
            for nb, i, orient in adj[b]:
                if nb != self.root and nb not in parents:
                    parents[nb] = (b, i, orient)
                    queue.append(nb)
        return parents


def load_case(path: str | Path) -> GridCase:
    """Load and validate a case file (versioned JSON schema); a CaseError names the path."""
    return load_saved(path, lambda raw: case_from_dict(raw, name=Path(path).stem), CaseError)


def case_from_dict(raw: dict, name: str = "case") -> GridCase:
    """Validate a parsed case file; ``name`` is its name if it gives none.

    Each field is read by :func:`saved_field`: the version and bus ids
    integers, ``elastic`` a boolean, ``name`` a string, the rest finite
    numbers.  Every fault is a CaseError.
    """
    def listed(key):
        """(name, entry) of each entry of the list under ``key``, named like ``lines[2]``."""
        return [(f"{key}[{i}]", e) for i, e in enumerate(saved_field(raw, key, "case file", list))]

    number = functools.partial(saved_field, kind=float, finite=True)
    try:
        version = saved_field(raw, "schema_version", "case file", int)
        if version != SCHEMA_VERSION:
            raise CaseError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
        lines = [
            Line(
                from_bus=saved_field(e, "from", c, int),
                to_bus=saved_field(e, "to", c, int),
                r_pu=number(e, "r_pu", c),
                x_pu=number(e, "x_pu", c),
                limit_mw=number(e, "limit_mw", c, optional=True),
            )
            for c, e in listed("lines")
        ]
        gens = [
            Generator(
                bus=saved_field(e, "bus", c, int),
                cost=number(e, "cost", c),
                p_min_mw=number(e, "p_min_mw", c),
                p_max_mw=number(e, "p_max_mw", c),
            )
            for c, e in listed("generators")
        ]
        fixed, elastic = [], []
        for c, e in listed("demands"):
            if saved_field(e, "elastic", c, bool, optional=True):
                elastic.append(ElasticDemand(bus=saved_field(e, "bus", c, int),
                                             p_min_mw=number(e, "p_min_mw", c),
                                             p_max_mw=number(e, "p_max_mw", c)))
            else:
                fixed.append(FixedDemand(bus=saved_field(e, "bus", c, int),
                                         p_mw=number(e, "p_mw", c),
                                         q_mvar=number(e, "q_mvar", c)))
        renewables = [
            Renewable(
                bus=saved_field(e, "bus", c, int),
                forecast_mw=number(e, "forecast_mw", c),
                deviation_kw=number(e, "deviation_kw", c),
            )
            for c, e in listed("renewables")
        ]
        vlim = saved_field(raw, "voltage_limits", "case file", dict, optional=True) or {}
        limits = {k: number(vlim, k, "voltage_limits", optional=True)
                  for k in ("v_min_pu", "v_max_pu")}
        given = saved_field(raw, "name", "case file", str, optional=True)
        fields = dict(
            name=name if given is None else given,
            buses=[saved_value(b, int, c) for c, b in listed("buses")],
            lines=lines,
            generators=gens,
            fixed_demands=fixed,
            elastic_demands=elastic,
            renewables=renewables,
            base_mva=number(raw, "base_mva", "case file"),
            **{k: v for k, v in limits.items() if v is not None},
        )
    except ValueError as exc:
        raise CaseError(str(exc)) from exc
    return GridCase(**fields)


# -- saved JSON: case files, atlases and checkpoints ------------------------------

_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
          list: "a list", dict: "an object"}


def _found(value) -> str:
    """How a fault names the value it found: a list or an object by its type, a scalar by value."""
    return type(value).__name__ if isinstance(value, (list, dict)) else repr(value)


def saved_value(value, kind: type, name: str, finite: bool = False):
    """``value`` if a JSON file holds it as ``kind``: int, float (any number,
    returned as a float), str, bool, list or dict (an object).

    A bool is only a bool, and a float is not an int.  A number no float
    holds is refused, and with ``finite`` so are NaN and the infinities.
    The ValueError names the field ``name``.
    """
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {_found(value)}")
    if kind is not float:
        return value
    if not abs(value) <= sys.float_info.max and (finite or isinstance(value, int)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def saved_field(entry, key: str, where: str, kind: type | None = None,
                optional: bool = False, finite: bool = False):
    """``entry[key]`` of the saved JSON object ``where``, given a ``kind`` checked
    by :func:`saved_value`; None for an ``optional`` field that is absent or null.

    The ValueError names ``where`` and the field.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {_found(entry)}")
    if optional and entry.get(key) is None:
        return None
    if key not in entry:
        raise ValueError(f"{where}: missing field {key!r}")
    return entry[key] if kind is None else saved_value(entry[key], kind, f"{where}: {key}", finite)


def saved_arrays(entry, shapes: dict, where: str) -> list[np.ndarray]:
    """The fields of ``entry`` that ``shapes`` names, each a finite float array of its shape.

    A size is an int or an axis name; the first array with a named axis
    fixes its size for the arrays after it, in ``shapes`` order.  A
    float64 array is kept, not copied (training updates a model's arrays
    as views of one buffer).  The ValueError names ``where`` and the field.
    """
    sizes: dict[str, int] = {}
    arrays = []
    for key, dims in shapes.items():
        value = saved_field(entry, key, where)
        try:
            a = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: {key} is not a numeric array ({exc})") from exc
        want = tuple(sizes.get(d, d) for d in dims)
        if a.ndim != len(dims) or any(isinstance(w, int) and w != n for w, n in zip(want, a.shape)):
            raise ValueError(f"{where}: {key} must be ({', '.join(map(str, want))}), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{where}: {key} must be finite")
        sizes.update((d, n) for d, n in zip(dims, a.shape) if isinstance(d, str))
        arrays.append(a)
    return arrays


def load_saved(path: str | Path, read, error: type[ValueError] = ValueError):
    """``read`` of the JSON the file at ``path`` holds; a missing file raises FileNotFoundError.

    A ValueError, a JSON syntax error too, is raised again as ``error``
    with the path first: ``{path}: {message}``.
    """
    try:
        return read(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


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
    effect of a unit normalized deviation at renewable r.  The rows are
    five blocks of opposing pairs (w, -w), each pair two adjacent rows:
    per-bus balance (the ``eq_pairs``), branch flow limits, generator
    boxes, elastic-demand boxes and per-bus voltage limits.
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
    n, m, f0 = n_g + n_d + n_l, case.m, n_g + n_d  # f0: first flow column
    var_names = (
        [f"Pg_{g.bus}_{i}" for i, g in enumerate(case.generators)]
        + [f"Pd_{d.bus}_{i}" for i, d in enumerate(case.elastic_demands)]
        + [f"Pf_{ln.from_bus}_{ln.to_bus}" for ln in case.lines]
    )
    c = np.zeros(n)
    c[:n_g] = [g.cost for g in case.generators]

    blocks: list[list[np.ndarray]] = []
    con_names: list[str] = []

    def add_pairs(names, keys, w, s, s_second, t=None):
        """Append rows (w[k], s[k], t[k]) and (-w[k], s_second[k], -t[k]) for each k.

        They are named ``{names[0]}_{keys[k]}`` and ``{names[1]}_{keys[k]}``;
        T is +0.0 on both rows when ``t`` is None.
        """
        zeros = np.zeros((len(w), m))
        pairs = ((w, -w), (s, s_second), (zeros, zeros) if t is None else (t, -t))
        blocks.append([np.stack(p, axis=1).reshape(2 * len(w), *p[0].shape[1:]) for p in pairs])
        con_names.extend(f"{name}_{key}" for key in keys for name in names)

    # Power balance per bus (equality -> opposing pair):
    #   sum(gen) - sum(elastic) + sum(flows in) - sum(flows out)
    #     = fixed_p - forecast - dev(theta)
    pos = {b: k for k, b in enumerate(case.buses)}
    balance, balance_t = np.zeros((len(pos), n)), np.zeros((len(pos), m))
    fixed_p, fixed_q, forecast = np.zeros(len(pos)), np.zeros(len(pos)), np.zeros(len(pos))
    for i, g in enumerate(case.generators):
        balance[pos[g.bus], i] += 1.0
    for i, d in enumerate(case.elastic_demands):
        balance[pos[d.bus], n_g + i] -= 1.0
    for i, ln in enumerate(case.lines):
        balance[pos[ln.to_bus], f0 + i] += 1.0
        balance[pos[ln.from_bus], f0 + i] -= 1.0
    for d in case.fixed_demands:
        fixed_p[pos[d.bus]] += d.p_mw
        fixed_q[pos[d.bus]] += d.q_mvar
    for i, r in enumerate(case.renewables):
        forecast[pos[r.bus]] += r.forecast_mw
        balance_t[pos[r.bus], i] -= r.deviation_kw / KW_PER_MW
    s = fixed_p - forecast
    add_pairs(("bal_le", "bal_ge"), case.buses, balance, s, -s, t=balance_t)
    eq_pairs = [(2 * k, 2 * k + 1) for k in range(len(pos))]

    # Branch flow limits, then generator and elastic-demand boxes.
    eye = np.eye(n)
    limits = np.array([ln.limit_mw for ln in case.lines])
    add_pairs(("flow_hi", "flow_lo"), [f"{ln.from_bus}_{ln.to_bus}" for ln in case.lines],
              eye[f0:], limits, limits)
    add_pairs(("gmax", "gmin"), [f"{g.bus}_{i}" for i, g in enumerate(case.generators)],
              eye[:n_g], np.array([g.p_max_mw for g in case.generators]),
              -np.array([g.p_min_mw for g in case.generators]))
    add_pairs(("dmax", "dmin"), [f"{d.bus}_{i}" for i, d in enumerate(case.elastic_demands)],
              eye[n_g:f0], np.array([d.p_max_mw for d in case.elastic_demands]),
              -np.array([d.p_min_mw for d in case.elastic_demands]))

    # Reactive flow into each bus from its parent is fixed by the Q demands
    # downstream of it: each bus adds its children's sums, in child order.
    feeder = case.tree_parents()
    children: dict[int, list[int]] = {b: [] for b in case.buses}
    for b, (p, _li, _orient) in feeder.items():
        children[p].append(b)
    q_down = dict(zip(case.buses, fixed_q))
    for b in reversed([case.root, *feeder]):
        for ch in children[b]:
            q_down[b] += q_down[ch]

    # LinDistFlow voltage drop: v_b = 1 - w.x - q_const in per unit, with w.x
    # and q_const the root path's sums of 2 r P and 2 x Q (Q is constant);
    # enforce v_min^2 <= v_b <= v_max^2.
    fed = [b for b in case.buses if b != case.root]
    volt, q_const = np.zeros((len(fed), n)), np.zeros(len(fed))
    for k, b in enumerate(fed):
        node = b
        while node != case.root:
            p, li, orient = feeder[node]
            ln = case.lines[li]
            volt[k, f0 + li] += 2.0 * ln.r_pu * orient / case.base_mva
            q_const[k] += 2.0 * ln.x_pu * q_down[node] / case.base_mva
            node = p
    add_pairs(("vlo", "vhi"), fed, volt, 1.0 - case.v_min_pu**2 - q_const,
              case.v_max_pu**2 - 1.0 + q_const)

    W, S, T = (np.concatenate(part) for part in zip(*blocks))
    plp = ParametricLP(c=c, W=W, S=S, T=T, theta_box=np.tile(np.array([-1.0, 1.0]), (m, 1)),
                       var_names=var_names, con_names=con_names, eq_pairs=eq_pairs)
    plp.validate()
    return plp
