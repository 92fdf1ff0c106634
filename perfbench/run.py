"""Benchmark of the qpopf README pipeline on the shipped ieee69 case.

    python3 perfbench/run.py --workload atlas|train|online \\
        [--seed N] [--seconds S] [--trace 0|1]

One process, one closed-loop caller.  The untraced run repeats whole
passes (see ``workloads.py``) while another would fit in ``--seconds``
(at least one), and reports each end-to-end metric as the median over
passes; ``setup_s`` is the median of every set-up timed in them.  Every
time is scaled to the reference CPU speed of ``speed.py``, probed while
the run goes; ``peak_rss_mb`` is not scaled.  The
traced run (``--trace 1``) runs one pass with every public function of
the package wrapped in a span and reports the per-layer metrics, plus its own
end-to-end values as ``trace.e2e.<metric>``: minus an untraced run at
the same seed, they give the tracing overhead.  The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

from common import (  # pins BLAS threads and malloc thresholds
    FIXTURES, MALLOC_PINNED, MissingSourceError, import_qpopf, sha256_file)

import numpy as np  # noqa: E402  (after the thread pinning above)
from speed import at_reference, clock, probes, probing  # noqa: E402
from tracer import BENCH, LAYERS, Tracer, layer_of  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "atlas_s": "s",
    "train_s": "s",
    "dispatch_us_p50": "us",
    "dispatch_us_p99": "us",
    "eval_s": "s",
    "sweep_s": "s",
    "audit_s": "s",
}
TIMED = [m for m in E2E_UNITS if m not in ("setup_s", "peak_rss_mb")]
CLI_COMMANDS = ("regions", "train", "audit", "eval", "sweep")


class FixtureError(RuntimeError):
    """A committed input or reference file is missing or altered."""


def verify_fixtures() -> None:
    sums = FIXTURES / "SHA256SUMS"
    if not sums.is_file():
        raise FixtureError(f"missing {sums}")
    for line in sums.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        path = FIXTURES / name
        if not path.is_file() or sha256_file(path) != digest:
            raise FixtureError(f"fixture {name} is missing or does not match SHA256SUMS")


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


def sample_s(sample) -> float:
    """Seconds of one sample (a list of clock() intervals) at the reference speed."""
    starts, ends = zip(*sample)
    return float(at_reference(starts, ends).sum())


def pass_metrics(res) -> dict[str, float]:
    starts, ends = res.dispatch
    done = np.isfinite(ends)
    lat_us = at_reference(starts[done], ends[done]) * 1e6
    return {
        **{k: median([sample_s(s) for s in res.times[k]])
           for k in ("atlas_s", "train_s", "eval_s", "sweep_s", "audit_s")},
        "dispatch_us_p50": float(np.percentile(lat_us, 50)),
        "dispatch_us_p99": float(np.percentile(lat_us, 99)),
    }


# -- per-layer metrics from a traced pass -------------------------------------


def _amp_updates(config, n_states: int) -> int:
    """Amplitude updates of one circuit run: states x gates x 2**n_q.

    Per layer: n_q encoding rotations, n_q trainable gates and n_q - 1
    CNOTs, each touching every amplitude once.
    """
    gates = config.L * (3 * config.n_q - 1)
    return n_states * gates * config.dim


def _on_solve_lp(tr, args, kwargs, sol):
    if sol.basis is not None:
        tr.sets["bases"].add(tuple(sol.basis))


def _on_run_circuit_batch(tr, args, kwargs, states):
    tr.count("circuit.amp_updates", _amp_updates(args[0], states.shape[0]))


def _on_feature_jacobian(tr, args, kwargs, jac):
    config, params = args[0], args[1]
    tr.count("circuit.amp_updates", _amp_updates(config, 2 * params.phi.size * jac.shape[0]))


def _on_project_feasible(tr, args, kwargs, x):
    key = (np.asarray(args[0], float).tobytes(), np.asarray(args[2], float).tobytes())
    if key in tr.sets["projections"]:
        tr.count("lp.project_feasible.repeats")
    tr.sets["projections"].add(key)
    if tr.inside("evaluate.evaluate"):
        tr.count("evaluate.projections")


HOOKS = {
    "lp.solve_lp": _on_solve_lp,
    "circuit.run_circuit_batch": _on_run_circuit_batch,
    "circuit.feature_jacobian": _on_feature_jacobian,
    "lp.project_feasible": _on_project_feasible,
    "evaluate.evaluate": lambda tr, a, k, report: tr.count("evaluate.scenarios", report.sample_count),
    "privacy.audit_mechanism": lambda tr, a, k, report: tr.count("privacy.pairs", len(report.eps_emp)),
}


def layer_metrics(tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    summ = tracer.summary()

    def get(name, key, default=0.0):
        return summ[name][key] if name in summ else default

    def p50(name, scale):
        return float(np.median(summ[name]["durations"])) * scale if name in summ else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    solves = get("lp.solve_lp", "calls", 0)
    projections = get("lp.project_feasible", "calls", 0)
    pairs = c["privacy.pairs"]
    mech_calls = get("privacy.probabilities", "calls", 0)
    spans = tracer.spans
    highs_in_solve = sum(s.end - s.start for s in spans
                         if s.name == "lp.highs" and s.parent >= 0
                         and spans[s.parent].name == "lp.solve_lp")
    out = {
        "lp.solve_lp.calls": (solves, "count"),
        "lp.solve_lp.s": (get("lp.solve_lp", "s"), "s"),
        "lp.solve_lp.self_s": (get("lp.solve_lp", "self_s"), "s"),
        "lp.solve_lp.highs_s": (highs_in_solve, "s"),
        "lp.highs.s": (get("lp.highs", "s"), "s"),
        "lp.highs.calls": (get("lp.highs", "calls", 0), "count"),
        "regions.distinct_bases": (len(tracer.sets["bases"]), "count"),
        "regions.basis_yield": (ratio(len(tracer.sets["bases"]), solves), "ratio"),
        "regions.enumerate_regions.s": (get("regions.enumerate_regions", "s"), "s"),
        "regions.region_polyhedron.s": (get("regions.region_polyhedron", "s"), "s"),
        "lp.solve_raw.calls": (get("lp.solve_raw", "calls", 0), "count"),
        "regions.locate_region.calls": (get("regions.locate_region", "calls", 0), "count"),
        "regions.locate_region.us_p50": (p50("regions.locate_region", 1e6), "us"),
        "regions.uncovered": (c["regions.locate_region.raised"], "count"),
        "circuit.feature_jacobian.s": (get("circuit.feature_jacobian", "s"), "s"),
        "circuit.feature_jacobian.calls": (get("circuit.feature_jacobian", "calls", 0), "count"),
        "circuit.amp_updates": (c["circuit.amp_updates"], "count"),
        "circuit.run_circuit_batch.calls": (get("circuit.run_circuit_batch", "calls", 0), "count"),
        "circuit.run_circuit_batch.s": (get("circuit.run_circuit_batch", "s"), "s"),
        "circuit.run_circuit_batch.ms_p50": (p50("circuit.run_circuit_batch", 1e3), "ms"),
        "classifier.probability_matrix.s": (get("classifier.probability_matrix", "s"), "s"),
        "classifier.argmax_accuracy.s": (get("classifier.argmax_accuracy", "s"), "s"),
        "classifier.train_vqc.s": (get("classifier.train_vqc", "s"), "s"),
        "classifier.train_mlp.s": (get("classifier.train_mlp", "s"), "s"),
        "lp.project_feasible.calls": (projections, "count"),
        "lp.project_feasible.repeats": (c["lp.project_feasible.repeats"], "count"),
        "lp.project_feasible.ms_p50": (p50("lp.project_feasible", 1e3), "ms"),
        "evaluate.scenarios": (c["evaluate.scenarios"], "count"),
        "evaluate.projections": (c["evaluate.projections"], "count"),
        "evaluate.projection_rate": (ratio(c["evaluate.projections"], c["evaluate.scenarios"]), "ratio"),
        "evaluate.projection_repeat_ratio": (ratio(c["lp.project_feasible.repeats"], projections), "ratio"),
        "evaluate.evaluate.self_s": (get("evaluate.evaluate", "self_s"), "s"),
        "privacy.audit_mechanism.s": (get("privacy.audit_mechanism", "s"), "s"),
        "privacy.pairs": (pairs, "count"),
        "privacy.mech_probabilities.calls": (mech_calls, "count"),
        "privacy.mech_calls_per_pair": (ratio(mech_calls, pairs), "ratio"),
        "privacy.audit_vqc_grid.s": (get("privacy.audit_vqc_grid", "s"), "s"),
        "privacy.tradeoff_bound.s": (get("privacy.tradeoff_bound", "s"), "s"),
        "grid.hash_hex.calls": (get("grid.hash_hex", "calls", 0), "count"),
        "grid.linearize.s": (get("grid.linearize", "s"), "s"),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = (get(f"cli.{cmd}", "self_s"), "s")
    layer_self = dict.fromkeys((*LAYERS, BENCH), 0.0)
    for name, e in summ.items():
        layer_self[layer_of(name)] += e["self_s"]
    for layer, s in layer_self.items():
        out[f"layer.{layer}.self_s"] = (s, "s")
    out["bench.check.s"] = (get("bench.check", "s"), "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.layers_share"] = (ratio(sum(layer_self[l] for l in LAYERS), wall_s), "ratio")
    out["trace.accounted_share"] = (ratio(sum(layer_self.values()), wall_s), "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["bench.speed_ratio"] = (float(np.mean(probes()[1])), "ratio")
    return out


# -- entry point --------------------------------------------------------------


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "malloc_pinned": MALLOC_PINNED,
    }


def run_untraced(workload: str, seed: int, seconds: float):
    """Passes while another would fit in ``seconds`` (at least one).

    A pass can take up to half as long again as the one before it when
    the host slows down, so the next pass counts as fitting only if one
    and a half times the last one's length does.
    """
    passes = []
    start = time.perf_counter()
    with probing():
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(workload, seed, Tracer()))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + 1.5 * last > seconds:
                break
    per_pass = [pass_metrics(r) for r in passes]
    values = {m: median([p[m] for p in per_pass]) for m in TIMED}
    values["setup_s"] = median([sample_s(s) for r in passes for s in r.times["setup_s"]])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, {m: (values[m], unit) for m, unit in E2E_UNITS.items()}


def run_traced(workload: str, seed: int):
    """One pass, set-up included, with every public function of the package in a span."""
    tracer = Tracer()
    tracer.install(HOOKS)
    tracer.active = True
    with probing():
        t0 = clock()
        with tracer.span("bench.pass"):
            res = run_pass(workload, seed, tracer, timed_setups=False)
        wall = clock() - t0
    tracer.active = False
    tracer.uninstall()
    metrics = layer_metrics(tracer, wall)
    for m, v in pass_metrics(res).items():
        metrics[f"trace.e2e.{m}"] = (v, E2E_UNITS[m])
    return [res], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the README seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_qpopf()
        verify_fixtures()
    except (MissingSourceError, FixtureError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if args.trace:
        outcomes, metrics = run_traced(args.workload, seed)
    else:
        outcomes, metrics = run_untraced(args.workload, seed, args.seconds)
    checks = [c for o in outcomes for c in o.checks]
    failed = sum(o.failed for o in outcomes)  # failed checks count as failed operations
    result = {
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload={args.workload} seed={seed} trace={args.trace} "
          f"passes={len(outcomes)} checks={len(checks)}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED check: {name} {detail}")
    ratio = probes()[1]
    print(f"speed: {ratio.size} probes, ratio to the reference p10/p50/p90 = "
          + "/".join(f"{q:.3f}" for q in np.percentile(ratio, [10, 50, 90])))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
