"""The three benchmark workloads and the correctness checks of every run.

A pass runs the README pipeline on ``ieee69`` as six stages: atlas,
train, dispatch, eval, sweep and audit.  Each workload runs every stage,
so every end-to-end metric is measured on every workload, but only the
stage it is named for (``atlas``: the atlas stage; ``train``: train;
``online``: dispatch, eval, sweep and audit) runs at full size on inputs
drawn from the workload seed.  The other stages run at a small fixed
size and at their README seeds, so their figures do not depend on the
seed and their artifacts are checked against the committed reference on
every run.  The train and online stages read the committed atlas and
checkpoints under ``fixtures/``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import CASE, FIXTURES, REFERENCE, WORK, canonical_artifact
from speed import clock
from tracer import Tracer

GAMMA, BETA = 0.1, 4.0                      # dispatch operating point
DISPATCH_SCENARIOS = 1000                   # >= 10 samples beyond p99
DISPATCH_EVAL_CHECK = 250                   # scenarios replayed through evaluate()
ROUNDS = 7                                  # rounds per pass (see run_pass)
SETUPS_PER_ROUND = 3                        # timed set-ups per round
GAMMA_GRID = "0,0.1,0.2,0.3,0.4,0.5"
AUDIT_BETA_GRID = "0.1,0.2,0.5,1,2,4,7,10"
SWEEP_BETA_GRID = "0.5,1,2,4,1000"
PROBE_POINTS = 20
LP_AGREEMENT_TOL = 1e-8
TRAIN_RTOL, TRAIN_ATOL = 1e-6, 1e-9         # train artifacts vs reference
TRADEOFF_SEED = 0x7AD0                      # the fixed tradeoff point set

# Stage sizes.  "full" is the size in the workload the stage belongs to;
# "mini" is the size everywhere else.  A stage runs in every "every"-th
# round of a pass, starting with the first (default 1: every round;
# ROUNDS: the first round only), and its metric is the median over the
# rounds it ran in.  Short stages run often because one short timing on
# a shared host is noisy; long ones run once or twice to keep a pass
# inside the run budget.  A "seed" entry pins the stage's seed; without
# one the stage takes the workload seed.  eval and sweep keep their
# README seed even at full size: their run time is mostly projection
# LPs, whose count swings by a quarter with the scenario seed.
SIZES = {
    "atlas": {"full": {"budget": 1000, "coverage_samples": 2048, "samples": 3000, "every": ROUNDS},
              "mini": {"budget": 1, "coverage_samples": 256, "samples": 100, "seed": 11,
                       "every": 3}},
    "train": {"full": {"vqc_samples": 1000, "vqc_epochs": 1, "mlp_samples": 3000, "mlp_epochs": 30,
                       "every": 4},
              "mini": {"vqc_samples": 40, "vqc_epochs": 1, "mlp_samples": 200, "mlp_epochs": 2,
                       "seed": 3}},
    "dispatch": {"full": {}, "mini": {"seed": 0}},
    "eval": {"full": {"scenarios": 500, "seed": 0, "every": 2},
             "mini": {"scenarios": 100, "seed": 0}},
    "sweep": {"full": {"gammas": GAMMA_GRID, "betas": SWEEP_BETA_GRID, "scenarios": 40, "seed": 0,
                       "every": 3},
              "mini": {"gammas": "0,0.5", "betas": "1,1000", "scenarios": 30, "seed": 0}},
    "audit": {"full": {"pairs": 100, "grid_pairs": 1000, "gammas": GAMMA_GRID,
                       "betas": AUDIT_BETA_GRID, "mlp_pairs": 100, "mlp_draws": 2000,
                       "tradeoff_points": 8, "every": 3},
              "mini": {"pairs": 10, "grid_pairs": 50, "gammas": "0,0.5", "betas": "1,4",
                       "mlp_pairs": 10, "mlp_draws": 200, "tradeoff_points": 1, "seed": 0}},
}
STAGES = tuple(SIZES)


@dataclass(frozen=True)
class WorkloadSpec:
    full: tuple[str, ...]       # stages that run at full size
    default_seed: int           # the README seed

    def stage(self, stage: str, seed: int) -> tuple[dict, int, bool]:
        """(size, seed, full) of one stage in this workload."""
        full = stage in self.full
        size = SIZES[stage]["full" if full else "mini"]
        return size, size.get("seed", seed), full


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "atlas": WorkloadSpec(("atlas",), 11),
    "train": WorkloadSpec(("train",), 3),
    "online": WorkloadSpec(("dispatch", "eval", "sweep", "audit"), 0),
}


@dataclass
class Outcome:
    """What one pass attempted, failed, and measured."""

    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    artifacts: list[tuple[str, bool, Path]] = field(default_factory=list)  # (stage, full, path)
    # metric -> samples; a sample is the list of clock() intervals it adds up
    times: dict[str, list[list[tuple[float, float]]]] = field(
        default_factory=lambda: defaultdict(list))
    dispatch: tuple[np.ndarray, np.ndarray] | None = None  # per-scenario (starts, ends)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += not ok
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    plp: object
    atlas: object
    vqc: object
    mlp: object
    dispatch_thetas: np.ndarray
    dispatch_labels: np.ndarray


def mod(name: str):
    """A package module, looked up at call time so tracing wrappers apply.

    ``qpopf.evaluate`` is shadowed by the function of that name in the
    package namespace, so modules are taken from ``sys.modules``.
    """
    return sys.modules[f"qpopf.{name}"]


def setup(workload: str, seed: int) -> Inputs:
    """Everything a pass reads before its first stage: case, LP, committed
    atlas and checkpoints, and the labeled dispatch scenarios."""
    grid, regions, classifier = mod("grid"), mod("regions"), mod("classifier")
    plp = grid.linearize(grid.load_case(CASE))
    atlas = regions.RegionAtlas.load(FIXTURES / "atlas.json")
    if atlas.plp_hash != plp.hash_hex():
        raise RuntimeError("committed atlas was built for a different LP")
    vqc, _ = classifier.load_model(FIXTURES / "vqc.json")
    mlp, _ = classifier.load_model(FIXTURES / "mlp.json")
    _, d_seed, _ = WORKLOADS[workload].stage("dispatch", seed)
    batch = mod("evaluate").ScenarioBatch.sample(plp.theta_box, DISPATCH_SCENARIOS, d_seed)
    labels = np.array([regions.locate_region(atlas, t) for t in batch.thetas])
    return Inputs(plp, atlas, vqc, mlp, batch.thetas, labels)


# -- CLI ----------------------------------------------------------------------


def run_cli(argv: list) -> tuple[int, str, tuple[float, float]]:
    """``qpopf.cli.main`` in process; returns exit code, output, clock() interval."""
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = mod("cli").main([str(a) for a in argv])
    return code, out.getvalue(), (t0, clock())


def _cli_ok(res: Outcome, label: str, code: int, text: str) -> bool:
    return res.check(f"{label}: exit 0", code == 0, text.strip()[-300:])


# -- stages -------------------------------------------------------------------
# Each stage appends its timed clock() intervals to res.times[<metric>] and
# returns the CLI artifacts it wrote, for the reference comparison.


@contextlib.contextmanager
def counted_lp_solves():
    """Count the enumeration's LP solves and those that fail.

    ``enumerate_regions`` skips a sample whose solve is not optimal, or
    whose degenerate basis cannot be recovered, and the ``regions`` call
    still exits 0.  Rebinding ``solve_lp`` and ``perturbed_basis`` in
    ``qpopf.regions`` for the call makes each skip a failed operation.
    """
    regions = mod("regions")
    solve, recover = regions.solve_lp, regions.perturbed_basis
    n = {"solves": 0, "failed": 0}

    def counted_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        n["solves"] += 1
        n["failed"] += not sol.is_optimal
        return sol

    def counted_recover(*args, **kwargs):
        basis = recover(*args, **kwargs)
        n["failed"] += basis is None
        return basis

    regions.solve_lp, regions.perturbed_basis = counted_solve, counted_recover
    try:
        yield n
    finally:
        regions.solve_lp, regions.perturbed_basis = solve, recover


def stage_atlas(inp: Inputs, res: Outcome, out: Path, seed: int, size: dict) -> list[Path]:
    regions = mod("regions")
    budget, samples = size["budget"], size["samples"]
    t0 = clock()
    with counted_lp_solves() as lp_solves:
        code, text, _ = run_cli(["regions", "--case", CASE, "--budget", budget, "--seed", seed,
                                 "--coverage-samples", size["coverage_samples"],
                                 "--out-dir", out, "--out", "atlas.json"])
    if code == 0:
        atlas = regions.RegionAtlas.load(out / "atlas.json")
        _, labels = regions.sample_labeled_dataset(atlas, samples, seed=seed)
    res.times["atlas_s"].append([(t0, clock())])
    if not _cli_ok(res, "regions", code, text):
        res.ops(budget + samples, budget + samples)
        return []
    res.ops(lp_solves["solves"] + samples, lp_solves["failed"])
    res.check("atlas: one LP solve per sample", lp_solves["solves"] == budget,
              f"{lp_solves['solves']} solves for budget {budget}")
    res.check("atlas: labels in 1..K", labels.min() >= 1 and labels.max() <= atlas.K)
    with res.tracer.paused():
        _check_probes(inp, res, atlas, seed)
    return [out / "atlas.json"]


def _check_probes(inp: Inputs, res: Outcome, atlas, seed: int) -> None:
    """The atlas agrees with a fresh LP solve on probe points."""
    lp, regions = mod("lp"), mod("regions")
    rng = np.random.default_rng([seed, 0xA71A5])
    probes = rng.uniform(-1.0, 1.0, size=(PROBE_POINTS, inp.plp.m))
    basis_to_id = {r.active_set: r.id for r in atlas.regions}
    bad = covered = 0
    for theta in probes:
        try:
            k = regions.locate_region(atlas, theta)
        except regions.UncoveredThetaError:
            continue
        covered += 1
        sol = lp.solve_lp(inp.plp, theta)
        gap = abs(float(inp.plp.c @ atlas.region(k).solution(theta)) - sol.objective)
        same = sol.status != "optimal" or basis_to_id.get(tuple(sol.basis), k) == k
        bad += not (sol.is_optimal and gap <= LP_AGREEMENT_TOL * max(1.0, abs(sol.objective))
                    and same)
    res.ops(covered, bad)
    res.check("atlas: agrees with solve_lp on probes", bad == 0 and covered > 0,
              f"{bad} of {covered} covered probes disagree")


def stage_train(inp: Inputs, res: Outcome, out: Path, seed: int, size: dict) -> list[Path]:
    regions, classifier = mod("regions"), mod("classifier")
    base = ["train", "--case", CASE, "--atlas", FIXTURES / "atlas.json", "--seed", seed,
            "--out-dir", out]
    spans = []
    artifacts = []
    for kind in ("vqc", "mlp"):
        samples, epochs = size[f"{kind}_samples"], size[f"{kind}_epochs"]
        code, text, span = run_cli(base + ["--model", kind, "--samples", samples,
                                         "--epochs", epochs, "--out", f"{kind}.json"])
        spans.append(span)
        n_test = int(round(0.2 * samples))
        steps = math.ceil((samples - n_test) / 32) * epochs
        res.ops(steps, 0 if code == 0 else steps)
        if not _cli_ok(res, f"train {kind}", code, text):
            continue
        artifacts += [out / f"{kind}.json", out / f"{kind}.log.csv"]
        # the checkpoint reproduces the test accuracy logged for the kept epoch
        log = _read_log(out / f"{kind}.log.csv")
        best = min(log, key=lambda r: (-r["train_accuracy"], r["loss"]))
        with res.tracer.paused():
            model, _ = classifier.load_model(out / f"{kind}.json")
            thetas, labels = regions.sample_labeled_dataset(inp.atlas, samples, seed=seed)
            acc = classifier.argmax_accuracy(model, thetas[-n_test:], labels[-n_test:])
        res.check(f"train {kind}: losses finite", all(math.isfinite(r["loss"]) for r in log))
        res.check(f"train {kind}: checkpoint reproduces logged test accuracy",
                  acc == best["test_accuracy"], f"{acc} vs {best['test_accuracy']}")
    res.times["train_s"].append(spans)
    return artifacts


class DispatchLoop:
    """Per-scenario release: probabilities -> sample -> reconstruct -> project.

    The scenarios run in chunks spread over the pass, so the latency
    percentiles sample the whole pass rather than one stretch of it.
    One generator serves all chunks, so the draws are those of a single
    ``evaluate`` call on the same batch and seed.
    """

    def __init__(self, inp: Inputs, seed: int):
        n = len(inp.dispatch_thetas)
        self.inp, self.seed = inp, seed
        self.rng = np.random.default_rng(seed)
        self.start = np.full(n, np.nan)
        self.end = np.full(n, np.nan)
        self.picks = np.zeros(n, dtype=int)
        self.projected = np.zeros(n, dtype=bool)
        self.viol = np.zeros(n)

    def run(self, indices: np.ndarray) -> None:
        lp, regions, classifier = mod("lp"), mod("regions"), mod("classifier")
        plp, atlas, model = self.inp.plp, self.inp.atlas, self.inp.vqc
        threshold = mod("evaluate").FEASIBILITY_THRESHOLD
        for i in indices:
            theta = self.inp.dispatch_thetas[i]
            t0 = clock()
            p = model.probability_matrix(theta[None, :], GAMMA, BETA)[0]
            k = classifier.sample_region(p, self.rng)
            x = regions.reconstruct_solution(atlas, k, theta)
            rhs = plp.rhs(theta)
            if float(np.max(plp.W @ x - rhs, initial=0.0)) > threshold:
                self.projected[i] = True
                x = lp.project_feasible(x, plp, theta)
            self.start[i], self.end[i] = t0, clock()
            self.picks[i] = k
            self.viol[i] = float(np.max(plp.W @ x - rhs, initial=0.0))

    def finish(self, res: Outcome) -> None:
        evaluate = mod("evaluate")
        n = len(self.end)
        res.dispatch = (self.start, self.end)
        infeasible_x = int(np.sum(self.viol > evaluate.FEASIBILITY_THRESHOLD))
        res.ops(n, infeasible_x + int(np.isnan(self.end).sum()))
        res.check("dispatch: every dispatched x is feasible", infeasible_x == 0,
                  f"{infeasible_x} of {n} above {evaluate.FEASIBILITY_THRESHOLD}")
        # evaluate() on the same scenarios and seed draws the same regions
        m = DISPATCH_EVAL_CHECK
        with res.tracer.paused():
            batch = evaluate.ScenarioBatch(self.inp.dispatch_thetas[:m], self.seed)
            report = evaluate.evaluate(self.inp.vqc, self.inp.atlas, self.inp.plp, batch,
                                       GAMMA, BETA, np.random.default_rng(self.seed))
        rate = int(self.projected[:m].sum()) / m
        acc = int(np.sum(self.picks[:m] == self.inp.dispatch_labels[:m])) / m
        res.check("dispatch reproduces evaluate's infeasibility rate",
                  rate == report.infeasibility_rate, f"{rate} vs {report.infeasibility_rate}")
        res.check("dispatch reproduces evaluate's accuracy",
                  acc == report.stochastic_accuracy, f"{acc} vs {report.stochastic_accuracy}")


def stage_eval(inp: Inputs, res: Outcome, out: Path, seed: int, size: dict) -> list[Path]:
    n = size["scenarios"]
    code, text, span = run_cli(["eval", "--case", CASE, "--atlas", FIXTURES / "atlas.json",
                              "--model", FIXTURES / "vqc.json", "--gamma", GAMMA, "--beta", BETA,
                              "--scenarios", n, "--seed", seed, "--out-dir", out])
    res.times["eval_s"].append([span])
    res.ops(n, 0 if code == 0 else n)
    return [out / "metrics.json"] if _cli_ok(res, "eval", code, text) else []


def stage_sweep(inp: Inputs, res: Outcome, out: Path, seed: int, size: dict) -> list[Path]:
    cells = len(size["gammas"].split(",")) * len(size["betas"].split(","))
    n = cells * size["scenarios"]
    code, text, span = run_cli(["sweep", "--case", CASE, "--atlas", FIXTURES / "atlas.json",
                              "--model", FIXTURES / "vqc.json", "--gamma-grid", size["gammas"],
                              "--beta-grid", size["betas"], "--scenarios", size["scenarios"],
                              "--seed", seed, "--out-dir", out])
    res.times["sweep_s"].append([span])
    res.ops(n, 0 if code == 0 else n)
    if not _cli_ok(res, "sweep", code, text):
        return []
    rows = list(csv.DictReader(_csv_body(out / "heatmap.csv")))
    res.check("sweep: one row per cell", len(rows) == cells)
    return [out / "heatmap.csv"]


def stage_audit(inp: Inputs, res: Outcome, out: Path, seed: int, size: dict) -> list[Path]:
    privacy = mod("privacy")
    common = ["--case", CASE, "--atlas", FIXTURES / "atlas.json", "--seed", seed, "--out-dir", out]
    vqc = ["--model", FIXTURES / "vqc.json"]
    calls = [
        ("single", ["audit", *common, *vqc, "--gamma", 0.0, "--beta", 1.0,
                    "--pairs", size["pairs"], "--out", "privacy.json"], size["pairs"]),
        ("grid", ["audit", *common, *vqc, "--gamma-grid", size["gammas"],
                  "--beta-grid", size["betas"], "--pairs", size["grid_pairs"],
                  "--out", "audit_sweep.csv"], size["grid_pairs"]),
        ("mlp", ["audit", *common, "--model", FIXTURES / "mlp.json", "--beta", 1.0,
                 "--mlp-sigma", 0.5, "--mlp-draws", size["mlp_draws"],
                 "--pairs", size["mlp_pairs"], "--out", "privacy_mlp.json"], size["mlp_pairs"]),
    ]
    spans = []
    artifacts, texts = [], {}
    for label, argv, pairs in calls:
        code, text, span = run_cli(argv)
        spans.append(span)
        res.ops(pairs, 0 if code == 0 else pairs)
        if _cli_ok(res, f"audit {label}", code, text):
            artifacts.append(out / argv[argv.index("--out") + 1])
            texts[label] = text
    # the tradeoff point set is fixed: its projection count does not follow the seed
    rng = np.random.default_rng(TRADEOFF_SEED)
    points = rng.uniform(-1.0, 1.0, size=(size["tradeoff_points"], inp.plp.m))
    t0 = clock()
    bounds = [privacy.tradeoff_bound(inp.vqc, inp.atlas, inp.plp, t, GAMMA, BETA, 0.05)[0]
              for t in points]
    spans.append((t0, clock()))
    res.times["audit_s"].append(spans)
    res.ops(len(points))
    res.check("tradeoff bounds finite and >= 0", all(math.isfinite(b) and b >= 0 for b in bounds))
    if "grid" in texts:
        res.check("audit grid: bound_satisfied",
                  re.search(r"bound_satisfied=True", texts["grid"]) is not None,
                  texts["grid"].strip())
    if "single" in texts:
        report = json.loads((out / "privacy.json").read_text())["result"]
        res.check("audit single: bound_satisfied", report["bound_satisfied"] is True)
    return artifacts


STAGE_FUNCS = {"atlas": stage_atlas, "train": stage_train, "eval": stage_eval,
               "sweep": stage_sweep, "audit": stage_audit}


# -- reference comparison -----------------------------------------------------


def _csv_body(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _read_log(path: Path) -> list[dict]:
    return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(_csv_body(path))]


def _close(ref, got, rtol: float, atol: float) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() == got.keys() and all(
            _close(ref[k], got[k], rtol, atol) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            _close(a, b, rtol, atol) for a, b in zip(ref, got))
    if isinstance(ref, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and abs(got - ref) <= atol + rtol * abs(ref)
    return ref == got


def _train_log_close(ref: Path, got: Path, n_train: int, n_test: int) -> bool:
    """Loss within the train tolerance; accuracies within one sample of their split."""
    a, b = ref.read_text().splitlines(), got.read_text().splitlines()
    if len(a) != len(b) or a[:2] != b[:2]:  # provenance comment and header
        return False
    for (ea, la, tra, tea), (eb, lb, trb, teb) in zip(csv.reader(a[2:]), csv.reader(b[2:])):
        if ea != eb or abs(float(la) - float(lb)) > TRAIN_ATOL + TRAIN_RTOL * abs(float(la)):
            return False
        if abs(float(tra) - float(trb)) > 1.0 / n_train + 1e-12:
            return False
        if abs(float(tea) - float(teb)) > 1.0 / n_test + 1e-12:
            return False
    return True


def reference_path(stage: str, full: bool, name: str) -> Path:
    return REFERENCE / stage / ("full" if full else "mini") / name


def compare_reference(res: Outcome, stage: str, full: bool, artifacts: list[Path],
                      size: dict) -> None:
    """Artifacts equal the reference outside ``timing`` (train: within tolerance)."""
    for path in artifacts:
        ref = reference_path(stage, full, path.name)
        if not ref.is_file():
            res.check(f"reference {ref.relative_to(REFERENCE)} exists", False)
            continue
        if stage != "train":
            ok = canonical_artifact(path) == ref.read_bytes()
        elif path.suffix == ".json":
            ok = _close(json.loads(ref.read_text()), json.loads(canonical_artifact(path)),
                        TRAIN_RTOL, TRAIN_ATOL)
        else:
            samples = size["vqc_samples" if path.name.startswith("vqc") else "mlp_samples"]
            n_test = int(round(0.2 * samples))
            ok = _train_log_close(ref, path, samples - n_test, n_test)
        res.check(f"matches reference {ref.relative_to(REFERENCE)}", ok)


# -- one pass -----------------------------------------------------------------


def run_pass(workload: str, seed: int, tracer: Tracer, check_reference: bool = True,
             timed_setups: bool = True) -> Outcome:
    """ROUNDS rounds; each runs one chunk of the dispatch loop and the
    stages due in that round (see SIZES).

    With ``timed_setups`` every round begins with SETUPS_PER_ROUND
    timed set-ups, so ``setup_s`` is sampled across the pass like every
    other metric; all set-ups build the same inputs, and the stages use
    one from the first round.  Without it the pass sets up once.
    """
    spec = WORKLOADS[workload]
    res = Outcome(tracer=tracer)
    for r in range(ROUNDS):
        n_setups = SETUPS_PER_ROUND if timed_setups else int(r == 0)
        for _ in range(n_setups):
            t0 = clock()
            with tracer.span("bench.setup"):
                fresh = setup(workload, seed)
            res.times["setup_s"].append([(t0, clock())])
        if r == 0:
            inp = fresh
            loop = DispatchLoop(inp, spec.stage("dispatch", seed)[1])
            chunks = np.array_split(np.arange(len(inp.dispatch_thetas)), ROUNDS)
        for stage in STAGES:
            if stage == "dispatch":
                with tracer.span("bench.dispatch"):
                    loop.run(chunks[r])
                continue
            size, stage_seed, full = spec.stage(stage, seed)
            every = size.get("every", 1)
            if r % every:
                continue
            out = WORK / workload / stage
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            with tracer.span(f"bench.{stage}"):
                artifacts = STAGE_FUNCS[stage](inp, res, out, stage_seed, size)
            res.artifacts += [(stage, full, p) for p in artifacts]
            if check_reference and ("seed" in size or seed == spec.default_seed):
                with tracer.paused():
                    compare_reference(res, stage, full, artifacts, size)
    with tracer.span("bench.dispatch"):
        loop.finish(res)
    return res
