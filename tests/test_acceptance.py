"""Acceptance suite: one test per release criterion, each printing a
PASS line and enforcing its runtime budget.  Run with `pytest -v -s
tests/test_acceptance.py`."""

import json
import time

import numpy as np

from qpopf.circuit import (
    CircuitConfig,
    VqcParams,
    run_circuit_batch,
    z_expectations,
)
from qpopf.classifier import argmax_accuracy, softmax_probs
from qpopf.evaluate import ScenarioBatch, evaluate, qubit_budget, runtime_model, sweep
from qpopf.lp import solve_lp
from qpopf.privacy import (
    AdjacencySpec,
    audit_mechanism,
    audit_vqc_grid,
    calibrate_sigma,
    cost_tradeoff_formula,
    delta_j_all,
    draw_adjacent_pairs,
    margin_from_logits,
)
from qpopf.regions import enumerate_regions, locate_region
from tests.circuit_oracle import param_shift_grad
from tests.conftest import make_toy_plp

GAMMAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
BETAS = list(np.geomspace(0.1, 10.0, 8))


def report(name: str, elapsed: float, budget: float | None = None) -> None:
    extra = f" ({elapsed:.1f}s" + (f" / budget {budget:.0f}s)" if budget else ")")
    print(f"\nACCEPTANCE {name}: PASS{extra}")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_comparative_ordering(atlas69, plp69, dataset69, vqc69, mlp69):
    """Both classifiers reach 90%; at matched eps95 targets the quantum
    model has a lower cost gap, infeasibility rate and prediction error
    (MAE) than the sigma-calibrated MLP; noise-free eps95 is lower."""
    t0 = time.perf_counter()
    train, test = dataset69

    # (a) accuracy gate
    acc_vqc = argmax_accuracy(vqc69, *test)
    acc_mlp = argmax_accuracy(mlp69, *test)
    assert acc_vqc >= 0.90, f"vqc test accuracy {acc_vqc:.4f}"
    assert acc_mlp >= 0.90, f"mlp test accuracy {acc_mlp:.4f}"

    # (c) noise-free privacy comparison at gamma=0, beta=1
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=100, seed=41)
    pairs = draw_adjacent_pairs(adjacency, plp69.m)
    eps_vqc0 = audit_mechanism(vqc69, 0.0, 1.0, pairs).eps95
    eps_mlp0 = audit_mechanism(mlp69, None, 1.0, pairs).eps95
    assert eps_vqc0 < eps_mlp0, f"vqc {eps_vqc0:.3f} !< mlp {eps_mlp0:.3f}"

    # (b) three matched targets: vqc at (gamma, beta=1), mlp sigma-calibrated
    batch = ScenarioBatch.sample(plp69.theta_box, 1000, seed=97)
    for gamma in (0.0, 0.2, 0.4):
        target = audit_mechanism(vqc69, gamma, 1.0, pairs).eps95
        sigma = calibrate_sigma(mlp69, target, adjacency, beta=1.0)
        mlp_noisy = type(mlp69)(
            W1=mlp69.W1, b1=mlp69.b1, W2=mlp69.W2, b2=mlp69.b2,
            W_head=mlp69.W_head, beta=mlp69.beta, sigma=sigma,
        )
        rep_vqc = evaluate(
            vqc69, atlas69, plp69, batch, gamma=gamma, beta=1.0,
            rng=np.random.default_rng(5),
        )
        rep_mlp = evaluate(
            mlp_noisy, atlas69, plp69, batch, gamma=0.0, beta=1.0,
            rng=np.random.default_rng(5),
        )
        assert rep_vqc.cost_gap < rep_mlp.cost_gap, (
            f"target {target:.2f}: cost gap vqc {rep_vqc.cost_gap:.4f} "
            f"!< mlp {rep_mlp.cost_gap:.4f} (sigma={sigma:.3f})"
        )
        assert rep_vqc.infeasibility_rate < rep_mlp.infeasibility_rate, (
            f"target {target:.2f}: infeasibility vqc "
            f"{rep_vqc.infeasibility_rate:.4f} !< mlp "
            f"{rep_mlp.infeasibility_rate:.4f} (sigma={sigma:.3f})"
        )
        assert rep_vqc.mae < rep_mlp.mae, (
            f"target {target:.2f}: mae vqc {rep_vqc.mae:.3e} !< mlp {rep_mlp.mae:.3e} "
            f"(sigma={sigma:.3f})"
        )
    report("comparative-ordering", time.perf_counter() - t0, 1800)


def test_depolarizing_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    gammas = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        probs = np.abs(amps) ** 2
        h0 = z_expectations(amps, 5)
        for g in gammas:
            # Z expectations of (1-g) |psi><psi| + g I/32 from its diagonal
            mixed = z_expectations(np.sqrt((1 - g) * probs + g / 32), 5)
            worst = max(worst, float(np.max(np.abs(mixed - (1 - g) * h0))))
    assert worst <= 1e-12, f"max contraction error {worst:.2e}"
    report("depolarizing-contraction", time.perf_counter() - t0, 5)


def test_parameter_shift_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    config = CircuitConfig.default(n_q=3, L=2, m=3)
    step = 1e-5
    for _ in range(20):
        params = VqcParams.random_init(config, rng)
        theta = rng.uniform(-1, 1, 3)
        w = rng.normal(size=3)
        loss = lambda h, w=w: float(w @ h)
        grad = param_shift_grad(config, params, theta, loss)
        fd = np.zeros_like(params.phi)
        for idx in np.ndindex(params.phi.shape):
            up, dn = params.copy(), params.copy()
            up.phi[idx] += step
            dn.phi[idx] -= step
            fd[idx] = (
                loss(z_expectations(run_circuit_batch(config, up, theta), 3)[0])
                - loss(z_expectations(run_circuit_batch(config, dn, theta), 3)[0])
            ) / (2 * step)
        np.testing.assert_allclose(grad, fd, atol=1e-6)
    report("parameter-shift", time.perf_counter() - t0, 10)


def test_mplp_oracle_equivalence(atlas69, plp69):
    t0 = time.perf_counter()
    toy_atlas = enumerate_regions(make_toy_plp(), sampling_budget=100, seed=7)
    assert toy_atlas.K == 2
    maps = sorted((float(r.F[0, 0]), float(r.f[0])) for r in toy_atlas.regions)
    assert maps == [(0.0, 0.0), (1.0, 0.0)]

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-1, 1, 3)
        k = locate_region(atlas69, theta)
        approx = float(plp69.c @ atlas69.region(k).solution(theta))
        exact = solve_lp(plp69, theta).objective
        worst = max(worst, abs(approx - exact))
    assert worst <= 1e-8, f"worst objective gap {worst:.2e}"
    report("mplp-oracle-equivalence", time.perf_counter() - t0, 60)


def test_theorem1_soundness(vqc69, atlas69):
    t0 = time.perf_counter()
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=1000, seed=23)
    rows = audit_vqc_grid(vqc69, GAMMAS, BETAS, adjacency, atlas69)
    assert len(rows) == 48
    violations = [r for r in rows if r["eps_max"] > r["eps_reg"] + 1e-12]
    assert not violations, f"bound violated at {violations[:3]}"
    report("theorem1-soundness", time.perf_counter() - t0, 300)


def test_theorem2_soundness(vqc69, atlas69, plp69):
    t0 = time.perf_counter()
    gamma, beta = 0.1, 1.0
    rng = np.random.default_rng(31)
    checked = 0
    draws_rng = np.random.default_rng(77)
    while checked < 100:
        theta = rng.uniform(-1, 1, 3)
        k_star = locate_region(atlas69, theta)
        s = vqc69.logits_from_base(vqc69.base_scores(theta[None, :]), gamma)[0]
        m = margin_from_logits(s, k_star)
        if m <= 0:
            continue
        deltas = delta_j_all(atlas69, plp69, theta, k_star)
        others = np.delete(deltas, k_star - 1)
        bound = cost_tradeoff_formula(float(np.max(others)), atlas69.K, beta, m)
        probs = softmax_probs(s, beta)
        sampled = deltas[draws_rng.choice(atlas69.K, size=10_000, p=probs)]
        se = sampled.std(ddof=1) / np.sqrt(sampled.size)
        assert sampled.mean() <= bound + 3 * se + 1e-12, (
            f"E[dJ]={sampled.mean():.4g} > bound={bound:.4g} + 3se={3 * se:.4g}"
        )
        checked += 1
    report("theorem2-soundness", time.perf_counter() - t0, 600)


def test_remark1_margin_scaling(vqc69, atlas69):
    t0 = time.perf_counter()
    rng = np.random.default_rng(37)
    thetas = rng.uniform(-1, 1, (1000, 3))
    labels = np.array([locate_region(atlas69, t) for t in thetas])
    base = vqc69.base_scores(thetas)
    s0 = vqc69.logits_from_base(base, 0.0)
    for gamma in (0.25, 0.6):
        s_g = vqc69.logits_from_base(base, gamma)
        for i in range(1000):
            m0 = margin_from_logits(s0[i], labels[i])
            mg = margin_from_logits(s_g[i], labels[i])
            assert abs(mg - (1 - gamma) * m0) <= 1e-12
    report("remark1-margin-scaling", time.perf_counter() - t0, 60)


def test_qubit_budget_table():
    t0 = time.perf_counter()
    expected = {
        (4, 2): 596, (4, 3): 810, (4, 4): 1024,
        (6, 2): 680, (6, 3): 894, (6, 4): 1108,
        (8, 3): 978, (8, 4): 1192, (8, 5): 1406,
    }
    for (bits, slack), total in expected.items():
        assert qubit_budget(bits, slack, 42, 214) == total
    report("qubit-budget-table", time.perf_counter() - t0)


def test_runtime_model_exact():
    t0 = time.perf_counter()
    assert runtime_model(5, 6) == 1.37
    from qpopf.evaluate import circuit_depth

    assert circuit_depth(5, 6) == 37
    report("runtime-model", time.perf_counter() - t0)


def test_trend_reproduction(vqc69, atlas69, plp69):
    t0 = time.perf_counter()
    adjacency = AdjacencySpec(delta_theta=0.05, pair_count=500, seed=29)
    rows = audit_vqc_grid(vqc69, GAMMAS, BETAS, adjacency, atlas69)
    grid = {(gi, bi): rows[gi * len(BETAS) + bi]["eps95"]
            for gi in range(len(GAMMAS)) for bi in range(len(BETAS))}
    for bi in range(len(BETAS)):
        for gi in range(len(GAMMAS) - 1):
            assert grid[(gi + 1, bi)] <= grid[(gi, bi)] + 1e-12
    for gi in range(len(GAMMAS)):
        for bi in range(len(BETAS) - 1):
            assert grid[(gi, bi)] <= grid[(gi, bi + 1)] + 1e-12

    batch = ScenarioBatch.sample(plp69.theta_box, 600, seed=43)
    reports = sweep(vqc69, atlas69, plp69, GAMMAS, [1e3, 1e6], batch)
    n = batch.count
    tol = 3 * np.sqrt(0.25 / n)
    for bi, beta in enumerate((1e3, 1e6)):
        vals = [r for r in reports if r.beta == beta]
        base = vals[0]
        for r in vals[1:]:
            assert abs(r.infeasibility_rate - base.infeasibility_rate) <= tol
            assert abs(r.stochastic_accuracy - base.stochastic_accuracy) <= tol
    report("trend-reproduction", time.perf_counter() - t0, 600)


def test_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from qpopf.cli import main
    from qpopf.data import case_path

    toy = str(case_path("toy2"))

    def run_all(out):
        out.mkdir(exist_ok=True)
        args_list = [
            ["regions", "--case", toy, "--budget", "100", "--seed", "5",
             "--out-dir", str(out), "--out", "atlas.json"],
            ["train", "--case", toy, "--atlas", f"{out}/atlas.json",
             "--model", "vqc", "--samples", "80", "--epochs", "2",
             "--qubits", "2", "--layers", "1", "--seed", "9",
             "--out-dir", str(out), "--out", "v.json"],
            ["audit", "--case", toy, "--atlas", f"{out}/atlas.json",
             "--model", f"{out}/v.json", "--gamma", "0.2", "--beta", "1.0",
             "--pairs", "30", "--seed", "2", "--out-dir", str(out),
             "--out", "p.json"],
            ["eval", "--case", toy, "--atlas", f"{out}/atlas.json",
             "--model", f"{out}/v.json", "--scenarios", "50", "--seed", "7",
             "--out-dir", str(out), "--out", "m.json"],
            ["sweep", "--case", toy, "--atlas", f"{out}/atlas.json",
             "--model", f"{out}/v.json", "--scenarios", "30", "--seed", "3",
             "--gamma-grid", "0,0.5", "--beta-grid", "1",
             "--out-dir", str(out), "--out", "h.csv"],
            ["budget", "--out-dir", str(out), "--out", "b.csv"],
            ["report", "--dir", str(out)],
        ]
        for args in args_list:
            assert main(args) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run_all(a)
    run_all(b)
    for pa in sorted(a.iterdir()):
        pb = b / pa.name
        if pa.name.endswith(".json"):
            da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
            da.pop("timing", None)
            db.pop("timing", None)
            assert da == db, pa.name
        else:
            assert pa.read_bytes() == pb.read_bytes(), pa.name
    report("cli-determinism", time.perf_counter() - t0)
