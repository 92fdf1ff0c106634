"""Command-line orchestration of the offline/online pipeline.

Subcommands: regions, train, audit, eval, sweep, budget, report.  Flag
values take precedence over a --config JSON file, which takes precedence
over built-in defaults.  Every output embeds the resolved-config hash
and the input-file hashes; wall-clock numbers live in dedicated timing
fields (or *_timing.csv files) so everything else is bitwise
reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from qpopf.classifier import (
    MlpBaseline,
    OracleClassifier,
    TrainConfig,
    VqcModel,
    argmax_accuracy,
    check_noise_and_temperature,
    load_model,
    save_model,
    train_mlp,
    train_vqc,
)
from qpopf.circuit import CircuitConfig
from qpopf.evaluate import (
    ScenarioBatch,
    evaluate,
    measure_runtimes,
    qubit_budget,
    runtime_model,
    sweep,
)
from qpopf.grid import linearize, load_case
from qpopf.privacy import (
    AdjacencySpec,
    audit_mechanism,
    audit_vqc_grid,
    draw_adjacent_pairs,
    epsilon_bound,
)
from qpopf.regions import RegionAtlas, enumerate_regions, sample_labeled_dataset

DEFAULT_OUT_DIR_ENV = "QPOPF_OUT_DIR"

DEFAULTS = {
    "regions": {"budget": 3000, "seed": 0, "coverage_samples": 2048},
    "train": {
        "model": "vqc",
        "samples": 3000,
        "split": 0.2,
        "epochs": 30,
        "lr": 0.05,
        "batch_size": 32,
        "train_beta": 1.0,
        "seed": 0,
        "qubits": 5,
        "layers": 6,
        "encoding_scale": 1.0,
        "gate": "rot",
    },
    "audit": {
        "gamma": 0.0,
        "beta": 1.0,
        "delta_theta": 0.05,
        "pairs": 100,
        "seed": 0,
        "mlp_draws": 2000,
    },
    "eval": {"gamma": 0.0, "beta": 1.0, "scenarios": 1000, "seed": 0},
    "sweep": {"scenarios": 500, "seed": 0},
    "budget": {"ours": 5, "variables": 42, "constraints": 214},
    "report": {},
}

TABLE_BIT_GRID = [(4, 2), (4, 3), (4, 4), (6, 2), (6, 3), (6, 4), (8, 3), (8, 4), (8, 5)]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _provenance(resolved: dict, inputs: dict[str, Path]) -> dict:
    cfg_hash = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "config_hash": cfg_hash,
        "input_hashes": {k: _sha256_file(Path(v)) for k, v in inputs.items()},
    }


def _write_json(path: Path, provenance: dict, result: dict, timing: dict) -> None:
    payload = {"provenance": provenance, "result": result, "timing": timing}
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))


def _write_csv(path: Path, provenance: dict, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# config_hash={provenance['config_hash']} "
            + " ".join(f"{k}={v}" for k, v in provenance["input_hashes"].items())
            + "\n"
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """flag > config file > default."""
    cfg_file = {}
    if args.config:
        cfg_file = json.loads(Path(args.config).read_text()).get(command, {})
    resolved = {}
    for key, default in DEFAULTS[command].items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in cfg_file:
            resolved[key] = cfg_file[key]
        else:
            resolved[key] = default
    return resolved


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(DEFAULT_OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_pipeline(parser, args, cfg: dict, atlas: bool = True, model: bool = False):
    """LP, atlas, model and provenance of a command.

    The atlas and the model are loaded only when asked for (None
    otherwise); a missing input file is a usage error.  The provenance
    hashes the resolved config and every input file the command read.
    """
    inputs = {"case": Path(args.case)}
    if not inputs["case"].exists():
        parser.error(f"case file not found: {inputs['case']}")
    plp = linearize(load_case(inputs["case"]))
    region_atlas = classifier = None
    if atlas:
        inputs["atlas"] = Path(args.atlas)
        if not inputs["atlas"].exists():
            parser.error(f"atlas file not found: {inputs['atlas']}")
        region_atlas = RegionAtlas.load(inputs["atlas"])
        if region_atlas.plp_hash != plp.hash_hex():
            raise RuntimeError(
                "atlas/case mismatch: atlas was built for a different LP"
            )
    if model:
        classifier = _resolve_model(parser, args.model, region_atlas)
        if args.model != "oracle":
            inputs["model"] = Path(args.model)
    return plp, region_atlas, classifier, _provenance(cfg, inputs)


def _resolve_model(parser, spec: str, atlas):
    """'oracle' or a checkpoint path."""
    if spec == "oracle":
        return OracleClassifier(atlas)
    path = Path(spec)
    if not path.exists():
        parser.error(f"model checkpoint not found: {path}")
    model, meta = load_model(path)
    if meta.get("atlas_hash") and atlas is not None:
        if _atlas_hash(atlas) != meta["atlas_hash"]:
            raise RuntimeError("checkpoint was trained against a different atlas")
    return model


def _atlas_hash(atlas: RegionAtlas) -> str:
    return hashlib.sha256(
        json.dumps(atlas.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def _grid(parser, flag: str, text: str) -> list[float]:
    """The comma-separated numbers of ``--flag``; a usage error unless
    there is at least one and every entry is a number."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        parser.error(f"--{flag} must be comma-separated numbers, got {text!r}")
    if not values:
        parser.error(f"--{flag} is empty: {text!r}")
    return values


def _count(parser, cfg: dict, key: str) -> int:
    """``cfg[key]`` as an int, a usage error unless it is at least 1."""
    value = int(cfg[key])
    if value < 1:
        parser.error(f"--{key.replace('_', '-')} must be >= 1, got {value}")
    return value


def _circuit_config(parser, cfg: dict, m: int) -> CircuitConfig:
    """The VQC circuit of the train keys; a bad key is a usage error.

    Only the encoding pattern depends on the LP's ``m``, and it is valid
    for any m >= 1, so ``m=1`` checks the keys before any input is loaded.
    """
    try:
        return CircuitConfig.default(
            n_q=int(cfg["qubits"]),
            L=int(cfg["layers"]),
            m=m,
            encoding_scale=float(cfg["encoding_scale"]),
            trainable_gate=str(cfg["gate"]),
        )
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def _check_noise_and_temperature(parser, gammas, betas) -> None:
    try:
        check_noise_and_temperature(gammas, betas)
    except ValueError as exc:
        parser.error(str(exc))


# -- commands -----------------------------------------------------------------


def cmd_regions(parser, args) -> int:
    cfg = _resolve(args, "regions")
    budget = _count(parser, cfg, "budget")
    coverage_samples = _count(parser, cfg, "coverage_samples")
    plp, _, _, prov = _load_pipeline(parser, args, cfg, atlas=False)
    t0 = time.perf_counter()
    atlas = enumerate_regions(
        plp, sampling_budget=budget, seed=int(cfg["seed"]), coverage_samples=coverage_samples
    )
    elapsed = time.perf_counter() - t0
    out = _out_dir(args) / (args.out or "atlas.json")
    payload = atlas.to_dict()
    payload["provenance"].update(prov)
    out.write_text(json.dumps(payload, sort_keys=True))
    degenerate = sum(1 for r in atlas.regions if r.degenerate)
    dropped = " ".join(f"{k}={v}" for k, v in atlas.dropped.items())
    print(
        f"regions: K={atlas.K} coverage={atlas.coverage:.4f} "
        f"degenerate={degenerate} dropped: {dropped} -> {out} ({elapsed:.1f}s)"
    )
    return 0


def cmd_train(parser, args) -> int:
    cfg = _resolve(args, "train")
    seed, samples, split = int(cfg["seed"]), int(cfg["samples"]), float(cfg["split"])
    if not 0.0 <= split < 1.0:
        parser.error(f"split must be in [0, 1), got {split}")
    n_test = int(round(split * samples))
    if samples - n_test < 1:
        parser.error(f"split {split} of {samples} samples leaves no training sample")
    if n_test < 1:
        parser.error(f"split {split} of {samples} samples leaves no test sample")
    try:
        train_cfg = TrainConfig(
            epochs=int(cfg["epochs"]),
            batch_size=int(cfg["batch_size"]),
            learning_rate=float(cfg["lr"]),
            seed=seed,
            beta=float(cfg["train_beta"]),
        )
    except ValueError as exc:
        parser.error(str(exc))
    if cfg["model"] == "vqc":
        _circuit_config(parser, cfg, m=1)
    elif cfg["model"] != "mlp":
        parser.error(f"unknown model kind {cfg['model']!r}")
    plp, atlas, _, prov = _load_pipeline(parser, args, cfg)
    thetas, labels = sample_labeled_dataset(atlas, samples, seed=seed)
    train_set = (thetas[: samples - n_test], labels[: samples - n_test])
    test_set = (thetas[samples - n_test :], labels[samples - n_test :])
    t0 = time.perf_counter()
    if cfg["model"] == "vqc":
        config = _circuit_config(parser, cfg, m=plp.m)
        params, head, history = train_vqc(
            train_set, config, train_cfg, K=atlas.K, eval_set=test_set
        )
        model = VqcModel(config, params, head)
    else:
        model, history = train_mlp(
            train_set, train_cfg, K=atlas.K, eval_set=test_set
        )
    elapsed = time.perf_counter() - t0

    out = _out_dir(args) / (args.out or f"{cfg['model']}.json")
    save_model(
        model,
        out,
        seed=seed,
        atlas_hash=_atlas_hash(atlas),
        extra={"provenance": prov, "train_config": cfg},
    )
    log_path = out.with_suffix(".log.csv")
    _write_csv(
        log_path,
        prov,
        ["epoch", "loss", "train_accuracy", "test_accuracy"],
        [
            [h["epoch"], f"{h['loss']:.10f}", h["train_accuracy"], h["test_accuracy"]]
            for h in history
        ],
    )
    final_acc = history[-1]["test_accuracy"] if history else float("nan")
    print(
        f"train[{cfg['model']}]: params={model.num_params} "
        f"test_accuracy={final_acc:.4f} -> {out} ({elapsed:.1f}s)"
    )
    return 0


def cmd_audit(parser, args) -> int:
    cfg = _resolve(args, "audit")
    gamma, beta = float(cfg["gamma"]), float(cfg["beta"])
    grid = args.gamma_grid is not None or args.beta_grid is not None
    gammas = [gamma] if args.gamma_grid is None else _grid(parser, "gamma-grid", args.gamma_grid)
    betas = [beta] if args.beta_grid is None else _grid(parser, "beta-grid", args.beta_grid)
    _check_noise_and_temperature(parser, gammas, betas)
    pair_count = _count(parser, cfg, "pairs")
    n_draws = _count(parser, cfg, "mlp_draws")
    if args.mlp_sigma is not None and not (math.isfinite(args.mlp_sigma) and args.mlp_sigma >= 0):
        parser.error(f"--mlp-sigma must be finite and >= 0, got {args.mlp_sigma}")
    try:
        adjacency = AdjacencySpec(
            delta_theta=float(cfg["delta_theta"]),
            pair_count=pair_count,
            seed=int(cfg["seed"]),
        )
    except ValueError as exc:
        parser.error(str(exc))
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    t0 = time.perf_counter()

    if grid:
        if not isinstance(model, VqcModel):
            parser.error("grid audits need a vqc checkpoint (exact fast path)")
        rows = audit_vqc_grid(model, gammas, betas, adjacency, atlas=atlas)
        out = _out_dir(args) / (args.out or "audit_sweep.csv")
        _write_csv(
            out,
            prov,
            ["gamma", "beta", "eps95", "eps_reg", "accuracy_det", "accuracy_stoch"],
            [
                [
                    r["gamma"],
                    r["beta"],
                    f"{r['eps95']:.12g}",
                    f"{r['eps_reg']:.12g}",
                    r["accuracy_det"],
                    f"{r['accuracy_stoch']:.12g}",
                ]
                for r in rows
            ],
        )
        ok = all(r["eps_max"] <= r["eps_reg"] + 1e-12 for r in rows)
        print(
            f"audit grid: {len(rows)} points, bound_satisfied={ok} -> {out} "
            f"({time.perf_counter() - t0:.1f}s)"
        )
        return 0

    pairs = draw_adjacent_pairs(adjacency, plp.m)
    # the report's gamma and beta are None where the model has no such knob
    eps_reg, draws = None, {}
    if isinstance(model, VqcModel):
        eps_reg = epsilon_bound(model, gamma, beta, adjacency.delta_theta)
    elif isinstance(model, MlpBaseline):
        gamma = None
        if args.mlp_sigma is not None:
            model = replace(model, sigma=args.mlp_sigma)
        draws = {"n_draws": n_draws, "seed": int(cfg["seed"]) + 7919}
    else:
        gamma = beta = None
    report = audit_mechanism(
        model, gamma, beta, pairs, eps_reg=eps_reg, delta_theta=adjacency.delta_theta, **draws
    )
    out = _out_dir(args) / (args.out or "privacy.json")
    _write_json(
        out, prov, report.to_dict(), {"elapsed_s": time.perf_counter() - t0}
    )
    flag = report.to_dict()["bound_satisfied"]
    reg = f"{report.eps_reg:.4f}" if report.eps_reg is not None else "n/a"
    print(
        f"audit[{report.model_id}]: eps95={report.eps95:.4f} eps_reg={reg} "
        f"bound_satisfied={flag} -> {out}"
    )
    return 0


def cmd_eval(parser, args) -> int:
    cfg = _resolve(args, "eval")
    gamma, beta = float(cfg["gamma"]), float(cfg["beta"])
    _check_noise_and_temperature(parser, [gamma], [beta])
    scenarios = _count(parser, cfg, "scenarios")
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    batch = ScenarioBatch.sample(plp.theta_box, scenarios, int(cfg["seed"]))
    t0 = time.perf_counter()
    report = evaluate(
        model,
        atlas,
        plp,
        batch,
        gamma=gamma,
        beta=beta,
        rng=np.random.default_rng(int(cfg["seed"])),
    )
    out = _out_dir(args) / (args.out or "metrics.json")
    _write_json(out, prov, report.to_dict(), {"elapsed_s": time.perf_counter() - t0})
    print(
        f"eval[{report.model_id}]: mae={report.mae:.4f} "
        f"cost_gap={report.cost_gap * 100:.3f}% "
        f"infeasibility={report.infeasibility_rate * 100:.2f}% "
        f"accuracy={report.stochastic_accuracy:.4f}, "
        f"{report.counters['infeasible_picks']} infeasible picks, "
        f"{report.counters['projection_lps']} projection LPs -> {out}"
    )
    return 0


def cmd_sweep(parser, args) -> int:
    cfg = _resolve(args, "sweep")
    if not args.gamma_grid or not args.beta_grid:
        parser.error("sweep requires --gamma-grid and --beta-grid")
    gammas = _grid(parser, "gamma-grid", args.gamma_grid)
    betas = _grid(parser, "beta-grid", args.beta_grid)
    _check_noise_and_temperature(parser, gammas, betas)
    scenarios = _count(parser, cfg, "scenarios")
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    batch = ScenarioBatch.sample(plp.theta_box, scenarios, int(cfg["seed"]))
    t0 = time.perf_counter()
    reports = sweep(model, atlas, plp, gammas, betas, batch)
    out = _out_dir(args) / (args.out or "heatmap.csv")
    _write_csv(
        out,
        prov,
        ["gamma", "beta", "infeasibility_pct", "cost_gap_pct", "accuracy"],
        [
            [
                r.gamma,
                r.beta,
                f"{r.infeasibility_rate * 100:.6g}",
                f"{r.cost_gap * 100:.6g}",
                f"{r.stochastic_accuracy:.6g}",
            ]
            for r in reports
        ],
    )
    picks = sum(r.counters["infeasible_picks"] for r in reports)
    lps = sum(r.counters["projection_lps"] for r in reports)
    print(
        f"sweep: {len(reports)} cells, {picks} infeasible picks, {lps} projection LPs "
        f"-> {out} ({time.perf_counter() - t0:.1f}s)"
    )
    return 0


def cmd_budget(parser, args) -> int:
    cfg = _resolve(args, "budget")
    prov = _provenance(cfg, {})
    rows = []
    for bits, slack in TABLE_BIT_GRID:
        direct, ours = qubit_budget(
            bits,
            slack,
            n_vars=int(cfg["variables"]),
            n_cons=int(cfg["constraints"]),
            n_q_ours=int(cfg["ours"]),
        )
        rows.append(
            [bits, slack, bits * int(cfg["variables"]), slack * int(cfg["constraints"]), direct, ours]
        )
    out = _out_dir(args) / (args.out or "qubit_budget.csv")
    _write_csv(
        out,
        prov,
        ["bits_variable", "bits_slack", "variable_qubits", "slack_qubits", "direct_total", "ours"],
        rows,
    )
    print("qubit budget (direct QUBO encoding vs region classification):")
    for r in rows:
        print(f"  b={r[0]} Y={r[1]}: variables={r[2]} slack={r[3]} total={r[4]} vs ours={r[5]}")
    print(f"modeled circuit time: {runtime_model(5, 6):.2f} us (depth 37)")

    if args.case and args.atlas:
        plp, atlas, model, _ = _load_pipeline(parser, args, cfg, model=bool(args.model))
        mlp = model if isinstance(model, MlpBaseline) else None
        timing_rows = measure_runtimes(
            plp, atlas, mlp=mlp, vqc_config=CircuitConfig.default(5, 6, plp.m)
        )
        tpath = _out_dir(args) / "speedup_timing.csv"
        _write_csv(
            tpath,
            prov,
            ["method", "runtime_us", "speedup"],
            [[r["method"], f"{r['runtime_us']:.3f}", f"{r['speedup']:.1f}"] for r in timing_rows],
        )
        for r in timing_rows:
            print(f"  {r['method']}: {r['runtime_us']:.1f} us ({r['speedup']:.0f}x)")
        print(f"-> {tpath}")
    print(f"-> {out}")
    return 0


def cmd_report(parser, args) -> int:
    directory = Path(args.dir or (args.out_dir or "."))
    if not directory.exists():
        parser.error(f"report directory not found: {directory}")
    sections = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        body = payload.get("result", payload)
        sections.append(f"## {path.name}\n\n```json\n{json.dumps(body, sort_keys=True, indent=1)}\n```\n")
    for path in sorted(directory.glob("*.csv")):
        lines = path.read_text().splitlines()
        head = "\n".join(lines[:12])
        sections.append(f"## {path.name}\n\n```\n{head}\n```\n")
    out = directory / (args.out or "summary.md")
    out.write_text("# Run summary\n\n" + "\n".join(sections))
    print(f"report: {len(sections)} artifacts -> {out}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpopf",
        description="Probabilistic OPF via critical-region classification "
        "with privacy auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, case=True, atlas=False, model=False):
        p.add_argument("--config", help="JSON config file (flag > file > default)")
        p.add_argument("--out-dir", help=f"output directory (or ${DEFAULT_OUT_DIR_ENV})")
        p.add_argument("--out", help="output file name")
        p.add_argument("--seed", type=int)
        if case:
            p.add_argument("--case", required=True, help="case JSON file")
        if atlas:
            p.add_argument("--atlas", required=True, help="region atlas JSON")
        if model:
            p.add_argument("--model", required=True, help="checkpoint path or 'oracle'")

    p = sub.add_parser("regions", help="enumerate critical regions")
    common(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--coverage-samples", type=int, dest="coverage_samples")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("train", help="train a region classifier")
    common(p, atlas=True)
    p.add_argument("--model", choices=["vqc", "mlp"])
    p.add_argument("--samples", type=int)
    p.add_argument("--split", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--train-beta", type=float, dest="train_beta")
    p.add_argument("--qubits", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--encoding-scale", type=float, dest="encoding_scale")
    p.add_argument("--gate", choices=["ry", "rot"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="empirical + theoretical privacy audit")
    common(p, atlas=True, model=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta-theta", type=float, dest="delta_theta")
    p.add_argument("--pairs", type=int)
    p.add_argument("--gamma-grid", dest="gamma_grid")
    p.add_argument("--beta-grid", dest="beta_grid")
    p.add_argument("--mlp-sigma", type=float, dest="mlp_sigma")
    p.add_argument("--mlp-draws", type=int, dest="mlp_draws")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("eval", help="Monte-Carlo dispatch evaluation")
    common(p, atlas=True, model=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--scenarios", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="factorial (gamma, beta) evaluation")
    common(p, atlas=True, model=True)
    p.add_argument("--gamma-grid", dest="gamma_grid")
    p.add_argument("--beta-grid", dest="beta_grid")
    p.add_argument("--scenarios", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("budget", help="qubit budget and runtime comparison")
    common(p, case=False)
    p.add_argument("--case", help="optional case for measured runtimes")
    p.add_argument("--atlas", help="optional atlas for measured runtimes")
    p.add_argument("--model", help="optional mlp checkpoint for measured runtimes")
    p.add_argument("--ours", type=int)
    p.add_argument("--variables", type=int)
    p.add_argument("--constraints", type=int)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("report", help="concatenate prior outputs")
    common(p, case=False)
    p.add_argument("--dir", help="directory holding artifacts")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except Exception as exc:  # runtime failure -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
