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
    check_noise_and_temperature,
    kept_epoch,
    load_model,
    require_encoded,
    save_model,
    train_mlp,
    train_vqc,
)
from qpopf.circuit import CircuitConfig, cyclic_pattern
from qpopf.evaluate import (
    ScenarioBatch,
    circuit_depth,
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

# keys that count units of work: a value below 1 is a usage error
COUNT_KEYS = ("budget", "coverage_samples", "pairs", "mlp_draws", "scenarios")

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


def _resolve(parser, args: argparse.Namespace, command: str) -> dict:
    """flag > config file > default, each value cast to the type of its default.

    A flag arrives as its string and a ``--config`` value is first written
    as one (``str(value)``), so both go through the same cast: a JSON
    ``5.7`` fails as ``--ours 5.7`` does, and a JSON boolean is no number.
    A value that does not cast, a count key below 1 or a negative seed is
    a usage error before any input is read; so is a ``--config`` file that
    does not read as JSON, or whose top level or ``command`` section is not
    an object.
    """
    cfg_file = {}
    if args.config:
        try:
            cfg_file = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --config {args.config}: {exc}")
        if not isinstance(cfg_file, dict):
            parser.error(f"--config {args.config} must hold a JSON object")
        cfg_file = cfg_file.get(command, {})
        if not isinstance(cfg_file, dict):
            parser.error(f"--config {args.config}: section {command!r} must be a JSON object")
    resolved = {}
    for key, default in DEFAULTS[command].items():
        flag = _flag(key)
        value = getattr(args, key)
        if value is None:
            value = cfg_file.get(key, default)
        try:
            value = type(default)(str(value))
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")
        if key in COUNT_KEYS and value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
        if key == "seed" and value < 0:
            parser.error(f"{flag} must be >= 0, got {value}")
        resolved[key] = value
    return resolved


def _flag(key: str) -> str:
    """The command-line flag of a ``DEFAULTS`` key."""
    return "--" + key.replace("_", "-")


def _usage(parser, build, *args, **kw):
    """``build(*args, **kw)``; a ValueError or TypeError it raises is a usage error."""
    try:
        return build(*args, **kw)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


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


# -- commands -----------------------------------------------------------------


def cmd_regions(parser, args) -> int:
    cfg = _resolve(parser, args, "regions")
    plp, _, _, prov = _load_pipeline(parser, args, cfg, atlas=False)
    t0 = time.perf_counter()
    atlas = enumerate_regions(
        plp, cfg["budget"], seed=cfg["seed"], coverage_samples=cfg["coverage_samples"]
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
    cfg = _resolve(parser, args, "train")
    seed, samples, split = cfg["seed"], cfg["samples"], cfg["split"]
    if not 0.0 <= split < 1.0:
        parser.error(f"split must be in [0, 1), got {split}")
    n_test = int(round(split * samples))
    if samples - n_test < 1:
        parser.error(f"split {split} of {samples} samples leaves no training sample")
    if n_test < 1:
        parser.error(f"split {split} of {samples} samples leaves no test sample")
    train_cfg = _usage(parser, TrainConfig, epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       learning_rate=cfg["lr"], seed=seed, beta=cfg["train_beta"])
    if cfg["model"] not in ("vqc", "mlp"):
        parser.error(f"unknown model kind {cfg['model']!r}")
    # the checkpoint records the circuit keys for either kind, so both check them; only
    # the encoding pattern depends on the LP's m, and m=1 is valid for any circuit, so
    # the circuit keys are checked before any input is loaded
    config = _usage(parser, CircuitConfig.default, cfg["qubits"], cfg["layers"], m=1,
                    encoding_scale=cfg["encoding_scale"], trainable_gate=cfg["gate"])
    plp, atlas, _, prov = _load_pipeline(parser, args, cfg)
    if cfg["model"] == "vqc":
        config = replace(config, encoding_pattern=cyclic_pattern(config.n_q, plp.m))
        _usage(parser, require_encoded, config, plp.m)
    thetas, labels = sample_labeled_dataset(atlas, samples, seed=seed)
    train_set = (thetas[: samples - n_test], labels[: samples - n_test])
    test_set = (thetas[samples - n_test :], labels[samples - n_test :])
    t0 = time.perf_counter()
    if cfg["model"] == "vqc":
        model, history = train_vqc(train_set, config, train_cfg, K=atlas.K, eval_set=test_set)
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
    # the checkpoint holds the kept epoch's weights, not the last epoch's
    kept = kept_epoch(history) or {"epoch": 0, "test_accuracy": float("nan")}
    print(
        f"train[{cfg['model']}]: params={model.num_params} epoch={kept['epoch']}/{len(history)} "
        f"test_accuracy={kept['test_accuracy']:.4f} -> {out} ({elapsed:.1f}s)"
    )
    return 0


def cmd_audit(parser, args) -> int:
    cfg = _resolve(parser, args, "audit")
    gamma, beta = cfg["gamma"], cfg["beta"]
    grid = args.gamma_grid is not None or args.beta_grid is not None
    gammas = [gamma] if args.gamma_grid is None else _grid(parser, "gamma-grid", args.gamma_grid)
    betas = [beta] if args.beta_grid is None else _grid(parser, "beta-grid", args.beta_grid)
    _usage(parser, check_noise_and_temperature, gammas, betas)
    if args.mlp_sigma is not None and not (math.isfinite(args.mlp_sigma) and args.mlp_sigma >= 0):
        parser.error(f"--mlp-sigma must be finite and >= 0, got {args.mlp_sigma}")
    adjacency = _usage(parser, AdjacencySpec, delta_theta=cfg["delta_theta"],
                       pair_count=cfg["pairs"], seed=cfg["seed"])
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    if args.mlp_sigma is not None and not isinstance(model, MlpBaseline):
        parser.error("--mlp-sigma needs an mlp checkpoint")
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
        ok = all(r["bound_satisfied"] for r in rows)
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
        draws = {"n_draws": cfg["mlp_draws"], "seed": adjacency.noise_seed}
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
    cfg = _resolve(parser, args, "eval")
    gamma, beta = cfg["gamma"], cfg["beta"]
    _usage(parser, check_noise_and_temperature, [gamma], [beta])
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    batch = ScenarioBatch.sample(plp.theta_box, cfg["scenarios"], cfg["seed"])
    t0 = time.perf_counter()
    report = evaluate(
        model,
        atlas,
        plp,
        batch,
        gamma=gamma,
        beta=beta,
        rng=np.random.default_rng(cfg["seed"]),
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
    cfg = _resolve(parser, args, "sweep")
    if not args.gamma_grid or not args.beta_grid:
        parser.error("sweep requires --gamma-grid and --beta-grid")
    gammas = _grid(parser, "gamma-grid", args.gamma_grid)
    betas = _grid(parser, "beta-grid", args.beta_grid)
    _usage(parser, check_noise_and_temperature, gammas, betas)
    plp, atlas, model, prov = _load_pipeline(parser, args, cfg, model=True)
    batch = ScenarioBatch.sample(plp.theta_box, cfg["scenarios"], cfg["seed"])
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
    cfg = _resolve(parser, args, "budget")
    if bool(args.case) != bool(args.atlas):
        parser.error("measured runtimes need both --case and --atlas")
    if args.model and not args.case:
        parser.error("--model needs --case and --atlas")
    if args.case:
        plp, atlas, mlp, timing_prov = _load_pipeline(parser, args, cfg, model=bool(args.model))
        if args.model and not isinstance(mlp, MlpBaseline):
            parser.error(f"--model must be an mlp checkpoint, got {args.model}")
    # the modeled and the measured circuit are the one `train` builds by default
    n_q, L = DEFAULTS["train"]["qubits"], DEFAULTS["train"]["layers"]
    prov = _provenance(cfg, {})
    n_vars, n_cons = cfg["variables"], cfg["constraints"]
    rows = [
        [bits, slack, bits * n_vars, slack * n_cons, qubit_budget(bits, slack, n_vars, n_cons),
         cfg["ours"]]
        for bits, slack in TABLE_BIT_GRID
    ]
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
    print(f"modeled circuit time: {runtime_model(n_q, L):.2f} us (depth {circuit_depth(n_q, L)})")

    if args.case:
        timing_rows = measure_runtimes(
            plp, atlas, mlp=mlp, vqc_config=CircuitConfig.default(n_q, L, plp.m)
        )
        tpath = out.with_name(f"{out.stem}_timing.csv")
        _write_csv(
            tpath,
            timing_prov,
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
        body = payload.get("result", payload) if isinstance(payload, dict) else payload
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

    def command(name, func, help, case=True, atlas=False, model=False):
        """A subcommand with its output flags, its input files, and one flag per key
        of ``DEFAULTS[name]`` that hands ``_resolve`` the string it was given."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", help=f"output directory (or ${DEFAULT_OUT_DIR_ENV})")
        p.add_argument("--out", help="output file name")
        if DEFAULTS[name]:
            p.add_argument("--config", help="JSON config file (flag > file > default)")
        for key, default in DEFAULTS[name].items():
            p.add_argument(_flag(key), dest=key, help=f"default: {default}")
        if case:
            p.add_argument("--case", required=True, help="case JSON file")
        if atlas:
            p.add_argument("--atlas", required=True, help="region atlas JSON")
        if model:
            p.add_argument("--model", required=True, help="checkpoint path or 'oracle'")
        return p

    command("regions", cmd_regions, "enumerate critical regions")
    command("train", cmd_train, "train a region classifier", atlas=True)
    p = command("audit", cmd_audit, "empirical + theoretical privacy audit",
                atlas=True, model=True)
    p.add_argument("--gamma-grid", dest="gamma_grid")
    p.add_argument("--beta-grid", dest="beta_grid")
    p.add_argument("--mlp-sigma", type=float, dest="mlp_sigma")
    command("eval", cmd_eval, "Monte-Carlo dispatch evaluation", atlas=True, model=True)
    p = command("sweep", cmd_sweep, "factorial (gamma, beta) evaluation", atlas=True, model=True)
    p.add_argument("--gamma-grid", dest="gamma_grid")
    p.add_argument("--beta-grid", dest="beta_grid")
    p = command("budget", cmd_budget, "qubit budget and runtime comparison", case=False)
    p.add_argument("--case", help="optional case for measured runtimes")
    p.add_argument("--atlas", help="optional atlas for measured runtimes")
    p.add_argument("--model", help="optional mlp checkpoint for measured runtimes")
    p = command("report", cmd_report, "concatenate prior outputs", case=False)
    p.add_argument("--dir", help="directory holding artifacts")
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
