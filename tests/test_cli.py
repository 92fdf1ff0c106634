import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpopf.classifier import argmax_accuracy, load_model
from qpopf.cli import DEFAULTS, build_parser, main
from qpopf.data import case_path
from qpopf.regions import RegionAtlas, sample_labeled_dataset

TOY = str(case_path("toy2"))
ROOT = Path(__file__).resolve().parents[1]
# committed benchmark inputs and the artifacts they produce
FIXTURES = ROOT / "perfbench" / "fixtures"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifact directory with a toy atlas and tiny checkpoints."""
    d = tmp_path_factory.mktemp("cli")
    assert run(["regions", "--case", TOY, "--budget", 200, "--seed", 5,
                "--out-dir", d, "--out", "atlas.json"]) == 0
    assert run(["train", "--case", TOY, "--atlas", d / "atlas.json",
                "--model", "vqc", "--samples", 200, "--epochs", 4,
                "--qubits", 2, "--layers", 2, "--seed", 9,
                "--out-dir", d, "--out", "vqc.json"]) == 0
    assert run(["train", "--case", TOY, "--atlas", d / "atlas.json",
                "--model", "mlp", "--samples", 200, "--epochs", 8,
                "--seed", 9, "--out-dir", d, "--out", "mlp.json"]) == 0
    return d


def read_json(path):
    return json.loads(Path(path).read_text())


def strip_timing(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timing", None)
    return payload


def test_regions_produces_two_region_atlas(workdir):
    atlas = read_json(workdir / "atlas.json")
    assert len(atlas["regions"]) == 2
    assert atlas["coverage"] == 1.0
    assert "config_hash" in atlas["provenance"]


def test_regions_reports_dropped_bases(tmp_path, capsys):
    assert run(["regions", "--case", TOY, "--budget", 16, "--seed", 5,
                "--out-dir", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "dropped: singular=0 empty=0 unrecovered=0 infeasible=0 unbounded=0" in out
    assert "dropped" not in read_json(tmp_path / "atlas.json")


def test_missing_case_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["regions", "--case", tmp_path / "nope.json", "--out-dir", tmp_path])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


# each command's flags besides one per DEFAULTS key: its input files and the flags
# that no config key backs
OTHER_FLAGS = {
    "regions": {"--case"},
    "train": {"--case", "--atlas"},
    "audit": {"--case", "--atlas", "--model", "--gamma-grid", "--beta-grid", "--mlp-sigma"},
    "eval": {"--case", "--atlas", "--model"},
    "sweep": {"--case", "--atlas", "--model", "--gamma-grid", "--beta-grid"},
    "budget": {"--case", "--atlas", "--model"},
    "report": {"--dir"},
}


def test_each_setting_has_one_flag_and_no_cast():
    """A command's flags are one per DEFAULTS key, --config when it has a key, its
    output flags and OTHER_FLAGS; no setting flag casts or restricts its string."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    assert set(commands) == set(DEFAULTS) == set(OTHER_FLAGS)
    for name, sub in commands.items():
        settings = {"--" + key.replace("_", "-"): key for key in DEFAULTS[name]}
        expected = {"-h", "--help", "--out", "--out-dir", *settings, *OTHER_FLAGS[name]}
        if settings:
            expected.add("--config")
        actions = {s: a for a in sub._actions for s in a.option_strings}
        assert set(actions) == expected, name
        for flag, key in settings.items():
            assert actions[flag].dest == key
            assert actions[flag].type is None and actions[flag].choices is None, flag


@pytest.mark.parametrize("argv", [
    ["budget", "--seed", "1"],
    ["report", "--seed", "1"],
    ["report", "--config", "x.json"],
])
def test_a_flag_the_command_would_ignore_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_writes_checkpoint_and_log(workdir):
    ckpt = read_json(workdir / "vqc.json")
    assert ckpt["kind"] == "vqc"
    assert ckpt["atlas_hash"]
    log = (workdir / "vqc.log.csv").read_text().splitlines()
    assert log[0].startswith("# config_hash=")
    assert log[1] == "epoch,loss,train_accuracy,test_accuracy"
    assert len(log) == 2 + 4  # header lines + epochs


def test_train_zero_epochs(workdir, tmp_path, capsys):
    assert run(["train", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", "mlp", "--samples", 50, "--epochs", 0,
                "--seed", 1, "--out-dir", tmp_path, "--out", "init.json"]) == 0
    ckpt = read_json(tmp_path / "init.json")
    assert ckpt["kind"] == "mlp"
    assert " epoch=0/0 test_accuracy=nan -> " in capsys.readouterr().out


def test_train_reports_the_kept_epoch(tmp_path, capsys):
    """The summary line names the epoch whose weights the checkpoint holds, not the last."""
    atlas = FIXTURES / "atlas.json"
    assert run(["train", "--case", case_path("ieee69"), "--atlas", atlas, "--model", "mlp",
                "--samples", 600, "--epochs", 7, "--seed", 3,
                "--out-dir", tmp_path, "--out", "mlp.json"]) == 0
    line = capsys.readouterr().out
    rows = list(csv.DictReader((tmp_path / "mlp.log.csv").read_text().splitlines()[1:]))
    kept = min(rows, key=lambda r: (-float(r["train_accuracy"]), float(r["loss"])))
    assert int(kept["epoch"]) < 7
    acc = float(kept["test_accuracy"])
    assert f" epoch={kept['epoch']}/7 test_accuracy={acc:.4f} -> " in line
    model, _ = load_model(tmp_path / "mlp.json")
    thetas, labels = sample_labeled_dataset(RegionAtlas.load(atlas), 600, seed=3)
    assert argmax_accuracy(model, thetas[-120:], labels[-120:]) == acc


def test_train_determinism(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["train", "--case", TOY, "--atlas", workdir / "atlas.json",
                    "--model", "mlp", "--samples", 100, "--epochs", 5,
                    "--seed", 4, "--out-dir", out, "--out", "m.json"]) == 0
    assert (a / "m.json").read_bytes() == (b / "m.json").read_bytes()
    assert (a / "m.log.csv").read_bytes() == (b / "m.log.csv").read_bytes()


def test_audit_vqc_and_gamma_one(workdir, tmp_path):
    assert run(["audit", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--gamma", 1.0, "--beta", 2.0,
                "--pairs", 40, "--seed", 2, "--out-dir", tmp_path,
                "--out", "p1.json"]) == 0
    rep = read_json(tmp_path / "p1.json")["result"]
    assert rep["eps95"] == 0.0
    assert rep["eps_reg"] == 0.0
    assert rep["bound_satisfied"] is True

    assert run(["audit", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--gamma", 0.1, "--beta", 1.0,
                "--pairs", 40, "--seed", 2, "--out-dir", tmp_path,
                "--out", "p2.json"]) == 0
    rep = read_json(tmp_path / "p2.json")["result"]
    assert rep["bound_satisfied"] is True
    assert rep["eps95"] <= rep["eps_reg"]


def test_audit_grid_csv(workdir, tmp_path):
    assert run(["audit", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--pairs", 50, "--seed", 2,
                "--gamma-grid", "0,0.5", "--beta-grid", "0.5,1,2",
                "--out-dir", tmp_path, "--out", "grid.csv"]) == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[1] == "gamma,beta,eps95,eps_reg,accuracy_det,accuracy_stoch"
    assert len(lines) == 2 + 6


def test_eval_oracle_zero_errors(workdir, tmp_path):
    assert run(["eval", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", "oracle", "--scenarios", 100, "--seed", 7,
                "--out-dir", tmp_path, "--out", "m.json"]) == 0
    rep = read_json(tmp_path / "m.json")["result"]
    assert rep["mae"] == 0.0
    assert rep["cost_gap"] == 0.0
    assert rep["infeasibility_rate"] == 0.0
    assert rep["stochastic_accuracy"] == 1.0


def test_sweep_grid_rows(workdir, tmp_path):
    assert run(["sweep", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--scenarios", 60, "--seed", 3,
                "--gamma-grid", "0,0.3", "--beta-grid", "1,1000",
                "--out-dir", tmp_path, "--out", "h.csv"]) == 0
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[1] == "gamma,beta,infeasibility_pct,cost_gap_pct,accuracy"
    assert len(lines) == 2 + 4


def test_budget_matches_reference_totals(tmp_path, capsys):
    assert run(["budget", "--out-dir", tmp_path, "--out", "b.csv"]) == 0
    with open(tmp_path / "b.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    totals = sorted(int(r["direct_total"]) for r in rows)
    assert totals == sorted([596, 810, 1024, 680, 894, 1108, 978, 1192, 1406])
    assert all(int(r["ours"]) == 5 for r in rows)
    assert "modeled circuit time: 1.37 us (depth 37)\n" in capsys.readouterr().out


def test_budget_measures_runtimes_with_an_mlp(workdir, tmp_path, capsys):
    inputs = {"case": Path(TOY), "atlas": workdir / "atlas.json", "model": workdir / "mlp.json"}
    assert run(["budget", "--case", TOY, "--atlas", inputs["atlas"], "--model", inputs["model"],
                "--out-dir", tmp_path, "--out", "b.csv"]) == 0
    rows = list(csv.DictReader(csv_body(tmp_path / "b_timing.csv")))
    assert [r["method"] for r in rows] == [
        "lp_solver", "constraint_check_affine", "mlp_affine", "vqc_affine_modeled"]
    assert float(rows[3]["runtime_us"]) == 1.37  # the modeled 5-qubit, 6-layer circuit
    assert f"-> {tmp_path / 'b_timing.csv'}" in capsys.readouterr().out
    # the timing table hashes the inputs it measured; the qubit table reads none
    table_provenance = (tmp_path / "b.csv").read_text().splitlines()[0]
    assert re.fullmatch(r"# config_hash=[0-9a-f]{64} ", table_provenance)
    hashes = " ".join(f"{k}={hashlib.sha256(p.read_bytes()).hexdigest()}"
                      for k, p in inputs.items())
    assert (tmp_path / "b_timing.csv").read_text().splitlines()[0] == f"{table_provenance}{hashes}"


@pytest.mark.parametrize("bad_input,edit,bad", [
    ("case", lambda d: d["generators"][0].update(cost="x"),
     "generators[0]: cost must be a number, got 'x'"),
    ("atlas", lambda d: d.update(coverage=True), "atlas: coverage must be a number, got True"),
], ids=["case", "atlas"])
def test_a_bad_input_file_is_named_first_in_its_error(workdir, tmp_path, capsys, bad_input, edit,
                                                       bad):
    inputs = {"case": Path(TOY), "atlas": workdir / "atlas.json"}
    d = json.loads(inputs[bad_input].read_text())
    edit(d)
    inputs[bad_input] = tmp_path / f"bad_{bad_input}.json"
    inputs[bad_input].write_text(json.dumps(d))
    out = tmp_path / "out"
    command = (["regions", "--case", inputs["case"]] if bad_input == "case" else
               ["eval", "--case", inputs["case"], "--atlas", inputs["atlas"], "--model", "oracle"])
    assert run([*command, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {inputs[bad_input]}: {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags,bad", [
    (["--case", TOY], "measured runtimes need both --case and --atlas"),
    (["--atlas", "atlas.json"], "measured runtimes need both --case and --atlas"),
    (["--model", "mlp.json"], "--model needs --case and --atlas"),
    (["--case", TOY, "--model", "mlp.json"], "measured runtimes need both --case and --atlas"),
    (["--case", TOY, "--atlas", "atlas.json", "--model", "vqc.json"],
     "--model must be an mlp checkpoint, got "),
    (["--case", TOY, "--atlas", "atlas.json", "--model", "oracle"],
     "--model must be an mlp checkpoint, got oracle"),
])
def test_budget_input_it_would_ignore_is_a_usage_error(workdir, tmp_path, capsys, flags, bad):
    flags = [workdir / f if f.endswith(".json") and f != TOY else f for f in flags]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["budget", *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


def test_report_concatenates(workdir, tmp_path):
    assert run(["eval", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", "oracle", "--scenarios", 20, "--seed", 7,
                "--out-dir", tmp_path, "--out", "m.json"]) == 0
    assert run(["budget", "--out-dir", tmp_path, "--out", "b.csv"]) == 0
    assert run(["report", "--dir", tmp_path]) == 0
    summary = (tmp_path / "summary.md").read_text()
    assert "m.json" in summary
    assert "b.csv" in summary



def test_report_writes_a_json_file_that_is_not_an_object_as_it_is(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps([1, 2]))
    (tmp_path / "b.json").write_text(json.dumps({"result": {"x": 1}, "seed": 0}))
    assert run(["report", "--dir", tmp_path]) == 0
    summary = (tmp_path / "summary.md").read_text()
    assert "## a.json\n\n```json\n[\n 1,\n 2\n]\n```" in summary
    assert "## b.json\n\n```json\n{\n \"x\": 1\n}\n```" in summary
    assert "report: 2 artifacts" in capsys.readouterr().out

def test_config_file_precedence(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regions": {"budget": 64, "seed": 8}}))
    assert run(["regions", "--case", TOY, "--config", cfg,
                "--out-dir", tmp_path, "--out", "a1.json"]) == 0
    a1 = read_json(tmp_path / "a1.json")
    assert a1["provenance"]["sampling_budget"] == 64
    assert a1["provenance"]["seed"] == 8
    # flag beats config file
    assert run(["regions", "--case", TOY, "--config", cfg, "--budget", 32,
                "--out-dir", tmp_path, "--out", "a2.json"]) == 0
    a2 = read_json(tmp_path / "a2.json")
    assert a2["provenance"]["sampling_budget"] == 32
    # a config value is cast to its flag's type: "gamma": 0 hashes as --gamma 0 does
    cfg.write_text(json.dumps({"audit": {"gamma": 0}}))
    audit = ["audit", "--case", TOY, "--atlas", workdir / "atlas.json", "--model", "oracle",
             "--pairs", 5, "--out-dir", tmp_path]
    assert run([*audit, "--config", cfg, "--out", "p1.json"]) == 0
    assert run([*audit, "--gamma", 0, "--out", "p2.json"]) == 0
    p1, p2 = read_json(tmp_path / "p1.json"), read_json(tmp_path / "p2.json")
    assert p1["provenance"]["config_hash"] == p2["provenance"]["config_hash"]
    assert strip_timing(p1) == strip_timing(p2)


def test_all_commands_deterministic(workdir, tmp_path):
    """Fixed seeds: bitwise-identical outputs, timing fields excluded."""
    def run_all(out):
        out.mkdir(exist_ok=True)
        run(["regions", "--case", TOY, "--budget", 100, "--seed", 5,
             "--out-dir", out, "--out", "atlas.json"])
        run(["train", "--case", TOY, "--atlas", out / "atlas.json",
             "--model", "vqc", "--samples", 80, "--epochs", 2, "--qubits", 2,
             "--layers", 1, "--seed", 9, "--out-dir", out, "--out", "v.json"])
        run(["audit", "--case", TOY, "--atlas", out / "atlas.json",
             "--model", out / "v.json", "--gamma", 0.2, "--beta", 1.0,
             "--pairs", 30, "--seed", 2, "--out-dir", out, "--out", "p.json"])
        run(["eval", "--case", TOY, "--atlas", out / "atlas.json",
             "--model", out / "v.json", "--scenarios", 50, "--seed", 7,
             "--out-dir", out, "--out", "m.json"])
        run(["sweep", "--case", TOY, "--atlas", out / "atlas.json",
             "--model", out / "v.json", "--scenarios", 30, "--seed", 3,
             "--gamma-grid", "0,0.5", "--beta-grid", "1", "--out-dir", out,
             "--out", "h.csv"])
        run(["budget", "--out-dir", out, "--out", "b.csv"])
        run(["report", "--dir", out])

    a, b = tmp_path / "runA", tmp_path / "runB"
    run_all(a)
    run_all(b)
    for name in sorted(p.name for p in a.iterdir()):
        pa, pb = a / name, b / name
        if name.endswith(".json"):
            da, db = read_json(pa), read_json(pb)
            assert strip_timing(da) == strip_timing(db), name
        elif name.endswith("_timing.csv"):
            continue
        else:
            assert pa.read_bytes() == pb.read_bytes(), name


def csv_body(path):
    """A CLI table without its provenance line."""
    return Path(path).read_text().splitlines()[1:]


def test_eval_and_sweep_report_their_projection_work(workdir, tmp_path, capsys):
    assert run(["eval", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--gamma", 0.5, "--beta", 0.5,
                "--scenarios", 200, "--seed", 7, "--out-dir", tmp_path, "--out", "m.json"]) == 0
    rep = read_json(tmp_path / "m.json")["result"]
    picks = round(rep["infeasibility_rate"] * 200)
    assert picks > 0
    assert f", {picks} infeasible picks, {picks} projection LPs -> " in capsys.readouterr().out
    assert "counters" not in rep and "infeasible_picks" not in json.dumps(rep)

    assert run(["sweep", "--case", TOY, "--atlas", workdir / "atlas.json",
                "--model", workdir / "vqc.json", "--scenarios", 60, "--seed", 3,
                "--gamma-grid", "0,0.5", "--beta-grid", "0.5,1,1000",
                "--out-dir", tmp_path, "--out", "h.csv"]) == 0
    line = capsys.readouterr().out
    rows = list(csv.DictReader(csv_body(tmp_path / "h.csv")))
    picks = sum(round(float(r["infeasibility_pct"]) * 60 / 100) for r in rows)
    assert line.startswith(f"sweep: 6 cells, {picks} infeasible picks, ")
    lps = int(line.split(" infeasible picks, ")[1].split(" projection LPs")[0])
    assert 0 < lps < picks
    assert list(rows[0]) == ["gamma", "beta", "infeasibility_pct", "cost_gap_pct", "accuracy"]


def test_full_sweep_reproduces_the_reference_heatmap(tmp_path, capsys):
    assert run(["sweep", "--case", case_path("ieee69"), "--atlas", FIXTURES / "atlas.json",
                "--model", FIXTURES / "vqc.json", "--gamma-grid", "0,0.1,0.2,0.3,0.4,0.5",
                "--beta-grid", "0.5,1,2,4,1000", "--scenarios", 40, "--seed", 0,
                "--out-dir", tmp_path]) == 0
    assert "sweep: 30 cells, 99 infeasible picks, 29 projection LPs -> " in capsys.readouterr().out
    reference = FIXTURES / "reference" / "sweep" / "full" / "heatmap.csv"
    assert csv_body(tmp_path / "heatmap.csv") == csv_body(reference)


# the audit sizes of perfbench/workloads.py, at the online workload's seed 0
AUDIT_SIZES = {
    "mini": {"pairs": 10, "grid_pairs": 50, "gammas": "0,0.5", "betas": "1,4",
             "mlp_pairs": 10, "mlp_draws": 200},
    "full": {"pairs": 100, "grid_pairs": 1000, "gammas": "0,0.1,0.2,0.3,0.4,0.5",
             "betas": "0.1,0.2,0.5,1,2,4,7,10", "mlp_pairs": 100, "mlp_draws": 2000},
}


def canonical(path):
    """A CLI artifact's bytes as the benchmark references keep them: JSON without ``timing``."""
    if path.suffix != ".json":
        return path.read_bytes()
    return json.dumps(strip_timing(read_json(path)), sort_keys=True).encode()


@pytest.mark.parametrize("size", ["mini", "full"])
def test_audit_reproduces_the_reference_artifacts(tmp_path, size):
    sz = AUDIT_SIZES[size]
    common = ["audit", "--case", case_path("ieee69"), "--atlas", FIXTURES / "atlas.json",
              "--seed", 0, "--out-dir", tmp_path]
    vqc = ["--model", FIXTURES / "vqc.json"]
    assert run([*common, *vqc, "--gamma", 0.0, "--beta", 1.0, "--pairs", sz["pairs"],
                "--out", "privacy.json"]) == 0
    assert run([*common, *vqc, "--gamma-grid", sz["gammas"], "--beta-grid", sz["betas"],
                "--pairs", sz["grid_pairs"], "--out", "audit_sweep.csv"]) == 0
    assert run([*common, "--model", FIXTURES / "mlp.json", "--beta", 1.0, "--mlp-sigma", 0.5,
                "--mlp-draws", sz["mlp_draws"], "--pairs", sz["mlp_pairs"],
                "--out", "privacy_mlp.json"]) == 0
    reference = FIXTURES / "reference" / "audit" / size
    for name in ("privacy.json", "audit_sweep.csv", "privacy_mlp.json"):
        assert canonical(tmp_path / name) == (reference / name).read_bytes(), name


# the train sizes of perfbench/workloads.py, (samples, epochs), at the train workload's seed 3
TRAIN_SIZES = {"mini": {"vqc": (40, 1), "mlp": (200, 2)},
               "full": {"vqc": (1000, 1), "mlp": (3000, 30)}}


def close(ref, got, rtol=1e-6, atol=1e-9):
    """Equal JSON trees, floats within the benchmark's train tolerance."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() == got.keys() and all(
            close(ref[k], got[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            close(a, b) for a, b in zip(ref, got))
    if isinstance(ref, float):
        return isinstance(got, float) and abs(got - ref) <= atol + rtol * abs(ref)
    return ref == got


@pytest.mark.parametrize("size", ["mini", "full"])
def test_train_reproduces_the_reference_artifacts(tmp_path, size):
    reference = FIXTURES / "reference" / "train" / size
    for kind, (samples, epochs) in TRAIN_SIZES[size].items():
        assert run(["train", "--case", case_path("ieee69"), "--atlas", FIXTURES / "atlas.json",
                    "--seed", 3, "--out-dir", tmp_path, "--model", kind, "--samples", samples,
                    "--epochs", epochs, "--out", f"{kind}.json"]) == 0
        log = f"{kind}.log.csv"
        assert (tmp_path / log).read_bytes() == (reference / log).read_bytes(), log
    assert canonical(tmp_path / "mlp.json") == (reference / "mlp.json").read_bytes()
    # the VQC reference predates adjoint gradients: its phi differs in the tenth digit
    assert close(read_json(reference / "vqc.json"), json.loads(canonical(tmp_path / "vqc.json")))


def test_grid_audit_fails_the_bound_on_a_saturated_cell(tmp_path, capsys):
    """At beta = 100 some pairs have a one-sided zero probability: eps = inf."""
    assert run(["audit", "--case", case_path("ieee69"), "--atlas", FIXTURES / "atlas.json",
                "--model", FIXTURES / "vqc.json", "--gamma-grid", 0, "--beta-grid", 100,
                "--pairs", 100, "--seed", 0, "--out-dir", tmp_path]) == 0
    assert "audit grid: 1 points, bound_satisfied=False -> " in capsys.readouterr().out


@pytest.mark.parametrize("command,flags,bad", [
    ("sweep", ["--gamma-grid", "1.5,nan", "--beta-grid", "1,-2"], "gamma .* 1.5"),
    ("sweep", ["--gamma-grid", "0,0.5", "--beta-grid", "1,-2"], "beta .* -2.0"),
    ("sweep", ["--gamma-grid", "0,nan", "--beta-grid", "1"], "gamma .* nan"),
    ("eval", ["--gamma", "nan"], "gamma .* nan"),
    ("eval", ["--gamma", "1.01"], "gamma .* 1.01"),
    ("eval", ["--beta", "0"], "beta .* 0.0"),
    ("audit", ["--gamma-grid", "0,inf"], "gamma .* inf"),
    ("audit", ["--gamma-grid", "0,0.5", "--beta-grid", "0.5,-1"], "beta .* -1.0"),
    ("audit", ["--beta", "inf"], "beta .* inf"),
])
def test_bad_noise_or_temperature_is_a_usage_error(workdir, tmp_path, capsys, command, flags, bad):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--case", TOY, "--atlas", workdir / "atlas.json",
             "--model", workdir / "vqc.json", *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert re.search(bad, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("model", ["vqc.json", "oracle"])
@pytest.mark.parametrize("flags", [[], ["--gamma-grid", "0", "--beta-grid", "1"]])
def test_mlp_sigma_without_an_mlp_is_a_usage_error(workdir, tmp_path, capsys, model, flags):
    """``--mlp-sigma`` only sets an MLP's noise; with any other model it
    would be ignored, in a single audit and in a grid alike."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["audit", "--case", TOY, "--atlas", workdir / "atlas.json",
             "--model", workdir / model if model.endswith(".json") else model,
             "--mlp-sigma", 0.5, "--pairs", 5, *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert "--mlp-sigma needs an mlp checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["-1", "nan"])
def test_bad_encoding_scale_writes_no_checkpoint(workdir, tmp_path, capsys, scale):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--case", TOY, "--atlas", workdir / "atlas.json", "--samples", 50,
             "--epochs", 1, f"--encoding-scale={scale}", "--out-dir", tmp_path])
    assert exc.value.code == 2
    assert "encoding_scale must be finite and > 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags,config,bad", [
    (["--encoding-scale=-1"], None, "encoding_scale must be finite and > 0, got -1.0"),
    (["--encoding-scale", "nan"], None, "encoding_scale must be finite and > 0, got nan"),
    (["--qubits", "0"], None, "n_q must be >= 1"),
    (["--layers", "0"], None, "L must be >= 1"),
    ([], {"encoding_scale": 0.0}, "encoding_scale must be finite and > 0, got 0.0"),
    ([], {"qubits": -2}, "n_q must be >= 1"),
    ([], {"gate": "cz"}, "unknown trainable_gate 'cz'"),
    ([], {"layers": "six"}, "invalid literal for int()"),
    ([], {"model": "svm"}, "unknown model kind 'svm'"),
    ([], {"samples": "many"}, "invalid literal for int() with base 10: 'many'"),
    (["--gate", "cz"], None, "unknown trainable_gate 'cz'"),
    (["--model", "svm"], {"qubits": 0}, "unknown model kind 'svm'"),
    (["--model", "mlp", "--qubits", "0"], {"gate": "cz"}, "n_q must be >= 1"),
    (["--model", "mlp"], {"gate": "cz"}, "unknown trainable_gate 'cz'"),
    (["--model", "mlp", "--layers", "0"], None, "L must be >= 1"),
    (["--model", "mlp"], {"encoding_scale": 0.0}, "encoding_scale must be finite and > 0"),
    (["--model", "mlp"], {"qubits": 4.0},
     "--qubits: invalid literal for int() with base 10: '4.0'"),
    ([], {"layers": True}, "--layers: invalid literal for int() with base 10: 'True'"),
])
def test_bad_circuit_key_is_a_usage_error(tmp_path, capsys, flags, config, bad):
    # the atlas does not exist: the circuit keys are checked before any input is loaded
    if config is not None:
        (tmp_path / "train.json").write_text(json.dumps({"train": config}))
        flags = [*flags, "--config", tmp_path / "train.json"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["train", "--case", TOY, "--atlas", tmp_path / "missing.json", *flags,
             "--out-dir", out])
    assert exc.value.code == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


def test_too_few_qubits_for_theta_is_a_usage_error(tmp_path, capsys):
    # ieee69 has m = 3 renewables: two qubits would never encode theta component 2
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["train", "--case", case_path("ieee69"), "--atlas", FIXTURES / "atlas.json",
             "--model", "vqc", "--qubits", 2, "--samples", 50, "--epochs", 1, "--out-dir", out])
    assert exc.value.code == 2
    assert "leaves theta component 2 of 3 unencoded" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["vqc", "mlp"])
@pytest.mark.parametrize("flags,bad", [
    (["--train-beta", "0"], "beta .* 0.0"),
    (["--train-beta", "nan"], "beta .* nan"),
    (["--lr", "nan"], "learning_rate .* nan"),
])
def test_bad_train_beta_or_lr_is_a_usage_error(workdir, tmp_path, capsys, model, flags, bad):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["train", "--case", TOY, "--atlas", workdir / "atlas.json", "--model", model,
             "--samples", 50, "--epochs", 1, *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert re.search(bad, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags,bad", [
    (["--split", "-0.5"], r"split must be in \[0, 1\), got -0.5"),
    (["--split", "nan"], r"split must be in \[0, 1\), got nan"),
    (["--split", "0.999", "--samples", "200"], "leaves no training sample"),
    (["--split", "0"], "leaves no test sample"),
    (["--split", "0.001", "--samples", "100"], "leaves no test sample"),
])
def test_split_without_training_samples_is_a_usage_error(tmp_path, capsys, flags, bad):
    # the atlas does not exist: the split is checked before any input is loaded
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["train", "--case", TOY, "--atlas", tmp_path / "missing.json", *flags,
             "--out-dir", out])
    assert exc.value.code == 2
    assert re.search(bad, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command,flags,bad", [
    ("regions", ["--coverage-samples", "0"], "--coverage-samples must be >= 1, got 0"),
    ("regions", ["--budget", "0"], "--budget must be >= 1, got 0"),
    ("eval", ["--model", "oracle", "--scenarios", "0"], "--scenarios must be >= 1, got 0"),
    ("sweep", ["--model", "oracle", "--gamma-grid", "0", "--beta-grid", "1", "--scenarios", "0"],
     "--scenarios must be >= 1, got 0"),
    ("audit", ["--model", "oracle", "--pairs", "0"], "--pairs must be >= 1, got 0"),
    ("audit", ["--model", "oracle", "--mlp-sigma", "0.5", "--mlp-draws", "0"],
     "--mlp-draws must be >= 1, got 0"),
    ("regions", ["--config", {"budget": "abc"}], "invalid literal for int() with base 10: 'abc'"),
    ("eval", ["--model", "oracle", "--config", {"scenarios": 0}], "--scenarios must be >= 1, got 0"),
    # a config value is cast as its flag's string is: no fraction and no boolean is a count
    ("budget", ["--ours", "5.7"], "--ours: invalid literal for int() with base 10: '5.7'"),
    ("budget", ["--config", {"ours": 5.7}],
     "--ours: invalid literal for int() with base 10: '5.7'"),
    ("budget", ["--config", {"variables": True}],
     "--variables: invalid literal for int() with base 10: 'True'"),
    ("eval", ["--model", "oracle", "--config", {"beta": False}],
     "--beta: could not convert string to float: 'False'"),
    # an integer string is a count, as on the command line; the next key then fails
    ("regions", ["--config", {"budget": "4", "coverage_samples": 0}],
     "--coverage-samples must be >= 1, got 0"),
])
def test_empty_count_is_a_usage_error(tmp_path, capsys, command, flags, bad):
    # no input exists: the count is checked before any input is loaded; a dict among the
    # flags is the command's section of a config file, passed by the file's path
    config = tmp_path / "config.json"
    for flag in flags:
        if isinstance(flag, dict):
            config.write_text(json.dumps({command: flag}))
    flags = [config if isinstance(flag, dict) else flag for flag in flags]
    missing = tmp_path / "missing.json"
    atlas = [] if command == "regions" else ["--atlas", missing]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--case", missing, *atlas, *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["regions", "train", "audit", "eval", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    # no input exists: the seed is checked before any input is loaded
    missing = tmp_path / "missing.json"
    atlas = [] if command == "regions" else ["--atlas", missing]
    model = ["--model", "oracle"] if command in ("audit", "eval", "sweep") else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--case", missing, *atlas, *model, "--seed", "-1", "--out-dir", out])
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flags,bad", [
    ("audit", ["--gamma-grid", ",", "--beta-grid", "1"], "--gamma-grid is empty: ','"),
    ("audit", ["--gamma-grid", ""], "--gamma-grid is empty: ''"),
    ("sweep", ["--gamma-grid", ",", "--beta-grid", "1"], "--gamma-grid is empty: ','"),
    ("audit", ["--gamma-grid", "abc"], "--gamma-grid must be comma-separated numbers, got 'abc'"),
    ("sweep", ["--gamma-grid", "0", "--beta-grid", "1,x"],
     "--beta-grid must be comma-separated numbers, got '1,x'"),
    ("audit", ["--mlp-sigma", "nan"], "--mlp-sigma must be finite and >= 0, got nan"),
    ("audit", ["--mlp-sigma", "inf"], "--mlp-sigma must be finite and >= 0, got inf"),
    ("audit", ["--mlp-sigma=-0.5"], "--mlp-sigma must be finite and >= 0, got -0.5"),
])
def test_bad_grid_or_mlp_sigma_is_a_usage_error(tmp_path, capsys, command, flags, bad):
    # no input exists: the flag is checked before any input is loaded
    missing = tmp_path / "missing.json"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--case", missing, "--atlas", missing, "--model", "oracle", *flags,
             "--out-dir", out])
    assert exc.value.code == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [[], ["--gamma-grid", "0,0.5"]])
def test_non_finite_delta_theta_fails_before_any_draw(tmp_path, capsys, grid):
    # no input exists: delta_theta is checked before any input is loaded
    missing = tmp_path / "missing.json"
    config = tmp_path / "audit.json"
    config.write_text(json.dumps({"audit": {"delta_theta": 0.0}}))
    out = tmp_path / "out"
    for flags, bad in [(["--delta-theta", "nan"], "nan"), (["--delta-theta", "0"], "0.0"),
                       (["--delta-theta=-1"], "-1.0"), (["--config", config], "0.0")]:
        with pytest.raises(SystemExit) as exc:
            run(["audit", "--case", missing, "--atlas", missing, "--model", missing, *flags,
                 *grid, "--out-dir", out])
        assert exc.value.code == 2
        assert f"delta_theta must be finite and > 0, got {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,content,bad", [
    (["regions"], None, "cannot read --config"),
    (["regions"], "directory", "cannot read --config"),
    (["regions"], b'{"regions": {"budget": 5}', "cannot read --config"),
    (["eval", "--model", "oracle"], b"\xff\xfe", "cannot read --config"),
    (["regions"], b"[1, 2]", "must hold a JSON object"),
    (["regions"], b'{"regions": 5}', "section 'regions' must be a JSON object"),
    (["train", "--model", "mlp"], b'{"regions": {}, "train": [1]}',
     "section 'train' must be a JSON object"),
])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, command, content, bad):
    # no input exists: the file is read and checked before any input is loaded; content
    # None leaves the file missing, "directory" makes it a directory
    config = tmp_path / "config.json"
    if content == "directory":
        config.mkdir()
    elif content is not None:
        config.write_bytes(content)
    missing = tmp_path / "missing.json"
    atlas = [] if command[0] == "regions" else ["--atlas", missing]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*command, "--case", missing, *atlas, "--config", config, "--out-dir", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert bad in err and str(config) in err
    assert not out.exists()
