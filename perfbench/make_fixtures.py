"""Build the committed inputs and reference outputs of the benchmark.

    python3 perfbench/make_fixtures.py inputs      # atlas + checkpoints (~20 min)
    python3 perfbench/make_fixtures.py reference   # per-workload reference artifacts

``inputs`` runs the README offline phase on ``ieee69`` through the CLI:
the atlas at budget 3000 / seed 11 and the VQC and MLP checkpoints of
the README ``train`` commands (seed 3, 30 epochs).  The ``train`` and
``online`` workloads read these files instead of rebuilding them, so a
later change to enumeration or training does not change their inputs.
``reference`` runs every workload once at its default seed and keeps
each CLI artifact with its timing removed; every benchmark run at the
default seed is compared against these files.  Re-run a phase only when
the seeded behaviour of the code is meant to change, and say so.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from common import CASE, FIXTURES, REFERENCE, WORK, canonical_artifact, import_qpopf, sha256_file

INPUT_FILES = ("atlas.json", "vqc.json", "vqc.log.csv", "mlp.json", "mlp.log.csv")


def make_inputs() -> None:
    import_qpopf()
    from qpopf.cli import main as cli

    out = WORK / "fixtures"
    shutil.rmtree(out, ignore_errors=True)
    common = ["--case", str(CASE), "--out-dir", str(out)]
    steps = [
        ["regions", *common, "--budget", "3000", "--seed", "11", "--out", "atlas.json"],
        ["train", *common, "--atlas", str(out / "atlas.json"), "--model", "vqc",
         "--seed", "3", "--out", "vqc.json"],
        ["train", *common, "--atlas", str(out / "atlas.json"), "--model", "mlp",
         "--seed", "3", "--out", "mlp.json"],
    ]
    for argv in steps:
        if cli(argv) != 0:
            raise SystemExit(f"fixture step failed: qpopf {' '.join(argv)}")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name in INPUT_FILES:
        shutil.copyfile(out / name, FIXTURES / name)


def make_reference() -> None:
    import_qpopf()
    from tracer import Tracer
    from workloads import WORKLOADS, reference_path, run_pass

    shutil.rmtree(REFERENCE, ignore_errors=True)
    for name, spec in WORKLOADS.items():
        result = run_pass(name, spec.default_seed, Tracer(), check_reference=False,
                          timed_setups=False)
        failed = [c for c in result.checks if not c[1]]
        if failed:
            raise SystemExit(f"{name}: checks failed, no reference written: {failed}")
        for stage, full, path in result.artifacts:
            dest = reference_path(stage, full, path.name)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(canonical_artifact(path))


def write_sums() -> None:
    files = sorted(p for p in FIXTURES.rglob("*") if p.is_file() and p.name != "SHA256SUMS")
    lines = [f"{sha256_file(p)}  {p.relative_to(FIXTURES).as_posix()}" for p in files]
    (FIXTURES / "SHA256SUMS").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["inputs", "reference"])
    args = parser.parse_args(argv)
    if args.phase == "inputs":
        make_inputs()
    else:
        make_reference()
    write_sums()
    return 0


if __name__ == "__main__":
    sys.exit(main())
