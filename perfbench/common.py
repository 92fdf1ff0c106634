"""Paths, thread pinning and the checked import of the package under test.

Every benchmark script imports this module first: it pins the BLAS
thread pools before numpy loads and glibc's malloc thresholds before
anything large is allocated, and it imports ``qpopf`` from the ``src/``
tree next to this directory, never from an installed copy.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

# glibc's malloc raises its mmap threshold after the first large free,
# so whether the circuit code's ~3 MB temporaries are mmapped, and fault
# in afresh on every use, depends on what the process freed before: the
# same full train stage took 1.06 million minor faults (3.5 s of system
# time) in one fresh process and about 6,000 in two others.  Fixed
# thresholds make every run allocate the same way.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 64 << 20


def _pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, MALLOC_MMAP_THRESHOLD)
                and mallopt(m_trim_threshold, MALLOC_TRIM_THRESHOLD))


MALLOC_PINNED = _pin_malloc()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
REFERENCE = FIXTURES / "reference"
CASE = SRC / "qpopf" / "data" / "ieee69.json"
# Scratch space for CLI artifacts; listed in the root .gitignore.
WORK = ROOT / ".bench_build" / "perfbench"


class MissingSourceError(RuntimeError):
    """The package sources are not next to the benchmark."""


def import_qpopf():
    """Import ``qpopf`` from ``<root>/src`` and refuse any other copy."""
    if not (SRC / "qpopf" / "__init__.py").is_file():
        raise MissingSourceError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpopf
    import qpopf.cli  # noqa: F401  (not imported by the package itself)

    origin = Path(qpopf.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSourceError(f"qpopf imported from {origin}, not from {SRC}")
    return qpopf


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def strip_timing(payload):
    """Drop every ``timing`` key, at any depth, from a JSON document."""
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k != "timing"}
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload


def canonical_artifact(path: Path) -> bytes:
    """Bytes of a CLI artifact with its timing removed.

    JSON files are re-serialized without ``timing``; CSV files are
    compared as written (timing lives only in ``*_timing.csv``).
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = strip_timing(json.loads(path.read_text()))
        return json.dumps(doc, sort_keys=True).encode()
    return path.read_bytes()
