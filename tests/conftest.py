import numpy as np
import pytest

from qpopf.data import case_path
from qpopf.grid import GridCase, ParametricLP, case_from_dict, linearize, load_case

TOY_CASE_DICT = {
    "schema_version": 1,
    "name": "toy2",
    "base_mva": 1.0,
    "buses": [1, 2],
    "lines": [{"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0}],
    "generators": [{"bus": 1, "cost": 50.0, "p_min_mw": 0.0, "p_max_mw": 10.0}],
    "demands": [{"bus": 2, "p_mw": 0.5, "q_mvar": 0.1}],
    "renewables": [{"bus": 2, "forecast_mw": 0.2, "deviation_kw": 10.0}],
}


def make_toy_plp() -> ParametricLP:
    """One-parameter LP with the closed-form optimizer x*(t) = max(t, 0).

    min x  s.t.  -x <= -t,  -x <= 0,  x <= 1,  t in [-1, 1].
    """
    plp = ParametricLP(
        c=np.array([1.0]),
        W=np.array([[-1.0], [-1.0], [1.0]]),
        S=np.array([0.0, 0.0, 1.0]),
        T=np.array([[-1.0], [0.0], [0.0]]),
        theta_box=np.array([[-1.0, 1.0]]),
        var_names=["x"],
        con_names=["x_ge_t", "x_ge_0", "x_le_1"],
    )
    plp.validate()
    return plp


@pytest.fixture()
def toy_case() -> GridCase:
    return case_from_dict(TOY_CASE_DICT, name="toy2")


@pytest.fixture()
def toy_case_plp(toy_case) -> ParametricLP:
    return linearize(toy_case)


@pytest.fixture()
def toy_plp() -> ParametricLP:
    return make_toy_plp()


@pytest.fixture(scope="session")
def toy_atlas():
    from qpopf.regions import enumerate_regions

    return enumerate_regions(make_toy_plp(), sampling_budget=128, seed=7)


@pytest.fixture(scope="session")
def case69() -> GridCase:
    return load_case(case_path("ieee69"))


@pytest.fixture(scope="session")
def plp69(case69) -> ParametricLP:
    return linearize(case69)


@pytest.fixture(scope="session")
def atlas69(plp69):
    from qpopf.regions import enumerate_regions

    return enumerate_regions(plp69, sampling_budget=3000, seed=11)


def region_interior_points(atlas, region, count, seed, shrink=1e-6):
    """Rejection-sample strictly interior points of one region."""
    rng = np.random.default_rng(seed)
    box = atlas.theta_box
    out = []
    for _ in range(200_000):
        t = rng.uniform(box[:, 0], box[:, 1])
        if np.all(region.poly_A @ t <= region.poly_b - shrink):
            out.append(t)
            if len(out) == count:
                break
    return np.array(out)


# Flagship training configuration for the 69-bus study.
VQC_SEED = 3
VQC_SCALE = 1.0
TRAIN_SAMPLES = 3000
TRAIN_SPLIT = 600  # held-out 20%


@pytest.fixture(scope="session")
def dataset69(atlas69):
    from qpopf.regions import sample_labeled_dataset

    thetas, labels = sample_labeled_dataset(atlas69, TRAIN_SAMPLES, seed=21)
    train = (thetas[:-TRAIN_SPLIT], labels[:-TRAIN_SPLIT])
    test = (thetas[-TRAIN_SPLIT:], labels[-TRAIN_SPLIT:])
    return train, test


def _code_cache_key(*parts: str) -> str:
    import hashlib
    from pathlib import Path

    import qpopf

    pkg = Path(qpopf.__file__).parent
    h = hashlib.sha256()
    for name in ("circuit.py", "classifier.py", "regions.py", "grid.py", "lp.py"):
        h.update((pkg / name).read_bytes())
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()[:32]


@pytest.fixture(scope="session")
def vqc69(request, atlas69, dataset69):
    """Trained flagship model; cached across runs keyed by code + config."""
    import json
    import tempfile
    from pathlib import Path

    from qpopf.circuit import CircuitConfig
    from qpopf.classifier import TrainConfig, load_model, save_model, train_vqc

    train, test = dataset69
    key = _code_cache_key("vqc69", str(VQC_SEED), str(VQC_SCALE), atlas69.plp_hash)
    cache_dir = Path(tempfile.gettempdir()) / "qpopf-test-cache"
    cache_dir.mkdir(exist_ok=True)
    ckpt = cache_dir / f"vqc69-{key}.json"
    if ckpt.exists():
        model, _ = load_model(ckpt)
        return model
    config = CircuitConfig.default(n_q=5, L=6, m=3, encoding_scale=VQC_SCALE)
    model, _ = train_vqc(train, config, TrainConfig(epochs=30, seed=VQC_SEED), K=atlas69.K)
    save_model(model, ckpt)
    return model


@pytest.fixture(scope="session")
def mlp69(request, atlas69, dataset69):
    import tempfile
    from pathlib import Path

    from qpopf.classifier import TrainConfig, load_model, save_model, train_mlp

    train, test = dataset69
    key = _code_cache_key("mlp69", str(VQC_SEED), atlas69.plp_hash)
    cache_dir = Path(tempfile.gettempdir()) / "qpopf-test-cache"
    cache_dir.mkdir(exist_ok=True)
    ckpt = cache_dir / f"mlp69-{key}.json"
    if ckpt.exists():
        model, _ = load_model(ckpt)
        return model
    mlp, _ = train_mlp(train, TrainConfig(epochs=30, seed=VQC_SEED), K=atlas69.K)
    save_model(mlp, ckpt)
    return mlp
