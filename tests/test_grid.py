import copy
import json

import numpy as np
import pytest

from qpopf.grid import (
    CaseError,
    DegenerateThetaError,
    case_from_dict,
    linearize,
    load_case,
    normalize_theta,
)
from tests.conftest import TOY_CASE_DICT


def denormalize_theta(theta_normalized: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Inverse of :func:`qpopf.grid.normalize_theta`."""
    theta = np.asarray(theta_normalized, dtype=float)
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    return lo + (theta + 1.0) * (hi - lo) / 2.0


def test_load_toy_case(tmp_path, toy_case):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_CASE_DICT))
    case = load_case(path)
    assert len(case.lines) == 1
    assert case.root == 1
    assert case.m == 1


def test_cycle_rejected():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["buses"] = [1, 2, 3]
    raw["lines"] = [
        {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0},
        {"from": 2, "to": 3, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0},
        {"from": 3, "to": 1, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0},
    ]
    with pytest.raises(CaseError, match="non-radial"):
        case_from_dict(raw)


def test_disconnected_rejected():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["buses"] = [1, 2, 3, 4]
    raw["lines"] = [
        {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0},
        {"from": 3, "to": 4, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": 5.0},
        {"from": 3, "to": 4, "r_pu": 0.02, "x_pu": 0.03, "limit_mw": 5.0},
    ]
    with pytest.raises(CaseError):
        case_from_dict(raw)


def test_dangling_bus_reference():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["generators"] = [{"bus": 99, "cost": 50.0, "p_min_mw": 0.0, "p_max_mw": 10.0}]
    with pytest.raises(CaseError, match="99"):
        case_from_dict(raw)


def test_limits_order_checked():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["generators"] = [{"bus": 1, "cost": 50.0, "p_min_mw": 5.0, "p_max_mw": 1.0}]
    with pytest.raises(CaseError, match="p_min > p_max"):
        case_from_dict(raw)


def test_missing_case_file():
    with pytest.raises(FileNotFoundError):
        load_case("/nonexistent/case.json")


def test_bad_schema_version():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["schema_version"] = 99
    with pytest.raises(CaseError, match="schema_version"):
        case_from_dict(raw)


def test_linearize_toy_structure(toy_case_plp):
    plp = toy_case_plp
    # one generator + one flow variable
    assert plp.n == 2
    assert plp.m == 1
    # balance equalities appear as opposing pairs
    assert len(plp.eq_pairs) == 2
    for i, j in plp.eq_pairs:
        np.testing.assert_allclose(plp.W[i], -plp.W[j])
        assert plp.S[i] == -plp.S[j]
        np.testing.assert_allclose(plp.T[i], -plp.T[j])


def test_paired_rows_have_opposite_residuals(toy_case_plp):
    plp = toy_case_plp
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(size=plp.n)
        theta = rng.uniform(-1, 1, size=plp.m)
        resid = plp.W @ x - plp.rhs(theta)
        for i, j in plp.eq_pairs:
            assert resid[i] == pytest.approx(-resid[j], abs=1e-12)


def test_zero_deviation_rejected():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["renewables"] = [{"bus": 2, "forecast_mw": 0.2, "deviation_kw": 0.0}]
    case = case_from_dict(raw)
    with pytest.raises(DegenerateThetaError):
        linearize(case)


def test_zero_impedance_line_rejected():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["lines"] = [{"from": 1, "to": 2, "r_pu": 0.0, "x_pu": 0.0, "limit_mw": 5.0}]
    with pytest.raises(CaseError, match="zero-impedance"):
        linearize(case_from_dict(raw))


def test_missing_flow_limit_rejected():
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["lines"] = [{"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.02, "limit_mw": None}]
    with pytest.raises(CaseError, match="no limit"):
        linearize(case_from_dict(raw))


def test_normalize_examples():
    box = np.array([[-10.0, 10.0]])
    assert normalize_theta(np.array([10.0]), box)[0] == pytest.approx(1.0)
    assert normalize_theta(np.array([0.0]), box)[0] == pytest.approx(0.0)
    assert normalize_theta(np.array([-5.0]), box)[0] == pytest.approx(-0.5)


def test_normalize_out_of_box():
    box = np.array([[-10.0, 10.0]])
    with pytest.raises(ValueError, match="outside"):
        normalize_theta(np.array([10.1]), box)


def test_normalize_round_trip():
    rng = np.random.default_rng(11)
    box = np.array([[-10.0, 10.0], [-4.0, 6.0], [-1.0, 1.0]])
    for _ in range(1000):
        theta = rng.uniform(box[:, 0], box[:, 1])
        back = denormalize_theta(normalize_theta(theta, box), box)
        np.testing.assert_allclose(back, theta, atol=1e-12)


def test_theta_box_is_normalized(toy_case_plp):
    np.testing.assert_allclose(toy_case_plp.theta_box, [[-1.0, 1.0]])


def test_plp_hash_stable(toy_case):
    h1 = linearize(toy_case).hash_hex()
    h2 = linearize(toy_case).hash_hex()
    assert h1 == h2
    raw = copy.deepcopy(TOY_CASE_DICT)
    raw["generators"][0]["cost"] = 51.0
    h3 = linearize(case_from_dict(raw)).hash_hex()
    assert h3 != h1
