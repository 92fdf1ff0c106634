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
)
from tests.conftest import TOY_CASE_DICT


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


def with_line_missing_from(raw):
    del raw["lines"][0]["from"]


def with_generator_bus(value):
    def edit(raw):
        raw["generators"][0]["bus"] = value
    return edit


def with_section(key, value):
    def edit(raw):
        raw[key] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    pytest.param(with_generator_bus(1.5),
                 r"generators\[0\]: bus id must be an integer, got 1.5", id="float-bus"),
    pytest.param(with_generator_bus(True),
                 r"generators\[0\]: bus id must be an integer, got True", id="bool-bus"),
    pytest.param(with_generator_bus("1"),
                 r"generators\[0\]: bus id must be an integer, got '1'", id="string-bus"),
    pytest.param(with_line_missing_from, r"lines\[0\]: missing field 'from'", id="no-from"),
    pytest.param(with_section("buses", [1, 2.0]),
                 r"buses\[1\]: bus id must be an integer, got 2.0", id="float-in-buses"),
    pytest.param(with_section("lines", {}), "'lines' must be a list, got dict", id="lines-object"),
    pytest.param(with_section("renewables", None), "'renewables' must be a list, got NoneType",
                 id="renewables-null"),
    pytest.param(with_section("demands", [3]), r"demands\[0\] must be an object, got int",
                 id="demand-number"),
])
def test_malformed_ids_and_sections_are_case_errors(tmp_path, edit, message):
    raw = copy.deepcopy(TOY_CASE_DICT)
    edit(raw)
    with pytest.raises(CaseError, match=message):
        case_from_dict(raw)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CaseError, match=message):
        load_case(path)


@pytest.mark.parametrize("top", [[], 3, "case", None])
def test_a_case_file_that_is_not_an_object_is_a_case_error(tmp_path, top):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(top))
    with pytest.raises(CaseError, match="must hold a JSON object"):
        load_case(path)
