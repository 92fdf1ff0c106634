import copy
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpopf.classifier import load_model
from qpopf.data import case_path
from qpopf.grid import (
    CaseError,
    DegenerateThetaError,
    case_from_dict,
    linearize,
    load_case,
)
from qpopf.regions import RegionAtlas
from tests.conftest import TOY_CASE_DICT

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


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


def with_field(section, key, value):
    def edit(raw):
        raw[section][0][key] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    # True == 1 and 1.0 == 1 in Python; the version is a JSON integer
    pytest.param(with_section("schema_version", True),
                 "case file: schema_version must be an integer, got True", id="version-bool"),
    pytest.param(with_section("schema_version", 1.0),
                 "case file: schema_version must be an integer, got 1.0", id="version-float"),
    pytest.param(with_section("name", 5), "case file: name must be a string, got 5",
                 id="name-int"),
    pytest.param(with_generator_bus(1.5),
                 r"generators\[0\]: bus must be an integer, got 1.5", id="float-bus"),
    pytest.param(with_generator_bus(True),
                 r"generators\[0\]: bus must be an integer, got True", id="bool-bus"),
    pytest.param(with_generator_bus("1"),
                 r"generators\[0\]: bus must be an integer, got '1'", id="string-bus"),
    pytest.param(with_line_missing_from, r"lines\[0\]: missing field 'from'", id="no-from"),
    pytest.param(with_section("buses", [1, 2.0]),
                 r"buses\[1\] must be an integer, got 2.0", id="float-in-buses"),
    pytest.param(with_section("lines", {}), "case file: lines must be a list, got dict",
                 id="lines-object"),
    pytest.param(with_section("renewables", None), "case file: renewables must be a list, got None",
                 id="renewables-null"),
    pytest.param(with_section("demands", [3]), r"demands\[0\] must be an object, got 3",
                 id="demand-number"),
    pytest.param(with_section("voltage_limits", 5),
                 "case file: voltage_limits must be an object, got 5", id="voltage-limits-number"),
    pytest.param(with_section("voltage_limits", {"v_min_pu": "x"}),
                 "voltage_limits: v_min_pu must be a number, got 'x'", id="v-min-string"),
    pytest.param(with_section("voltage_limits", {"v_max_pu": np.inf}),
                 "voltage_limits: v_max_pu must be finite, got inf", id="v-max-inf"),
    pytest.param(with_section("base_mva", "abc"),
                 "case file: base_mva must be a number, got 'abc'", id="base-mva-string"),
    pytest.param(with_section("base_mva", True),
                 "case file: base_mva must be a number, got True", id="base-mva-bool"),
    pytest.param(with_section("base_mva", np.nan),
                 "case file: base_mva must be finite, got nan", id="base-mva-nan"),
    pytest.param(with_field("generators", "cost", True),
                 r"generators\[0\]: cost must be a number, got True", id="cost-bool"),
    pytest.param(with_field("generators", "cost", np.nan),
                 r"generators\[0\]: cost must be finite, got nan", id="cost-nan"),
    pytest.param(with_field("lines", "r_pu", np.inf),
                 r"lines\[0\]: r_pu must be finite, got inf", id="r-pu-inf"),
    pytest.param(with_field("lines", "limit_mw", np.nan),
                 r"lines\[0\]: limit_mw must be finite, got nan", id="limit-nan"),
    pytest.param(with_field("renewables", "deviation_kw", np.nan),
                 r"renewables\[0\]: deviation_kw must be finite, got nan",
                 id="deviation-nan"),
    pytest.param(with_field("demands", "elastic", 1),
                 r"demands\[0\]: elastic must be a boolean, got 1",
                 id="elastic-number"),
    pytest.param(with_field("generators", "p_max_mw", 10**400),
                 r"generators\[0\]: p_max_mw must be finite", id="huge-integer"),
])
def test_malformed_ids_and_sections_are_case_errors(tmp_path, edit, message):
    raw = copy.deepcopy(TOY_CASE_DICT)
    edit(raw)
    with pytest.raises(CaseError, match=message):
        case_from_dict(raw)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CaseError, match=f"{re.escape(str(path))}: {message}"):
        load_case(path)


@pytest.mark.parametrize("top", [[], 3, "case", None])
def test_a_case_file_that_is_not_an_object_is_a_case_error(tmp_path, top):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(top))
    with pytest.raises(CaseError, match=f"{re.escape(str(path))}: case file must be an object"):
        load_case(path)


SINGLE_BUS_CASE = {
    "schema_version": 1, "name": "single", "base_mva": 1.0, "buses": [1], "lines": [],
    "generators": [{"bus": 1, "cost": 30.0, "p_min_mw": 0.0, "p_max_mw": 2.0}],
    "demands": [{"bus": 1, "p_mw": 0.4, "q_mvar": 0.1}],
    "renewables": [{"bus": 1, "forecast_mw": 0.1, "deviation_kw": 20.0}],
}
# Lines listed child -> parent, one with r_pu = 0 and one with x_pu = 0,
# no generator, and two renewables at one bus.
STAR_CASE = {
    "schema_version": 1, "name": "star", "base_mva": 10.0, "buses": [1, 2, 3, 4],
    "lines": [
        {"from": 2, "to": 1, "r_pu": 0.0, "x_pu": 0.02, "limit_mw": 3.0},
        {"from": 3, "to": 1, "r_pu": 0.01, "x_pu": 0.0, "limit_mw": 3.0},
        {"from": 4, "to": 1, "r_pu": 0.02, "x_pu": 0.03, "limit_mw": 3.0},
    ],
    "generators": [],
    "demands": [
        {"bus": 2, "p_mw": 0.3, "q_mvar": 0.1},
        {"bus": 3, "p_mw": 0.2, "q_mvar": 0.05},
        {"bus": 4, "elastic": True, "p_min_mw": 0.0, "p_max_mw": 0.4},
    ],
    "renewables": [
        {"bus": 3, "forecast_mw": 0.1, "deviation_kw": 10.0},
        {"bus": 3, "forecast_mw": 0.05, "deviation_kw": 5.0},
    ],
}

# Bus 2 has two children, so its reactive load sums in child order:
# (0.1 + 0.2) + 0.15 and (0.1 + 0.15) + 0.2 differ in the last bit.
TREE_CASE = {
    "schema_version": 1, "name": "tree", "base_mva": 1.0, "buses": [1, 2, 3, 4, 5],
    "lines": [
        {"from": 1, "to": 2, "r_pu": 0.01, "x_pu": 0.05, "limit_mw": 2.0},
        {"from": 2, "to": 3, "r_pu": 0.02, "x_pu": 0.01, "limit_mw": 2.0},
        {"from": 4, "to": 2, "r_pu": 0.03, "x_pu": 0.04, "limit_mw": 2.0},
        {"from": 4, "to": 5, "r_pu": 0.01, "x_pu": 0.01, "limit_mw": 2.0},
    ],
    "generators": [{"bus": 1, "cost": 20.0, "p_min_mw": 0.0, "p_max_mw": 3.0}],
    "demands": [
        {"bus": 2, "p_mw": 0.2, "q_mvar": 0.1},
        {"bus": 3, "p_mw": 0.3, "q_mvar": 0.2},
        {"bus": 4, "p_mw": 0.1, "q_mvar": 0.15},
        {"bus": 3, "elastic": True, "p_min_mw": 0.0, "p_max_mw": 0.2},
    ],
    "renewables": [{"bus": 5, "forecast_mw": 0.1, "deviation_kw": 15.0}],
}


@pytest.mark.parametrize("case,digest", [
    ("toy2", "c529d024b48fa226595388d2fcee98db71a36c28ee4ef48668a96299417d92a3"),
    ("ieee69", "94ab910cae33968a74f5658ec9fc83ad3d7fc7aa751b456b5909b4222007980a"),
    (SINGLE_BUS_CASE, "89283c97542706ecf6f9f45accb390c4210c24029abed6cb23167c475505f543"),
    (STAR_CASE, "9c5085b2f1ab3caf488f3ce3b75f00f8900a40813e2f0b3aaa47ab73f3e6ed54"),
    (TREE_CASE, "9079a2f51f1b0bf55b559ac9f1059465db5ca3e0d81c261c6ec5d2366aa68a82"),
], ids=["toy2", "ieee69", "single-bus", "star", "tree"])
def test_linearize_is_pinned(case, digest):
    """The LP's bytes (``hash_hex``) and its row and column tables are pinned."""
    case = load_case(case_path(case)) if isinstance(case, str) else case_from_dict(case)
    plp = linearize(case)
    tables = [plp.hash_hex(), plp.var_names, plp.con_names, plp.eq_pairs]
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == digest


MISSING = object()  # a field the fault deletes
# each fault: the value it writes, and the words after "{section}: {field}"
FAULTS = {
    "missing": (MISSING, None),
    "bool-for-integer": (True, "must be an integer, got True"),
    "string-for-number": ("x", "must be a number, got 'x'"),
    "list-for-object": ([], "must be an object, got list"),
}
# each saved file: its reader, a valid file, and per fault the field it
# edits (its path of keys) and the section the message names
SAVED_FILES = {
    "case": (load_case, case_path("toy2"), {
        "missing": (("generators", 0, "cost"), "generators[0]"),
        "bool-for-integer": (("generators", 0, "bus"), "generators[0]"),
        "string-for-number": (("generators", 0, "cost"), "generators[0]"),
        "list-for-object": (("voltage_limits",), "case file"),
    }),
    "atlas": (RegionAtlas.load, FIXTURES / "atlas.json", {
        "missing": (("regions", 0, "degenerate"), "atlas region 1"),
        "bool-for-integer": (("regions", 0, "id"), "atlas regions[0]"),
        "string-for-number": (("coverage",), "atlas"),
        "list-for-object": (("provenance",), "atlas"),
    }),
    "checkpoint": (load_model, FIXTURES / "vqc.json", {
        "missing": (("head", "beta"), "head"),
        "bool-for-integer": (("config", "n_q"), "config"),
        "string-for-number": (("head", "beta"), "head"),
        "list-for-object": (("head",), "checkpoint"),
    }),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("saved", SAVED_FILES)
def test_every_saved_file_words_a_fault_alike(tmp_path, saved, fault):
    read, source, fields = SAVED_FILES[saved]
    keys, section = fields[fault]
    value, words = FAULTS[fault]
    d = json.loads(Path(source).read_text())
    entry = d
    for key in keys[:-1]:
        entry = entry[key]
    if value is MISSING:
        del entry[keys[-1]]
    else:
        entry[keys[-1]] = value
    path = tmp_path / f"{saved}.json"
    path.write_text(json.dumps(d))
    field = keys[-1]
    with pytest.raises(ValueError) as err:
        read(path)
    detail = f"missing field {field!r}" if words is None else f"{field} {words}"
    assert str(err.value) == f"{path}: {section}: {detail}"
    assert isinstance(err.value, CaseError) == (saved == "case")
