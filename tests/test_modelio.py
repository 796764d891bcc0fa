"""Model JSON schema round trips and validation messages."""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cforacle import (
    ConfoundedModel,
    FunctionDistribution,
    FunctionTable,
    ValidationError,
    enumerate_functions,
    load_model,
    parse_model,
    save_model,
)
from cforacle.core import (
    MAX_RATIONAL_CHARS,
    MAX_RATIONAL_EXPONENT,
    _as_fraction,
    _exact_str,
)
from cforacle.modelio import (
    distribution_to_json_dict,
    table_from_digits,
    table_to_digits,
)
from cforacle.report import ReproductionReport, render_value
from cforacle.toy import ToyComparison, ToyEquivalenceReport
from conftest import CONST0, CONST1, IDENTITY, binary_distribution

F = Fraction

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "cforacle" / "data"


def test_digit_string_round_trip():
    assert table_to_digits(IDENTITY) == "01"
    assert table_from_digits("01", 2, 2) == IDENTITY
    assert table_from_digits("120", 3, 3) == FunctionTable(3, 3, (1, 2, 0))


def test_digit_string_cardinality_limit():
    with pytest.raises(ValidationError, match="10"):
        table_to_digits(FunctionTable(1, 11, (10,)))


def test_distribution_round_trip(tmp_path):
    pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
    path = tmp_path / "model.json"
    save_model(pf, path)
    assert load_model(path) == pf


def test_confounded_round_trip(tmp_path):
    model = ConfoundedModel(
        2, 2, {(0, CONST0): F(1, 2), (1, CONST1): F(1, 2)}
    )
    path = tmp_path / "confounded.json"
    save_model(model, path)
    assert load_model(path) == model


def test_parse_validation_messages():
    with pytest.raises(ValidationError, match="n_x"):
        parse_model({"pF": {}})
    with pytest.raises(ValidationError, match="sum"):
        parse_model({"n_x": 2, "n_y": 2, "pF": {"01": "1/3"}})
    with pytest.raises(ValidationError, match="rational"):
        parse_model({"n_x": 2, "n_y": 2, "pF": {"01": "half"}})
    with pytest.raises(ValidationError, match="digits"):
        parse_model({"n_x": 2, "n_y": 2, "pF": {"012": "1"}})
    with pytest.raises(ValidationError, match="pF"):
        parse_model({"n_x": 2, "n_y": 2})
    with pytest.raises(ValidationError, match="r_x"):
        parse_model({"n_x": 2, "n_y": 2, "joint": {"00": "1"}})


def test_model_with_both_pF_and_joint_is_rejected():
    with pytest.raises(ValidationError, match="both 'pF' and 'joint'"):
        parse_model({
            "n_x": 2, "n_y": 2, "pF": {"01": "1/2", "10": "1/2"},
            "joint": {"0|01": "1"},
        })


@pytest.mark.parametrize(
    "model",
    [
        {"n_x": 2.7, "n_y": 2, "pF": {"01": "1"}},
        {"n_x": 2, "n_y": True, "pF": {"00": "1"}},
    ],
    ids=["n_x float", "n_y bool"],
)
def test_cardinalities_must_be_json_integers(model):
    with pytest.raises(ValidationError, match="integer fields"):
        parse_model(model)


@pytest.mark.parametrize(
    "model",
    [
        {"n_x": 2, "n_y": 2, "pF": {"0²": "1"}},
        {"n_x": 2, "n_y": 2, "pF": {"١٠": "1"}},
        {"n_x": 2, "n_y": 2, "pF": {"０1": "1"}},
        {"n_x": 2, "n_y": 2, "joint": {" 0|01": "1"}},
        {"n_x": 2, "n_y": 2, "joint": {"+0|01": "1"}},
        {"n_x": 11, "n_y": 2, "joint": {"1_0|00000000000": "1"}},
    ],
    ids=[
        "superscript two",
        "arabic-indic digits",
        "fullwidth zero",
        "r_x with a space",
        "r_x with a sign",
        "r_x with an underscore",
    ],
)
def test_model_keys_must_be_ascii_digits(model):
    # str.isdigit and int() accept all of these; each must be a
    # ValidationError (CLI exit 2), neither a crash nor a silent reading
    with pytest.raises(ValidationError, match="digits|<r_x>"):
        parse_model(model)


def test_rational_text_is_bounded_before_parsing():
    # model JSON and library calls share the one conversion
    assert _as_fraction("1" * MAX_RATIONAL_CHARS) == int("1" * MAX_RATIONAL_CHARS)
    with pytest.raises(ValidationError, match="characters"):
        _as_fraction("1" * (MAX_RATIONAL_CHARS + 1))
    tiny = _as_fraction(f"1e-{MAX_RATIONAL_EXPONENT}")
    assert tiny == F(1, 10**MAX_RATIONAL_EXPONENT)
    with pytest.raises(ValidationError, match="exponent"):
        _as_fraction(f"1e-{MAX_RATIONAL_EXPONENT + 1}")


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"n_x": 2, "n_y": 2, "pF": {"01": "1/2", "01": "1/2", "10": "1/2"}}', "01"),
        ('{"n_x": 2, "n_y": 2, "joint": {"0|01": "1/2", "0|01": "1/2", '
         '"1|10": "1/2"}}', "0|01"),
        ('{"n_x": 3, "n_x": 2, "n_y": 2, "pF": {"01": "1"}}', "n_x"),
    ],
    ids=["pF", "joint", "top level"],
)
def test_repeated_json_key_is_rejected(tmp_path, text, key):
    # json.load alone keeps the last value, so the first two load with
    # weights that sum to 1 although 3/2 is written
    path = tmp_path / "dupkey.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"repeats the key '{re.escape(key)}'"):
        load_model(path)


def test_bundled_reference_models():
    uniform2 = load_model(DATA_DIR / "uniform2.json")
    assert uniform2 == FunctionDistribution.uniform(2, 2)

    mix_if = load_model(DATA_DIR / "mixIF.json")
    assert mix_if == binary_distribution(0, F(1, 2), F(1, 2), 0)

    mix_consts = load_model(DATA_DIR / "mixR0R1.json")
    assert mix_consts == binary_distribution(F(1, 2), 0, 0, F(1, 2))

    model_a = load_model(DATA_DIR / "modelA.json")
    assert model_a == FunctionDistribution.uniform(3, 3)

    model_b = load_model(DATA_DIR / "modelB.json")
    from cforacle.reproduce import affine_ternary_model

    assert model_b == affine_ternary_model()

    app_e = load_model(DATA_DIR / "appE.json")
    from cforacle.identify import restricted_tail_model

    assert app_e == restricted_tail_model(3, ())


def test_serialized_rationals_stay_exact():
    pf = binary_distribution(F(1, 3), F(1, 3), F(1, 3), 0)
    data = distribution_to_json_dict(pf)
    assert data["pF"]["00"] == "1/3"
    assert parse_model(data) == pf


def unlimited_str(value):
    """``str(value)`` with Python's int-to-str digit limit lifted for the
    call only (older 3.10 releases have no limit)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [
    F(0), F(-7), F(1, 3), F(-(10**600), 3), F(2**1999), F(2**2000), F(-(2**2001)),
    F(10**5000), F(10**5000 - 1), F(1, 3**10000), F(7**9000 + 1, 2**31000),
    F(-(10**4299 + 5) * 10**4400, 11),
])
def test_exact_text_is_str_at_any_length(value):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    assert _exact_str(value) == unlimited_str(value)
    if get_limit:
        assert get_limit() == limit  # the process's limit is never touched


@pytest.mark.parametrize("value", [
    0, -7, 2**1999, 2**2000, 10**5000, 10**5000 - 1, -(3**10000), 7**9000 + 1,
], ids=lambda value: f"{value.bit_length()} bits")
def test_reports_render_integers_and_rationals_at_any_length(value):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    assert render_value(value) == unlimited_str(value)
    assert render_value(F(value, 3)) == unlimited_str(F(value, 3))
    assert render_value((value, F(1, 3**10000))) == (
        f"({unlimited_str(value)}, 1/{unlimited_str(3**10000)})"
    )
    report = ReproductionReport("x")
    assert not report.check("d", F(3**10000), value)
    assert report.claims[0].expected == unlimited_str(3**10000)
    assert report.claims[0].computed == unlimited_str(value)
    if get_limit:
        assert get_limit() == limit


def test_toy_reports_render_weights_at_any_length():
    den = 3**10000
    pF = binary_distribution(F(1, den), 0, 0, F(den - 1, den))
    comparison = ToyComparison("basis0", pF, F(1, den), F(den - 1, den))
    [row] = ToyEquivalenceReport([comparison]).to_json_list()
    assert row == {
        "scenario": "basis0",
        "pF": {"00": f"1/{unlimited_str(den)}", "11": unlimited_str(F(den - 1, den))},
        "quantum": f"1/{unlimited_str(den)}",
        "toy": unlimited_str(F(den - 1, den)),
        "equal": False,
    }


def test_weights_longer_than_the_int_str_limit_are_saved(tmp_path):
    # 3**10000 has 4772 digits, beyond Python's default limit of 4300
    den = 3**10000
    tables = enumerate_functions(1, 2)
    pF = FunctionDistribution(1, 2, dict(zip(tables, (F(1, den), F(den - 1, den)))))
    path = tmp_path / "long.json"
    save_model(pF, path)
    weights = json.loads(path.read_text(encoding="utf-8"))["pF"]
    assert weights == {
        "0": f"1/{unlimited_str(den)}", "1": unlimited_str(F(den - 1, den))
    }
    joint = ConfoundedModel(1, 2, {(0, t): w for t, w in pF.weights.items()})
    save_model(joint, path)
    assert list(json.loads(path.read_text(encoding="utf-8"))["joint"].values()) == (
        list(weights.values())
    )
