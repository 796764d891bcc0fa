"""JSON (de)serialization of models.

Schema for a plain distribution:

    { "n_x": 2, "n_y": 2, "pF": { "01": "1/2", "10": "1/2" } }

Keys are the table outputs as a digit string (f(0) first), values are
rationals serialized as strings to keep them exact.  Confounded models
use "joint" instead of "pF", keyed by "<r_x>|<outputs>".  Digit-string
keys require n_y <= 10.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .core import (
    ConfoundedModel,
    FunctionDistribution,
    FunctionTable,
    _as_fraction,
    _cardinalities,
    _describe_int,
    _exact_str,
    _is_digits,
)
from .errors import ValidationError


def _json_rational(value) -> Fraction:
    """A weight as model JSON gives it: a float is read from its text, so
    ``0.1`` is the decimal 1/10, and ``true`` and ``false`` are refused.
    :func:`load_model` hands over a JSON number's own text, never a float."""
    if isinstance(value, bool):
        raise ValidationError(f"cannot interpret {value} as an exact rational")
    return _as_fraction(str(value) if isinstance(value, float) else value)


def table_to_digits(table: FunctionTable) -> str:
    if table.n_y > 10:
        raise ValidationError(
            "digit-string serialization requires n_y <= 10; "
            f"got n_y = {_describe_int(table.n_y)}"
        )
    return "".join(str(v) for v in table.outputs)


def table_from_digits(digits: str, n_x: int, n_y: int) -> FunctionTable:
    n_x, n_y = _cardinalities(n_x, n_y)
    if n_y > 10:
        raise ValidationError(
            "digit-string serialization requires n_y <= 10; "
            f"got n_y = {_describe_int(n_y)}"
        )
    if len(digits) != n_x or not _is_digits(digits):
        shown = _describe_int(n_x)
        raise ValidationError(
            f"table key {digits!r} must be {shown} digits for n_x = {shown}"
        )
    return FunctionTable(n_x, n_y, tuple(int(ch) for ch in digits))


def distribution_to_json_dict(pF: FunctionDistribution) -> dict:
    return {
        "n_x": pF.n_x,
        "n_y": pF.n_y,
        "pF": {table_to_digits(t): _exact_str(w) for t, w in pF.weights.items()},
    }


def confounded_to_json_dict(model: ConfoundedModel) -> dict:
    return {
        "n_x": model.n_x,
        "n_y": model.n_y,
        "joint": {
            f"{r_x}|{table_to_digits(t)}": _exact_str(w)
            for (r_x, t), w in model.joint_weights.items()
        },
    }


def parse_model(data: dict) -> FunctionDistribution | ConfoundedModel:
    """Build a model from its JSON dictionary, naming any violated
    invariant in the raised error."""
    if not isinstance(data, dict):
        raise ValidationError("model JSON must be an object")
    n_x, n_y = data.get("n_x"), data.get("n_y")
    # JSON integers only: floats are refused, and so are booleans, which
    # Python counts as ints
    if not all(type(v) is int for v in (n_x, n_y)):
        raise ValidationError("model JSON needs integer fields 'n_x' and 'n_y'")
    for field in ("pF", "joint"):
        if field in data and not isinstance(data[field], dict):
            raise ValidationError(f"model field {field!r} must be a JSON object")
    if "pF" in data and "joint" in data:
        raise ValidationError("model JSON has both 'pF' and 'joint'; give one")
    if "pF" in data:
        weights = {
            table_from_digits(key, n_x, n_y): _json_rational(value)
            for key, value in data["pF"].items()
        }
        return FunctionDistribution(n_x, n_y, weights)
    if "joint" in data:
        joint = {}
        for key, value in data["joint"].items():
            try:
                r_x_str, digits = key.split("|")
                if not _is_digits(r_x_str):
                    raise ValueError(r_x_str)
                r_x = int(r_x_str)
            except ValueError as exc:
                raise ValidationError(
                    f"joint key {key!r} must look like '<r_x>|<outputs>'"
                ) from exc
            entry = (r_x, table_from_digits(digits, n_x, n_y))
            if entry in joint:  # "0|01" and "00|01" name one entry
                raise ValidationError(f"duplicate weight entry for joint key {key!r}")
            joint[entry] = _json_rational(value)
        return ConfoundedModel(n_x, n_y, joint)
    raise ValidationError("model JSON needs a 'pF' or 'joint' mapping")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.load``: a key written twice in one
    object is an error, not a silent overwrite by the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValidationError(f"model JSON repeats the key {key!r}")
        data[key] = value
    return data


def load_model(path: str | Path) -> FunctionDistribution | ConfoundedModel:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            # a number with a fraction or exponent stays text, read exactly
            data = json.load(handle, object_pairs_hook=_unique_keys, parse_float=str)
        except json.JSONDecodeError:
            raise  # reported with its line and column
        except UnicodeDecodeError as exc:
            raise ValidationError(f"model file is not UTF-8 text: {exc}") from exc
        # an integer beyond the int-to-str limit, or nesting beyond the
        # recursion limit
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"cannot read model JSON: {exc}") from exc
    return parse_model(data)


def save_model(
    model: FunctionDistribution | ConfoundedModel, path: str | Path
) -> None:
    if isinstance(model, FunctionDistribution):
        payload = distribution_to_json_dict(model)
    else:
        payload = confounded_to_json_dict(model)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
