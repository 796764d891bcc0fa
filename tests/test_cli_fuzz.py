"""The CLI exit-code contract under arbitrary model files and arguments.

Every run ends with 0, 1 or 2 (an argparse ``SystemExit`` included),
1 comes only from the commands that check claims, and no traceback
reaches the user.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cforacle.cli import MAX_QUERIES, main
from cforacle.reproduce import SCENARIOS

MODEL = "<model>"  # replaced by the path of the drawn model file
CLAIM_COMMANDS = ("reproduce", "toy-check")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


# rationals whose exact value would take Fraction seconds to build or
# Python's int-to-str limit to print
huge_rationals = st.builds(
    "{}e{}{}".format,
    st.sampled_from(["1", "-2.5", "0.5", "7/"]),
    st.sampled_from(["", "+", "-"]),
    st.integers(1000, 10**8),
)


# key characters that are not ASCII digits, although str.isdigit accepts
# the first three and int() the last three
odd_digits = st.sampled_from(["\u00b2", "\u0661", "\uff10", " 1", "+1", "1_"])


@st.composite
def small_models(draw):
    """A model, plain or confounded, with n_x, n_y <= 3: well-formed
    unless one weight is drawn from ``huge_rationals`` or one character
    of a key is replaced by one drawn from ``odd_digits``."""
    n_x = draw(st.integers(1, 3))
    n_y = draw(st.integers(1, 3))
    outputs = st.tuples(*[st.integers(0, n_y - 1)] * n_x)
    keys = [
        "".join(map(str, table))
        for table in draw(st.lists(outputs, min_size=1, max_size=5, unique=True))
    ]
    if draw(st.booleans()):
        keys = [f"{draw(st.integers(0, n_x - 1))}|{key}" for key in set(keys)]
        field = "joint"
    else:
        field = "pF"
    if draw(st.booleans()):
        i = draw(st.integers(0, len(keys) - 1))
        at = draw(st.integers(0, len(keys[i]) - 1))
        keys[i] = keys[i][:at] + draw(odd_digits) + keys[i][at + 1 :]
    weights = [draw(st.integers(1, 4)) for _ in keys]
    total = sum(weights)
    values = [f"{w}/{total}" for w in weights]
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(huge_rationals)
    return {"n_x": n_x, "n_y": n_y, field: dict(zip(keys, values))}


def _replace_field(model, field, value):
    return {**model, field: value}


edge_numbers = st.sampled_from([float("inf"), float("nan"), -1, 0, 2.5, True, 10**30])
models = small_models() | st.builds(
    _replace_field,
    small_models(),
    st.sampled_from(["n_x", "n_y", "pF", "joint"]),
    edge_numbers | json_values,
)
model_files = (
    models.map(lambda m: json.dumps(m).encode())
    | json_values.map(lambda v: json.dumps(v).encode())
    | st.text(max_size=40).map(str.encode)
    | st.binary(max_size=40)
)

words = st.text(max_size=8)
targets = (
    st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=3).map(
        lambda pairs: ",".join(f"{x}:{y}" for x, y in pairs)
    )
    | words
)
argvs = st.one_of(
    st.tuples(
        st.sampled_from(["bounds", "identify"]),
        st.just("--model"),
        st.just(MODEL),
        st.just("--level"),
        st.sampled_from(["one-way", "two-way"]) | words,
        st.just("--target"),
        targets,
    ),
    st.tuples(
        st.just("simulate"),
        st.just("--model"),
        st.just(MODEL),
        st.just("--queries"),
        st.integers(-3, 40).map(str) | st.just(str(MAX_QUERIES + 1)) | words,
        st.just("--seed"),
        st.sampled_from([0, 7, -1, 2**128]).map(str) | words,
    ),
    st.tuples(st.just("tomography"), st.just("--model"), st.just(MODEL)),
    st.tuples(st.just("toy-check")),
    st.tuples(st.just("reproduce"), st.sampled_from(sorted(SCENARIOS)) | words),
).map(list)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(model=model_files, argv=argvs, extra=st.lists(words, max_size=2))
def test_exit_code_contract(model, argv, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as handle:
            handle.write(model)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([path if a == MODEL else a for a in argv + extra])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] in CLAIM_COMMANDS
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--level", "one-way", "--target", "0:0"],
        ["identify", "--level", "one-way", "--target", "0:0"],
        ["simulate", "--queries", "3", "--seed", "0"],
        ["tomography"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("opening", ["[", '{"a":'], ids=["array", "object"])
def test_deeply_nested_model_json_is_refused_in_one_line(tmp_path, argv, opening):
    # 10^5 levels: past the recursion limit of the JSON decoder
    path = tmp_path / "model.json"
    path.write_text(opening * 10**5, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--model", str(path), *argv[1:]])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("ValidationError: cannot read model JSON: ")
    assert err.getvalue().count("\n") == 1
