"""CLI contract: output schemas, determinism, exit codes."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cforacle import (
    FunctionDistribution,
    FunctionTable,
    ValidationError,
    cli,
    core,
    build_constraints,
    identify,
    lp,
    quantum,
    restricted_tail_model,
    save_model,
)
from cforacle.classical import _CHUNK_ROWS, simulate_log
from cforacle.cli import main
from cforacle.modelio import load_model
from cforacle.reproduce import mix_identity_flip, run_scenario
from conftest import NUMBER_WEIGHT_FILES, assert_same_rows

# the package's source root, for child interpreters
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# stdout of `bounds` and `identify` for appE.json, two-way, target
# 0:1,1:1,2:1, recorded before the two commands shared one renderer
GOLDEN_APPE_TWO_WAY = {
    "bounds": """\
{
  "lo": "0",
  "hi": "1/4",
  "identifiable": false,
  "witness_lo": {
    "n_x": 3,
    "n_y": 2,
    "pF": {
      "000": "1/4",
      "011": "1/4",
      "101": "1/4",
      "110": "1/4"
    }
  },
  "witness_hi": {
    "n_x": 3,
    "n_y": 2,
    "pF": {
      "001": "1/4",
      "010": "1/4",
      "100": "1/4",
      "111": "1/4"
    }
  }
}
""",
    "identify": """\
{
  "identifiable": false,
  "lo": "0",
  "hi": "1/4",
  "width": "1/4",
  "witness_lo": {
    "n_x": 3,
    "n_y": 2,
    "pF": {
      "000": "1/4",
      "011": "1/4",
      "101": "1/4",
      "110": "1/4"
    }
  },
  "witness_hi": {
    "n_x": 3,
    "n_y": 2,
    "pF": {
      "001": "1/4",
      "010": "1/4",
      "100": "1/4",
      "111": "1/4"
    }
  }
}
""",
}


# sha256 of each `reproduce` scenario's stdout, recorded before refactors
# that were to leave every byte unchanged
SCENARIO_DIGESTS = {
    "binary": "2a81cfb7b613348e57511f3519f14c1fd6420ddb96883dd2136a28c1c88ad5db",
    "appendix_b": "743203b58d3004ef56ae5803b29f92e5de515ba6d2a0ddb020a31d21faf80f07",
    "model_ab": "d25e2adb01f433ee4ce29b3e564981e324d02afd3f21581accdef9fa492ea722",
    "appendix_e": "6075a2efd7f11190f2298017cbd43c1475718ef82acbc540a39467ea3afb9230",
    "appendix_e_general": (
        "6fafd32885a204da63ab364e340b1f47e625338990151fcd80017369abea7803"
    ),
    "toy": "42d79fea9c3ab950e2b50d02134fb4c27af1617ddfd697fa9263ce94e176f9b1",
}


class TestReproduce:
    def test_binary_scenario_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "binary")
        assert code == 0
        report = json.loads(out)
        assert report["name"] == "binary"
        assert report["passed"] is True
        assert all(claim["pass"] for claim in report["claims"])

    @pytest.mark.parametrize("scenario", SCENARIO_DIGESTS)
    def test_stdout_matches_the_recorded_digest(self, capsys, scenario):
        code, out, _ = run_cli(capsys, "reproduce", scenario)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SCENARIO_DIGESTS[scenario]

    @pytest.mark.parametrize(
        "scenario, levels",
        [
            ("model_ab", []),
            ("binary", ["one-way"] * 2),
            ("appendix_e", ["two-way"] * 2 + ["one-way"]),
        ],
    )
    def test_only_witnesses_the_report_reads_are_searched(
        self, capsys, monkeypatch, scenario, levels
    ):
        # model_ab and binary's two-way check ask for a width only, so the
        # face walk runs for binary's two one-way witnesses alone;
        # appendix_e reads both two-way witnesses and the one-way upper one
        walked = []
        real = lp._face_walk

        def spy(rows, dens, basis, cols, c, a, b):
            walked.append((a, b))
            return real(rows, dens, basis, cols, c, a, b)

        monkeypatch.setattr(lp, "_face_walk", spy)
        code, out, _ = run_cli(capsys, "reproduce", scenario)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SCENARIO_DIGESTS[scenario]
        truth = (
            restricted_tail_model(3, ()) if scenario == "appendix_e"
            else mix_identity_flip()
        )
        assert walked == [build_constraints(truth, level).matrix() for level in levels]

    @pytest.mark.parametrize(
        "example",
        ["appendix_b", "model_ab", "appendix_e", "appendix_e_general", "toy"],
    )
    def test_other_scenarios_pass(self, capsys, example):
        code, out, _ = run_cli(capsys, "reproduce", example)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_unknown_example_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "appendix_z"])
        assert excinfo.value.code == 2

    def test_unknown_scenario_is_refused_by_the_library(self):
        with pytest.raises(ValidationError, match="unknown scenario 'nope'; choose"):
            run_scenario("nope")


class TestBoundsAndIdentify:
    def test_bounds_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--model",
            "mixIF.json",
            "--level",
            "one-way",
            "--target",
            "0:0,1:0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lo"] == "0"
        assert payload["hi"] == "1/2"
        assert payload["identifiable"] is False
        assert payload["witness_lo"]["pF"] == {"01": "1/2", "10": "1/2"}
        assert payload["witness_hi"]["pF"] == {"00": "1/2", "11": "1/2"}

    def test_identify_two_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "identify",
            "--model",
            "uniform2.json",
            "--level",
            "one-way",
            "--target",
            "0:0,1:0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identifiable"] is False
        assert payload["witness_lo"] != payload["witness_hi"]

    def test_two_way_closes_the_gap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--model",
            "mixIF.json",
            "--level",
            "two-way",
            "--target",
            "0:0,1:0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identifiable"] is True
        assert payload["lo"] == payload["hi"] == "0"

    def test_model_ab_bounds_contain_both_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--model",
            "modelA.json",
            "--level",
            "two-way",
            "--target",
            "0:0,1:1,2:2",
        )
        assert code == 0
        payload = json.loads(out)
        from fractions import Fraction as F

        lo, hi = F(payload["lo"]), F(payload["hi"])
        assert lo <= F(1, 27) < F(1, 9) <= hi

    @pytest.mark.parametrize("command", ["bounds", "identify"])
    def test_golden_stdout(self, capsys, command):
        # pins each command's bytes, key order included
        code, out, _ = run_cli(
            capsys, command, "--model", "appE.json", "--level", "two-way",
            "--target", "0:1,1:1,2:1",
        )
        assert code == 0
        assert out == GOLDEN_APPE_TWO_WAY[command]

    def test_every_bundled_model_matches_the_recorded_digest(self, capsys):
        # both commands on every bundled model (name: n_x) at both levels,
        # all-zeros n_x-way target; recorded while vertex enumeration was
        # still in the library, so it pins the simplex's witnesses
        models = {"appE": 3, "mixIF": 2, "mixR0R1": 2, "modelA": 3, "modelB": 3,
                  "uniform2": 2}
        digest = hashlib.sha256()
        for (name, n_x), level, command in itertools.product(
            models.items(), ("one-way", "two-way"), ("bounds", "identify")
        ):
            target = ",".join(f"{x}:0" for x in range(n_x))
            code, out, _ = run_cli(
                capsys, command, "--model", f"{name}.json", "--level", level,
                "--target", target,
            )
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "74945d3400da735c7aceef21de886585344c8e8bda52cc881155916d523d43b5"
        )

    def test_malformed_target(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bounds",
            "--model",
            "mixIF.json",
            "--level",
            "one-way",
            "--target",
            "0=1",
        )
        assert code == 2
        assert "target" in err or "pair" in err

    @pytest.mark.parametrize("target", ["١:0", "1_0:0", "+1:0"])
    def test_target_with_non_ascii_digits_is_a_usage_error(self, capsys, target):
        code, out, err = run_cli(
            capsys, "bounds", "--model", "mixIF.json", "--level", "one-way",
            "--target", target,
        )
        assert (code, out) == (2, "")
        assert "malformed target pair" in err


class TestSimulate:
    def test_row_count_and_copy_invariant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--model",
            "uniform2.json",
            "--queries",
            "1000",
            "--seed",
            "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_in,x_out,y_out,query_index"
        assert len(lines) == 1001
        for line in lines[1:]:
            x_in, x_out, _, _ = line.split(",")
            assert x_in == x_out

    def test_byte_identical_reruns(self, capsys):
        args = ["simulate", "--model", "mixIF.json", "--queries", "64", "--seed", "3"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_rows_are_written_one_chunk_at_a_time(self, monkeypatch):
        writes = []

        class RecordingStdout:
            def write(self, text):
                writes.append(text)
                return len(text)

        queries = _CHUNK_ROWS + 3
        monkeypatch.setattr(sys, "stdout", RecordingStdout())
        code = main(
            ["simulate", "--model", "uniform2.json", "--queries", str(queries), "--seed", "11"]
        )
        monkeypatch.undo()
        assert code == 0
        rows_per_write = [text.count("\n") for text in writes]
        assert rows_per_write == [1, _CHUNK_ROWS, 3]  # header, then two chunks
        model = load_model(cli._resolve_model_path("uniform2.json"))
        expected = simulate_log(model, np.arange(queries) % model.n_x, 11).to_csv()
        assert_same_rows("".join(writes), expected)

    def test_multi_chunk_output_matches_the_recorded_digest(self, capsys):
        # recorded before the bucket lookup and the table-driven digit
        # rendering; query_index crosses 10**5 in the second chunk
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "modelA.json", "--queries", "200003",
            "--seed", "5",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "25a7eb5799f12a8133e5a7b1fff336ca6f1c5c7bed29eb531ee18382963927ff"
        )

    def test_two_digit_inputs_match_the_recorded_digest(self, capsys, tmp_path):
        # recorded with a padding mask over every chunk; x_in mixes one and
        # two digits, and query_index crosses 10**5 in the second chunk
        model = tmp_path / "twelve.json"
        save_model(
            FunctionDistribution.uniform_over(
                FunctionTable(12, 3, tuple(k * x % 3 for x in range(12))) for k in range(3)
            ),
            model,
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--model", str(model), "--queries", "200003", "--seed", "5"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "75b046493c961155716a53cb028b165c3931d8426e86da7ee9ead6aba7bd8ba0"
        )

    def test_query_limit_is_the_core_one(self):
        assert cli.MAX_QUERIES is core.MAX_QUERIES == 10**7


class TestTomography:
    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tomography", "--model", "appE.json")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,x_prime,y,y_prime,value"
        # 3 inputs x 2 outputs diagonal rows + 3 pairs x 4 output combos
        assert len(lines) == 1 + 6 + 12
        pair_values = {
            line.split(",")[4]
            for line in lines[1:]
            if line.split(",")[0] != line.split(",")[1]
        }
        assert pair_values == {"0.25"}

    # the digests that perfbench/references.json records for these calls
    @pytest.mark.parametrize("name, digest", [
        ("appE.json",
         "7715216f0711c95532d149a439aacef393a79a6909e795a32e8b26bbef8f5166"),
        ("modelA.json",
         "84a7932772573a6bb02473c1ce8a8d53342bb376e35d5721a6fbb5c040dcba52"),
        ("modelB.json",
         "84a7932772573a6bb02473c1ce8a8d53342bb376e35d5721a6fbb5c040dcba52"),
    ])
    def test_stdout_matches_the_recorded_digest(self, capsys, name, digest):
        code, out, _ = run_cli(capsys, "tomography", "--model", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_stdout_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # a BLAS splits its sums by thread count; neither rho's bytes
        # (tests/test_quantum.py) nor its %.12g values may follow them
        model = tmp_path / "uniform8x3.json"
        save_model(FunctionDistribution.uniform(8, 3), model)
        argv = [sys.executable, "-m", "cforacle.cli", "tomography", "--model", str(model)]
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run(argv, capture_output=True, env=env, check=False)
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + 8 * 3 + 28 * 9


class TestToyCheck:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "toy-check")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 42
        assert all(row["equal"] for row in rows)
        assert all(row["quantum"] == row["toy"] for row in rows)

    def test_stdout_matches_the_recorded_digest(self, capsys):
        # recorded before toy mixtures skipped the per-table intermediate
        # states; perfbench/references.json records the same digest
        code, out, _ = run_cli(capsys, "toy-check")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bc67744ab2485df421e72aca8da85672a19b7ee17ebd6b4b9c5dbc74f458402d"
        )


class TestErrorHandling:
    def test_missing_model_file(self, capsys):
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", "nope.json", "--level", "one-way",
            "--target", "0:0",
        )
        assert "not found" in err

    def test_malformed_json_reports_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_x": 2,\n  "n_y": 2,\n  "pF": {')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(bad), "--level", "one-way",
            "--target", "0:0",
        )
        assert "line" in err and "column" in err

    def test_invalid_weights_report_the_invariant(self, capsys, tmp_path):
        bad = tmp_path / "half.json"
        bad.write_text('{"n_x": 2, "n_y": 2, "pF": {"01": "1/2"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(bad), "--level", "one-way",
            "--target", "0:0",
        )
        assert "sum" in err

    def test_confounded_model_uses_response_marginal(self, capsys, tmp_path):
        model = tmp_path / "confounded.json"
        model.write_text(
            '{"n_x": 2, "n_y": 2, "joint": {"0|00": "1/2", "1|11": "1/2"}}'
        )
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--model",
            str(model),
            "--level",
            "two-way",
            "--target",
            "0:0,1:0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lo"] == payload["hi"] == "1/2"

    @staticmethod
    def one_line_usage_error(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        return err

    def test_pF_that_is_not_an_object(self, capsys, tmp_path):
        model = tmp_path / "list.json"
        model.write_text('{"n_x": 2, "n_y": 2, "pF": [1, 2]}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "'pF'" in err

    def test_query_count_above_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_distribution", None)  # never reached
        err = self.one_line_usage_error(
            capsys, "simulate", "--model", "uniform2.json", "--queries",
            str(cli.MAX_QUERIES + 1),
        )
        assert "--queries" in err

    @pytest.mark.parametrize(
        "queries, seed",
        [("1_0", "0"), ("١٠", "0"), ("+10", "0"), (" 10", "0"), ("10", "٧"),
         ("10", "1_0"), ("10", "+7"), pytest.param("10", "9" * 5000, id="5000-digit seed")],
    )
    def test_queries_and_seed_need_ascii_digits(self, capsys, queries, seed):
        err = self.one_line_usage_error(
            capsys, "simulate", "--model", "uniform2.json", "--queries", queries,
            "--seed", seed,
        )
        assert ("--seed" if queries == "10" else "--queries") in err

    @pytest.mark.parametrize(
        "target", ["0:" + "1" * 5000, "1" * 5000 + ":0", "0:0,1:" + "0" * 4999 + "1"],
        ids=["5000-digit outcome", "5000-digit antecedent", "leading zeros"],
    )
    def test_target_side_too_long_to_convert(self, capsys, target):
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", "mixIF.json", "--level", "one-way",
            "--target", target,
        )
        assert err.startswith("ContractViolationError: ") and len(err) < 300

    def test_negative_seed(self, capsys):
        err = self.one_line_usage_error(
            capsys, "simulate", "--model", "uniform2.json", "--queries", "4",
            "--seed", "-1",
        )
        assert "seed" in err

    def test_cardinality_that_is_not_finite(self, capsys, tmp_path):
        model = tmp_path / "inf.json"
        model.write_text('{"n_x": 1e400, "n_y": 2, "pF": {"01": "1"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "'n_x'" in err

    def test_joint_keys_that_name_one_entry(self, capsys, tmp_path):
        # "0|01" and "00|01" are both setting 0 with table 01
        model = tmp_path / "duplicate.json"
        model.write_text('{"n_x": 2, "n_y": 2, "joint": {"0|01": "1/2", '
                         '"00|01": "1/2", "1|10": "1/2"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:1",
        )
        assert "duplicate" in err and "'00|01'" in err

    @pytest.mark.parametrize("field, key, other", [
        ("pF", "01", "10"), ("joint", "0|01", "1|10"),
    ])
    def test_repeated_key_in_the_model_file(self, capsys, tmp_path, field, key, other):
        model = tmp_path / "dupkey.json"
        model.write_text(f'{{"n_x": 2, "n_y": 2, "{field}": {{"{key}": "1/2", '
                         f'"{key}": "1/2", "{other}": "1/2"}}}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:1",
        )
        assert f"repeats the key '{key}'" in err

    @pytest.mark.parametrize(
        "text, message", NUMBER_WEIGHT_FILES.values(), ids=NUMBER_WEIGHT_FILES
    )
    def test_number_weights_read_from_their_text(self, capsys, tmp_path, text, message):
        model = tmp_path / "numbers.json"
        model.write_text(text)
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert err.startswith(f"ValidationError: {message}")

    def test_joint_key_with_a_non_integer_input(self, capsys, tmp_path):
        model = tmp_path / "joint.json"
        model.write_text('{"n_x": 2, "n_y": 2, "joint": {"x|01": "1"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "'x|01'" in err

    def test_table_key_with_a_non_ascii_digit(self, capsys, tmp_path):
        model = tmp_path / "superscript.json"
        model.write_text('{"n_x": 2, "n_y": 2, "pF": {"0\\u00b2": "1"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "ValidationError" in err

    def test_model_file_that_is_not_utf8(self, capsys, tmp_path):
        model = tmp_path / "latin1.json"
        model.write_bytes(b'{"n_x": 2, "n_y": 2, "pF": {"01": "\xbd"}}')
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "UTF-8" in err

    def test_model_with_both_pF_and_joint(self, capsys, tmp_path):
        model = tmp_path / "both.json"
        model.write_text(json.dumps({
            "n_x": 2, "n_y": 2, "pF": {"01": "1/2", "10": "1/2"},
            "joint": {"0|01": "1"},
        }))
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "ValidationError" in err and "'joint'" in err

    def test_tomography_above_the_matrix_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(quantum, "_pairwise_marginals", None)  # never reached
        model = tmp_path / "wide.json"
        model.write_text(json.dumps({"n_x": 1001, "n_y": 1, "pF": {"0" * 1001: "1"}}))
        err = self.one_line_usage_error(capsys, "tomography", "--model", str(model))
        assert "EnumerationCapError" in err

    def test_two_way_with_many_inputs_is_refused_before_building(
        self, capsys, tmp_path, monkeypatch
    ):
        # 2-way over 30000 binary inputs counts 4.5e8 input pairs: refused
        # from the count, before any pair is built
        monkeypatch.setattr(identify, "combinations", None)  # never reached
        model = tmp_path / "many.json"
        model.write_text(json.dumps({"n_x": 30000, "n_y": 2, "pF": {"0" * 30000: "1"}}))
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "two-way",
            "--target", "0:0",
        )
        assert "EnumerationCapError" in err and "1800000001 rows" in err

    @pytest.mark.parametrize(
        "weights",
        [
            {"01": "1e5000"},
            {"01": "1e10000000"},
            # each weight is short enough, but their sum's denominator
            # has about 5000 digits
            {
                digits: f"1/{base**power}"
                for digits, base, power in zip(
                    ("000", "001", "010", "011", "100", "101"),
                    (2, 3, 5, 7, 11, 13),
                    (2900, 1800, 1250, 1000, 800, 750),
                )
            },
        ],
        ids=["exponent 5000", "exponent 10^7", "long denominators"],
    )
    def test_rationals_too_large_to_parse_or_print(self, capsys, tmp_path, weights):
        model = tmp_path / "huge.json"
        n_x = len(next(iter(weights)))
        model.write_text(json.dumps({"n_x": n_x, "n_y": 2, "pF": weights}))
        start = time.perf_counter()
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert time.perf_counter() - start < 1.0
        assert "ValidationError" in err

    def test_integer_literal_beyond_the_digit_limit(self, capsys, tmp_path):
        model = tmp_path / "long_int.json"
        model.write_text('{"n_x": 2, "n_y": 2, "pF": {"01": ' + "1" * 5000 + "}}")
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(model), "--level", "one-way",
            "--target", "0:0",
        )
        assert "ValidationError" in err

    def test_model_path_is_a_directory(self, capsys, tmp_path):
        err = self.one_line_usage_error(
            capsys, "bounds", "--model", str(tmp_path), "--level", "one-way",
            "--target", "0:0",
        )
        assert "directory" in err


def test_exact_result_longer_than_the_int_to_str_limit(capsys, tmp_path):
    # k*N + 1 for k = 1..10 with 10! | N are pairwise coprime:
    # gcd(kN + 1, jN + 1) divides j(kN + 1) - k(jN + 1) = j - k, whose
    # primes all divide N, while kN + 1 is 1 mod N
    big = math.factorial(10) * 10**470
    coprimes = [k * big + 1 for k in range(1, 11)]
    weights = {}
    for i, p in enumerate(coprimes):
        weights["0" + format(i, "04b")] = Fraction(1, 10 * p)
        weights["1" + format(i, "04b")] = Fraction(1, 10) - Fraction(1, 10 * p)
    model = tmp_path / "long_result.json"
    model.write_text(
        json.dumps({"n_x": 5, "n_y": 2, "pF": {k: str(w) for k, w in weights.items()}})
    )
    marginal = sum(Fraction(1, 10 * p) for p in coprimes)  # p(Y_0 = 0)
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None

    code, out, err = run_cli(
        capsys, "bounds", "--model", str(model), "--level", "one-way", "--target", "0:0"
    )

    assert code == 0, err
    if get_limit:
        assert get_limit() == limit  # restored after rendering
        sys.set_int_max_str_digits(0)
    try:
        result = json.loads(out)
        assert len(str(marginal.denominator)) > 4300
        assert result["lo"] == result["hi"] == str(marginal)
        assert result["identifiable"] is True
    finally:
        if get_limit:
            sys.set_int_max_str_digits(limit)


def test_one_parser_serves_successive_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    appe = ["bounds", "--model", "appE.json", "--level", "two-way"]
    appe += ["--target", "0:1,1:1,2:1"]
    binary = ["reproduce", "binary"]
    outputs = {}
    for argv in (appe, binary, appe, binary):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.setdefault(argv[0], set()).add(hashlib.sha256(out.encode()).hexdigest())
    assert outputs == {
        "bounds": {hashlib.sha256(GOLDEN_APPE_TWO_WAY["bounds"].encode()).hexdigest()},
        "reproduce": {"2a81cfb7b613348e57511f3519f14c1fd6420ddb96883dd2136a28c1c88ad5db"},
    }
    usage_errors = (["bogus"], ["bounds", "--model", "appE.json"], ["reproduce", "x"])
    for argv in usage_errors:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cforacle")
    code, out, _ = run_cli(capsys, *appe)
    assert (code, out) == (0, GOLDEN_APPE_TWO_WAY["bounds"])


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cforacle.cli", "reproduce", "binary"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True
