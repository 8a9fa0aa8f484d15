import json

import numpy as np
import pytest

from cfcert.cli import main
from cfcert.data import synth_binary
from cfcert.generators import generate_all, resolve_method
from cfcert.intervals import ShiftSet
from cfcert.models import load_model


@pytest.fixture
def example_model_file(tmp_path):
    doc = {
        "model_type": "logistic",
        "input_dim": 2,
        "num_classes": 2,
        "layers": [{"weights": [[-1.0, 1.0]], "bias": None}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def _inputs_file(tmp_path, rows, name="inputs.json", targets=None):
    doc = {"inputs": rows}
    if targets is not None:
        doc["targets"] = targets
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_train_writes_model_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "train",
            "--synth",
            "moons:200",
            "--arch",
            "4",
            "--epochs",
            "60",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["train_accuracy"] > 0.8
    assert (out / "model.json").exists() and (out / "manifest.json").exists()
    load_model(out / "model.json")


def test_train_missing_dataset_fails(tmp_path, capsys):
    rc = main(["train", "--dataset", "nope.csv", "--schema", "nope.json", "--seed", "1", "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.5,0.5,inf", "label must be an integer, got 'inf'"),
        ("0.5,0.5,nan", "label must be an integer, got 'nan'"),
        ("0.5,0.5,0.7", "label must be an integer, got '0.7'"),
        ("nan,0.5,1", "feature values must be finite"),
        ("0.5,-inf,1", "feature values must be finite"),
    ],
)
def test_train_rejects_a_bad_csv_value_with_its_line(tmp_path, capsys, row, message):
    rows = ["0.1,0.2,0", "0.9,0.8,1", "0.2,0.1,0", row, "0.8,0.9,1"]
    (tmp_path / "d.csv").write_text("x1,x2,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "d.json").write_text(
        json.dumps({"features": [{"name": "x1"}, {"name": "x2"}], "label": "label"})
    )
    argv = ["train", "--dataset", str(tmp_path / "d.csv"), "--schema", str(tmp_path / "d.json")]
    rc = main([*argv, "--epochs", "5", "--seed", "0", "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and f"d.csv:5: {message}" in captured.err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_a_non_finite_learning_rate(tmp_path, capsys, lr):
    rc = main(["train", "--synth", "moons:50", "--lr", lr, "--seed", "0", "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: learning rate must be finite, got {lr}\n"


def test_train_same_seed_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["train", "--synth", "moons:150", "--epochs", "40", "--seed", "9", "--out", str(out)])
        outs.append((out / "model.json").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_verify_worked_example_exit_codes(tmp_path, example_model_file, capsys):
    good = _inputs_file(tmp_path, [[0.7, 0.86]], "good.json")
    bad = _inputs_file(tmp_path, [[0.7, 0.7]], "bad.json")
    rc = main(["verify", "--model", str(example_model_file), "--delta", "0.1", "--ces", str(good)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and json.loads(lines[0])["robust"] is True
    rc = main(["verify", "--model", str(example_model_file), "--delta", "0.1", "--ces", str(bad)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out.strip())["robust"] is False


def test_verify_delta_zero_valid_ce_robust(tmp_path, example_model_file, capsys):
    ces = _inputs_file(tmp_path, [[0.2, 0.9]])
    rc = main(["verify", "--model", str(example_model_file), "--delta", "0.0", "--ces", str(ces)])
    capsys.readouterr()
    assert rc == 0


def test_verify_soundness_flag(tmp_path, example_model_file, capsys):
    ces = _inputs_file(tmp_path, [[0.7, 0.86]], "c.json")
    orig = _inputs_file(tmp_path, [[0.7, 0.5]], "x.json")
    rc = main(
        [
            "verify",
            "--model",
            str(example_model_file),
            "--delta",
            "0.1",
            "--ces",
            str(ces),
            "--check-soundness",
            "--input",
            str(orig),
        ]
    )
    out = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and out["strictly_robust"] is True


def test_explain_rnce_delta_zero_matches_nnce(tmp_path, example_model_file, capsys):
    inputs = _inputs_file(tmp_path, [[0.7, 0.5], [0.9, 0.2]])
    common = ["--model", str(example_model_file), "--synth", "moons:200", "--inputs", str(inputs), "--seed", "0"]
    rc = main(["explain", "--method", "nnce", *common])
    nnce_out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert rc == 0
    rc = main(["explain", "--method", "rnce", "--delta", "0.0", *common])
    rnce_out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert rc == 0
    for a, b in zip(nnce_out, rnce_out):
        assert a["x_prime"] == b["x_prime"]


def test_explain_mce_r_passes_verify(tmp_path, example_model_file, capsys):
    inputs = _inputs_file(tmp_path, [[0.7, 0.5]])
    out_path = tmp_path / "records.jsonl"
    rc = main(
        [
            "explain",
            "--method",
            "mce-r",
            "--model",
            str(example_model_file),
            "--inputs",
            str(inputs),
            "--delta",
            "0.05",
            "--seed",
            "0",
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    record = json.loads(out_path.read_text().strip())
    assert record["robust"] is True
    ces = _inputs_file(tmp_path, [record["x_prime"]], "from_explain.json")
    rc = main(["verify", "--model", str(example_model_file), "--delta", "0.05", "--ces", str(ces)])
    capsys.readouterr()
    assert rc == 0


def test_explain_unknown_method_usage_error(tmp_path, example_model_file):
    inputs = _inputs_file(tmp_path, [[0.7, 0.5]])
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "explain",
                "--method",
                "wizard",
                "--model",
                str(example_model_file),
                "--inputs",
                str(inputs),
            ]
        )
    assert exc.value.code == 2


def test_explain_gce_bad_target_or_knob_is_an_error(tmp_path, example_model_file, capsys):
    doc = {
        "model_type": "relu_network",
        "input_dim": 2,
        "num_classes": 3,
        "layers": [{"weights": [[1.0, -1.0], [0.0, 0.5], [-1.0, 1.0]], "bias": None}],
    }
    three_class = tmp_path / "three_class.json"
    three_class.write_text(json.dumps(doc))
    inputs = _inputs_file(tmp_path, [[0.4, 0.6]])
    for model, extra in ((three_class, ["--target", "4"]), (example_model_file, ["--lam", "-1"])):
        rc = main(["explain", "--method", "gce", "--model", str(model), "--inputs", str(inputs), *extra])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ")


def test_explain_gce_r_negative_rounds_is_an_error(tmp_path, example_model_file, capsys):
    inputs = _inputs_file(tmp_path, [[0.7, 0.5]])
    argv = ["explain", "--method", "gce-r", "--model", str(example_model_file), "--inputs", str(inputs)]
    rc = main([*argv, "--max-iters", "-1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "max_rounds" in captured.err


@pytest.mark.parametrize("method", ["gce", "gce-r", "rnce"])
def test_explain_is_the_same_at_any_worker_count(tmp_path, example_model_file, method):
    # The targets change from input to input, so explain's per-target batches
    # must be put back in input order.
    rows = [[0.7, 0.5], [0.2, 0.9], [0.9, 0.2], [0.4, 0.6], [0.1, 0.3]]
    targets = [1, 0, 0, 1, 1]
    inputs = _inputs_file(tmp_path, rows, targets=targets)
    argv = [
        "explain", "--method", method, "--model", str(example_model_file), "--inputs",
        str(inputs), "--synth", "moons:100", "--seed", "0", "--delta", "0.05",
    ]
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"records-{workers}.jsonl"
        assert main([*argv, "--workers", workers, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    model, X = load_model(example_model_file), synth_binary(100, seed=0).X
    # The bare rnce is the command line's name for rnce-ff at the default flags.
    name = resolve_method(method)
    want = "".join(
        json.dumps(generate_all(name, model, ShiftSet("inf", 0.05), [x], t, X)[0].to_dict(), sort_keys=True)
        + "\n"
        for x, t in zip(rows, targets)
    )
    assert outputs[0].decode() == want


def test_estimate_delta_incremental_cli(tmp_path, capsys):
    rc = main(
        [
            "estimate-delta",
            "--strategy",
            "incremental",
            "--synth",
            "moons:200",
            "--epochs",
            "40",
            "--replicas",
            "2",
            "--seed",
            "4",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strategy"] == "incremental" and report["delta_inc"] > 0


@pytest.mark.parametrize("knob", [["--replicas", "0"], ["--iterations", "-2"]])
def test_estimate_delta_incremental_bad_count_is_an_error(knob, capsys):
    args = ["estimate-delta", "--strategy", "incremental", "--synth", "moons:200", "--epochs", "5"]
    rc = main(args + ["--seed", "0"] + knob)
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: replica count must be >= 1 and iterations >= 0" in captured.err
    assert "delta_inc" not in captured.out


def test_estimate_delta_validation_empty_pool_cli(capsys):
    rc = main(
        [
            "estimate-delta",
            "--strategy",
            "validation",
            "--synth",
            "moons:200",
            "--epochs",
            "40",
            "--replicas",
            "1",
            "--seed",
            "0",
            "--n-val",
            "0",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: need at least one validation input" in err
    assert "Traceback" not in err


def test_benchmark_smoke_and_outputs(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(
        [
            "benchmark",
            "--synth",
            "moons:200",
            "--methods",
            "nnce,rnce-ff",
            "--deltas",
            "0.02",
            "--epochs",
            "50",
            "--n-test",
            "5",
            "--n-seeds",
            "2",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for name in ("report.csv", "report.json", "timing.csv", "manifest.json"):
        assert (out / name).exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    for col in ("method", "vr_mean", "l1_mean", "lof_mean", "v_delta_0.02_mean"):
        assert col in header


def test_benchmark_without_seeds_is_an_error(tmp_path, capsys):
    out = tmp_path / "bench"
    argv = ["benchmark", "--synth", "moons:100", "--n-seeds", "0", "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: need n_test >= 1 and a seed, got 20 and ()" in err and "Traceback" not in err
    assert not out.exists()


def test_manifest_has_no_kernel_mode(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--synth", "moons:100", "--epochs", "5", "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert rc == 0 and "kernel_mode" not in manifest


@pytest.mark.parametrize("command", ["verify", "explain"])
@pytest.mark.parametrize("targets", [[1], [1, 1, 1, 1], 1])
def test_targets_that_do_not_match_the_inputs_are_an_error(
    tmp_path, example_model_file, capsys, command, targets
):
    # Three robust, valid points: a truncating zip would certify only the first.
    path = _inputs_file(tmp_path, [[0.1, 0.9], [0.2, 0.9], [0.1, 0.8]], targets=targets)
    if command == "verify":
        argv = ["verify", "--model", str(example_model_file), "--delta", "0.01", "--ces", str(path)]
    else:
        argv = ["explain", "--method", "mce", "--model", str(example_model_file), "--inputs", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f'error: {path}: "targets" must list one class for each of the 3 inputs\n'


@pytest.mark.parametrize("method", ["mce", "nnce", "rnce"])
def test_explain_out_of_range_target_is_an_error(tmp_path, example_model_file, capsys, method):
    inputs = _inputs_file(tmp_path, [[0.7, 0.5]])
    rc = main(
        [
            "explain", "--method", method, "--model", str(example_model_file), "--synth",
            "moons:100", "--inputs", str(inputs), "--target", "5", "--delta", "0.05",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: binary target must be 0 or 1\n"


def test_verify_malformed_logistic_model_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"model_type": "logistic", "layers": [{"weights": [[1, 2], [3, 4]], "bias": None}]})
    )
    inputs = _inputs_file(tmp_path, [[0.1, 0.9]])
    rc = main(["verify", "--model", str(bad), "--delta", "0.01", "--ces", str(inputs)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: a logistic model is one layer of one row")


@pytest.mark.parametrize("layer", [{"w": [[1, 2]]}, [[1, 2]]], ids=["no-weights", "not-an-object"])
def test_verify_model_layer_without_weights_is_an_error(tmp_path, capsys, layer):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model_type": "logistic", "layers": [layer]}))
    inputs = _inputs_file(tmp_path, [[0.1, 0.9]])
    rc = main(["verify", "--model", str(bad), "--delta", "0.01", "--ces", str(inputs)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == 'error: model layer 0 must be an object with "weights"\n'


@pytest.mark.parametrize("command", ["verify", "verify-soundness", "explain"])
def test_inputs_file_without_an_inputs_list_is_an_error(
    tmp_path, example_model_file, capsys, command
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input": [[0.4, 0.6]]}))
    good = _inputs_file(tmp_path, [[0.1, 0.9]])
    model = str(example_model_file)
    if command == "verify":
        argv = ["verify", "--model", model, "--delta", "0.01", "--ces", str(bad)]
    elif command == "verify-soundness":
        argv = ["verify", "--model", model, "--delta", "0.01", "--ces", str(good),
                "--check-soundness", "--input", str(bad)]
    else:
        argv = ["explain", "--method", "mce", "--model", model, "--inputs", str(bad)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f'error: {bad}: needs an "inputs" list\n'


def test_verify_soundness_input_without_a_point_is_an_error(tmp_path, example_model_file, capsys):
    empty = _inputs_file(tmp_path, [], name="empty.json")
    good = _inputs_file(tmp_path, [[0.1, 0.9]])
    rc = main(
        ["verify", "--model", str(example_model_file), "--delta", "0.01", "--ces", str(good),
         "--check-soundness", "--input", str(empty)]
    )
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f'error: {empty}: the "inputs" list is empty\n'
