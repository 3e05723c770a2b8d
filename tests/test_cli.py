import warnings

import numpy as np
import pytest

from cardioseq import cli, model_io, synthetic
from cardioseq import training as tr

from conftest import write_statlog_file


@pytest.fixture()
def statlog_file(tmp_path):
    ds = synthetic.separable_dataset(80, seed=21)
    # shift features positive so they also look like plausible raw values
    path = tmp_path / "synthetic.dat"
    write_statlog_file(path, ds)
    return str(path)


FAST_FLAGS = ["--epochs", "2", "--kernels", "2", "--seed", "5"]


def main_without_runtime_warnings(argv):
    """cli.main(argv), asserting that numpy printed no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


class TestValidate:
    def test_success_summary(self, statlog_file, capsys):
        assert cli.main(["validate", "--data", statlog_file]) == 0
        out = capsys.readouterr().out
        assert "80 records" in out
        assert "class balance" in out

    def test_malformed_row_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n1 2 3\n")
        assert cli.main(["validate", "--data", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", "--data", str(tmp_path / "nope.dat")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_data_flag(self, capsys):
        assert cli.main(["validate"]) == 2

    def test_non_finite_token_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n"
                     "70 1 4 nan 322 0 2 109 0 2.4 2 3 3 2\n")
        assert cli.main(["validate", "--data", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--pool", "windowed:3:0"),
    ("train", "--pool", "windowed:20:1"),
    ("train", "--pool", "windowed:0:1"),
    ("cv", "--k", "0"),
    ("cv", "--k", "1"),
    ("cv", "--k", "-1"),
    ("compare", "--model", "dv_logistic,foo"),
    ("cv", "--model", "foo"),
    ("train", "--model", "cnn,dv_logistic"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("cv", "--lr", "nan"),
    ("cv", "--k", "400"),
])
def test_bad_flag_value_rejected(statlog_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    code = cli.main([command, "--data", statlog_file, "--out", str(out),
                     flag, value] + FAST_FLAGS)
    assert code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


class TestTrain:
    def test_writes_model_and_curve(self, statlog_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["train", "--data", statlog_file, "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        assert (out / "model.txt").exists()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_acc,train_loss,val_acc,val_loss"
        assert len(curve) == 3
        assert "final train accuracy" in capsys.readouterr().out

    def test_zero_epochs_equals_initialization(self, statlog_file, tmp_path):
        out = tmp_path / "out"
        cli.main(["train", "--data", statlog_file, "--out", str(out),
                  "--epochs", "0", "--kernels", "2", "--seed", "5"])
        loaded = model_io.load_model(out / "model.txt")
        import cardioseq.network as nn
        expected = nn.init_params(2, np.random.default_rng(5))
        for k, v in expected.tensors().items():
            np.testing.assert_array_equal(loaded.params.tensors()[k], v)

    @pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
    def test_model_kind_trains_and_predicts(self, statlog_file, tmp_path, capsys, kind):
        out = tmp_path / "out"
        code = cli.main(["train", "--data", statlog_file, "--model", kind,
                         "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        assert f"\nmodel-kind {kind}\n" in (out / "model.txt").read_text()
        assert (out / "curve.csv").exists() == (kind == "cnn")
        assert cli.main(["predict", str(out / "model.txt"), ",".join(["0.05"] * 13)]) == 0
        assert "class " in capsys.readouterr().out

    def test_pso_elm_on_one_row_per_class(self, tmp_path, capsys):
        """Both rows go to the swarm's validation part, leaving no fit rows."""
        ds = synthetic.separable_dataset(40, seed=2)
        data = tmp_path / "two.dat"
        write_statlog_file(data, ds.subset([np.argmax(ds.y == 0), np.argmax(ds.y == 1)]))
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(data), "--model", "pso_elm",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["predict", str(out / "model.txt"), ",".join(["0.05"] * 13)]) == 0
        probs = [float(v) for v in capsys.readouterr().out.split("p =")[1].split()]
        assert len(probs) == 2 and np.all(np.isfinite(probs))

    def test_rerun_byte_identical(self, statlog_file, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cli.main(["train", "--data", statlog_file, "--out", str(out)] + FAST_FLAGS)
            outputs.append(
                ((out / "model.txt").read_bytes(), (out / "curve.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]


class TestCv:
    def test_reports_written_and_deterministic(self, statlog_file, tmp_path, capsys):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(
                ["cv", "--data", statlog_file, "--model", "dv_logistic",
                 "--k", "5", "--seed", "3", "--out", str(out)]
            )
            assert code == 0
            outputs.append(
                ((out / "cv_dv_logistic.txt").read_bytes(),
                 (out / "cv_dv_logistic.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]
        assert "mean accuracy" in capsys.readouterr().out


class TestCompare:
    def test_two_model_table(self, statlog_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["compare", "--data", statlog_file, "--model", "dv_logistic,pso_elm",
             "--k", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        text = (out / "comparison.txt").read_text()
        assert "dv_logistic" in text and "pso_elm" in text
        assert "published reference accuracies" in text
        assert (out / "comparison.csv").exists()

    def test_k_above_rows_rejected_before_any_work(self, statlog_file, tmp_path, capsys):
        # like `cv --k 400`: a bad flag value, not a table of FAILED cells
        out = tmp_path / "out"
        code = cli.main(["compare", "--data", statlog_file, "--model", "dv_logistic",
                         "--k", "400", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --k: {statlog_file}: 80 records cannot fill 400 folds\n")
        assert not out.exists()


class TestPredict:
    def test_zero_model_prints_half(self, statlog_file, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        for t in model.params.tensors().values():
            t[...] = 0.0
        path = tmp_path / "zero.txt"
        model_io.save_model(path, model)
        record = ",".join(["1.0"] * 13)
        assert cli.main(["predict", str(path), record]) == 0
        assert "class 0, p = 0.500000 0.500000" in capsys.readouterr().out

    def test_missing_marker_accepted(self, statlog_file, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=2, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        record = "?," + ",".join(["0.05"] * 12)
        assert cli.main(["predict", str(path), record]) == 0
        assert "class" in capsys.readouterr().out

    def test_trained_sample_gets_its_class(self, tmp_path, capsys):
        ds = synthetic.separable_dataset(200, seed=1)
        model = tr.train(ds, tr.Hyperparams(seed=7))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        rec = ds.records[0]
        record = ",".join(f"{v:.10g}" for v in rec.features)
        assert cli.main(["predict", str(path), record]) == 0
        assert f"class {rec.label}" in capsys.readouterr().out

    def test_non_finite_probabilities_exit_code(self, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        for t in model.params.tensors().values():
            t[...] = np.where(np.arange(t.size).reshape(t.shape) % 2, 1e308, -1e308)
        path = tmp_path / "huge.txt"
        model_io.save_model(path, model)
        record = ",".join(["1.0"] * 13)
        assert main_without_runtime_warnings(["predict", str(path), record]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: non-finite class probabilities nan nan\n"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_record_rejected(self, tmp_path, capsys, token):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        record = ",".join(["1.0"] * 12 + [token])
        assert cli.main(["predict", str(path), record]) == 2
        assert "record value 13" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["nan_weight", "cut_last_line"])
    def test_broken_model_file_rejected(self, tmp_path, capsys, damage):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        lines = path.read_text().splitlines()
        if damage == "nan_weight":
            i = next(j for j, line in enumerate(lines) if line.startswith("tensor dense_w")) + 1
            lines[i] = " ".join(["nan"] + lines[i].split()[1:])
        else:
            lines = lines[:-1]
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["predict", str(path), ",".join(["1.0"] * 13)]) == 2
        captured = capsys.readouterr()
        assert "line" in captured.err
        assert "p = " not in captured.out

    def test_arity_error(self, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        assert cli.main(["predict", str(path), "1,2,3"]) == 2

    def test_negative_first_value_needs_no_separator(self, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=2, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        record = "-0.5," + ",".join(["1.2"] * 12)
        assert cli.main(["predict", str(path), "--", record]) == 0
        with_separator = capsys.readouterr().out
        assert cli.main(["predict", str(path), record]) == 0
        assert capsys.readouterr().out == with_separator
        assert with_separator.startswith("class ")

    @pytest.mark.parametrize("tokens", [[], ["1,2", "3"], ["--", "-1", "-2"]])
    def test_record_must_be_one_argument(self, tmp_path, capsys, tokens):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        assert cli.main(["predict", str(path), *tokens]) == 2
        captured = capsys.readouterr()
        assert "record: expected one argument" in captured.err
        assert "p = " not in captured.out


class TestConfig:
    def test_config_file_with_flag_override(self, statlog_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nkernels = 2\nseed = 5\n")
        out = tmp_path / "out"
        code = cli.main(
            ["train", "--data", statlog_file, "--config", str(cfg),
             "--epochs", "2", "--out", str(out)]
        )
        assert code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert len(curve) == 3  # flag override: 2 epochs, not 1

    def test_unknown_key_rejected(self, statlog_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli.main(
            ["train", "--data", statlog_file, "--config", str(cfg)]
        ) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_names_line(self, statlog_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nepochs = abc\n")
        assert cli.main(
            ["train", "--data", statlog_file, "--config", str(cfg)]
        ) == 2
        assert f"{cfg}:2: epochs" in capsys.readouterr().err

    def test_out_env_var(self, statlog_file, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("CARDIOSEQ_OUT", str(out))
        code = cli.main(["train", "--data", statlog_file] + FAST_FLAGS)
        assert code == 0
        assert (out / "model.txt").exists()


def test_training_failure_exit_code(tmp_path, capsys):
    # single-class file: training must fail with the runtime exit code
    p = tmp_path / "one_class.dat"
    lines = ["1 0 0 0 0 0 0 0 0 0 0 0 0 2"] * 12
    p.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--data", str(p), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("command, message", [
    ("train", "error: non-finite loss at epoch 0, batch 1\n"),
    ("cv", "error: fold 0: non-finite loss at epoch 0, batch 1\n"),
])
def test_non_finite_loss_exit_code(statlog_file, tmp_path, capsys, command, message):
    out = tmp_path / "out"
    code = main_without_runtime_warnings(
        [command, "--data", statlog_file, "--lr", "1e308", "--out", str(out)] + FAST_FLAGS)
    assert code == 3
    assert capsys.readouterr().err == message
    assert not out.exists()  # no model, curve or report written


@pytest.mark.parametrize("command, message", [
    ("train", "error: non-finite train curve loss at epoch 0\n"),
    ("cv", "error: fold 0: non-finite train curve loss at epoch 0\n"),
])
def test_non_finite_curve_loss_exit_code(statlog_file, tmp_path, capsys, command, message):
    # one full-batch step: its own loss is finite, the weights it leaves give NaN
    out = tmp_path / "out"
    code = main_without_runtime_warnings(
        [command, "--data", statlog_file, "--lr", "1e308", "--epochs", "1", "--batch", "1000",
         "--kernels", "2", "--seed", "5", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_single_class_fold_exit_code(tmp_path, capsys):
    # one class-1 row among 12 and k = 2: the stratified split puts it in
    # fold 1, so fold 1 trains on class 0 only
    p = tmp_path / "one_positive.dat"
    lines = [f"{i} 0 0 0 0 0 0 0 0 0 0 0 0 1" for i in range(11)] + ["50 0 0 0 0 0 0 0 0 0 0 0 0 2"]
    p.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["cv", "--data", str(p), "--k", "2", "--out", str(out)] + FAST_FLAGS) == 3
    assert capsys.readouterr().err == "error: fold 1: training data must contain both classes\n"
    assert not out.exists()


def test_dv_logistic_single_class_fold_exit_code(tmp_path, capsys):
    # as above: fold 1 trains on class 0 only
    p = tmp_path / "one_positive.dat"
    lines = [f"{i} 0 0 0 0 0 0 0 0 0 0 0 0 1" for i in range(11)] + ["50 0 0 0 0 0 0 0 0 0 0 0 0 2"]
    p.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["cv", "--data", str(p), "--model", "dv_logistic", "--k", "2",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: fold 1: training data must contain both classes\n"
    assert not out.exists()
