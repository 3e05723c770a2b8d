import contextlib
import io
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardioseq import baselines as bl
from cardioseq import cli, errors, model_io, synthetic
from cardioseq import data as dp
from cardioseq import evaluation as ev
from cardioseq import network as nn
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
    """cli.main(argv), asserting that numpy printed no RuntimeWarning. Every
    warning is recorded through `cli._show_warning`, the hook `cli.main`
    shows warnings with, instead of being shown."""
    caught = []
    with warnings.catch_warnings(), mock.patch.object(
            cli, "_show_warning", lambda message, category, *_: caught.append((message, category))):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(m) for m, category in caught if issubclass(category, RuntimeWarning)] == []
    return code


def test_runtime_warning_inside_main_fails_the_warning_check(monkeypatch, statlog_file):
    def warn(cfg):
        warnings.warn("overflow encountered", RuntimeWarning)
        return 0
    monkeypatch.setitem(cli.COMMANDS, "validate", warn)
    with pytest.raises(AssertionError):
        main_without_runtime_warnings(["validate", "--data", statlog_file])


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
        assert capsys.readouterr().err.startswith(f"error: {p}:2: ")

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate", "--data", str(tmp_path / "nope.dat")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_data_flag(self, capsys):
        assert cli.main(["validate"]) == 2

    def test_missing_values_listed_per_column(self, tmp_path, capsys):
        p = tmp_path / "c.data"
        p.write_text(CLEVELAND_ROWS)
        assert cli.main(["validate", "--data", str(p), "--dialect", "cleveland"]) == 0
        assert capsys.readouterr().out == (
            "10 records\nclass balance: 5 absence, 5 presence\n"
            "missing values per column:\n  age: 1\n  ca: 1\n  thal: 1\n")

    def test_non_finite_token_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.dat"
        p.write_text("70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n"
                     "70 1 4 nan 322 0 2 109 0 2.4 2 3 3 2\n")
        assert cli.main(["validate", "--data", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}:2: ")

    @pytest.mark.parametrize("command", ["validate", "train", "cv"])
    def test_non_ascii_byte_names_file_line(self, tmp_path, capsys, command):
        p = tmp_path / "bad.dat"
        row = b"70 1 4 130 322 0 2 109 0 2.4 2 3 3 2\n"
        p.write_bytes(row * 2 + b"4\xff" + row[2:] + row)
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {p}:3: byte 0xff at column 2 is not ASCII\n"
        assert captured.out == ""
        assert not out.exists()


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
    ("cv", "--k", "abc"),
    ("train", "--epochs", "-1"),
    ("cv", "--batch", "0"),
    ("train", "--kernels", "0"),
    ("cv", "--dropout", "1"),
    ("cv", "--seed", "-1"),
    ("validate", "--dialect", "foo"),
    ("train", "--dialect", "statlog,cleveland"),
    ("compare", "--dialect", "statlog,foo"),
    ("train", "--pool", "windowed:3"),
    ("train", "--pool", "windowed:a:b"),
    ("train", "--pool", "windowed:3:2:1"),
    ("train", "--epochs", "abc"),
    ("cv", "--lr", "fast"),
    ("train", "--batch", "1.5"),
])
def test_bad_flag_value_rejected(statlog_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    code = cli.main([command, "--data", statlog_file, "--out", str(out)]
                    + FAST_FLAGS + [flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ")
    if flag == "--pool":
        assert "expected global or windowed:SIZE:STRIDE" in captured.err
    assert captured.out == ""
    assert not out.exists()


# flag, config key, bad value: each fails to parse or is out of range
BAD_VALUES = [("epochs", "-1"), ("epochs", "abc"), ("lr", "nan"), ("dropout", "1"),
              ("batch", "0"), ("kernels", "0"), ("seed", "-1"), ("pool", "windowed:3:0"),
              ("k", "1"), ("k", "abc"), ("model", "foo"), ("dialect", "foo")]


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_bad_cnn_value_located_as_flag_and_config_line(statlog_file, tmp_path, capsys,
                                                       key, value):
    """The same message, after the flag or after the config file line."""
    out = tmp_path / "out"
    argv = ["train", "--data", statlog_file, "--out", str(out)]
    assert cli.main(argv + [f"--{key}", value]) == 2
    flag = capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\n{key} = {value}\nbogus = 1\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    config = capsys.readouterr()
    assert flag.out == config.out == ""
    assert flag.err.startswith(f"error: --{key}: ") and flag.err.count("\n") == 1
    assert config.err.startswith(f"error: {cfg}:2: {key}: ")
    assert config.err.split(f"{key}: ", 1)[1] == flag.err.split(f"{key}: ", 1)[1]
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "compare"])
@pytest.mark.parametrize("source", ["flag", "config", "default"])
def test_too_few_rows_names_source_of_k_and_file(tmp_path, capsys, command, source):
    """One check, after the file is parsed and before any fit, in cv and compare."""
    data = tmp_path / "h.dat"
    write_statlog_file(data, synthetic.separable_dataset(6, seed=2))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nk = 8\n")
    argv, where, k = {"flag": (["--k", "8"], "--k", 8),
                      "config": (["--config", str(cfg)], f"{cfg}:2: k", 8),
                      "default": ([], "default k", 10)}[source]
    out = tmp_path / "out"
    assert cli.main([command, "--data", str(data), "--model", "dv_logistic",
                     "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {where}: {data}: 6 records cannot fill {k} folds\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("error, code", [(errors.InputError, 2), (errors.CardioseqError, 3),
                                         (errors.SingleClassDataError, 3)])
def test_exit_code_follows_the_error_class(statlog_file, capsys, monkeypatch, error, code):
    """Any InputError, including a subclass main has never heard of, exits 2;
    any other CardioseqError exits 3."""
    class Raised(error):
        pass

    def fail(cfg):
        raise Raised("boom")

    monkeypatch.setitem(cli.COMMANDS, "validate", fail)
    assert cli.main(["validate", "--data", statlog_file]) == code
    assert capsys.readouterr().err == "error: boom\n"


class TestTrain:
    def test_writes_model_and_curve(self, statlog_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["train", "--data", statlog_file, "--out", str(out)] + FAST_FLAGS
        )
        assert code == 0
        assert (out / "model.txt").exists()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_acc,train_loss"
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

    @pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
    def test_constant_column_is_ignored(self, tmp_path, capsys, kind):
        """A training column holding one repeated decimal has zero spread, so
        a record's value there cannot move the prediction. (Its computed
        population std is a rounding residue, 1.1e-16 here, not 0.)"""
        ds = synthetic.separable_dataset(80, seed=21)
        X = ds.X.copy()
        X[:, 9] = 0.7  # oldpeak
        data = tmp_path / "const.dat"
        write_statlog_file(data, dp.Dataset(X, ds.y))
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(data), "--model", kind,
                         "--out", str(out)] + FAST_FLAGS) == 0
        capsys.readouterr()
        lines = []
        for value in ("0.7", "0.8", "-40", "?"):
            record = [repr(v) for v in X[0].tolist()]
            record[9] = value
            assert cli.main(["predict", str(out / "model.txt"), ",".join(record)]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0].startswith("class ")
        assert lines == [lines[0]] * 4

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


    def test_dialect_count_must_match_data_files(self, statlog_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["compare", "--data", f"{statlog_file},{statlog_file}",
                         "--dialect", "statlog,statlog,statlog", "--model", "dv_logistic",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --dialect: give one dialect or one per data file\n")
        assert not out.exists()

    def test_shared_file_name_rejected_before_any_work(self, tmp_path, capsys, monkeypatch):
        """Each --data entry needs its own column: the first of a dialect is named
        by the dialect, the next by its file name, and two equal file names clash."""
        paths = []
        for sub in "abc":
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "h.data")
            write_statlog_file(paths[-1], synthetic.separable_dataset(40, seed=2))
        parsed = []
        monkeypatch.setattr(dp, "parse_dataset", lambda *args: parsed.append(args))
        out = tmp_path / "out"
        code = cli.main(["compare", "--data", ",".join(map(str, paths)), "--model",
                         "dv_logistic", "--k", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --data: {paths[1]} and {paths[2]} would share the "
                                "column name 'h.data'; give them different file names\n")
        assert captured.out == ""
        assert parsed == [] and not out.exists()


# Ten hand-written cleveland-dialect rows, three of them with a `?`.
CLEVELAND_ROWS = """\
63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0
67.0,1.0,4.0,160.0,286.0,0.0,2.0,108.0,1.0,1.5,2.0,3.0,3.0,2
67.0,1.0,4.0,120.0,229.0,0.0,2.0,129.0,1.0,2.6,2.0,?,7.0,1
37.0,1.0,3.0,130.0,250.0,0.0,0.0,187.0,0.0,3.5,3.0,0.0,3.0,0
41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.4,1.0,0.0,?,0
56.0,1.0,2.0,120.0,236.0,0.0,0.0,178.0,0.0,0.8,1.0,0.0,3.0,0
62.0,0.0,4.0,140.0,268.0,0.0,2.0,160.0,0.0,3.6,3.0,2.0,3.0,3
?,0.0,4.0,120.0,354.0,0.0,0.0,163.0,1.0,0.6,1.0,0.0,3.0,0
63.0,1.0,4.0,130.0,254.0,0.0,2.0,147.0,0.0,1.4,2.0,1.0,7.0,2
53.0,1.0,4.0,140.0,203.0,1.0,2.0,155.0,1.0,3.1,3.0,0.0,7.0,1
"""


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

    def test_empty_model_path_is_named(self, capsys):
        assert cli.main(["predict", "", ",".join(["1"] * 13)]) == 2
        assert capsys.readouterr() == ("", "error: empty model file path\n")

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
        record = ",".join(f"{v:.10g}" for v in ds.X[0])
        assert cli.main(["predict", str(path), record]) == 0
        assert f"class {ds.y[0]}" in capsys.readouterr().out
        # a cleveland file's rows, `?` and all, score through `predict` with
        # the bits of their parsed rows, for every model kind
        data = tmp_path / "heart.data"
        data.write_text(CLEVELAND_ROWS)
        ds = dp.parse_dataset(data, "cleveland")
        assert np.isnan(ds.X).sum() == 3
        for kind in ev.MODEL_KINDS:
            out = tmp_path / kind
            assert cli.main(["train", "--data", str(data), "--dialect", "cleveland",
                             "--model", kind, *FAST_FLAGS, "--out", str(out)]) == 0
            capsys.readouterr()
            model = model_io.load_model(out / "model.txt")
            for i, line in enumerate(CLEVELAND_ROWS.splitlines()):
                record = line.rsplit(",", 1)[0]
                assert cli.parse_record(record).tobytes() == ds.X[i].tobytes()
                assert cli.main(["predict", str(out / "model.txt"), record]) == 0
                cls, p = tr.predict(model, ds.X[i])
                assert capsys.readouterr().out == f"class {cls}, p = {p[0]:.6f} {p[1]:.6f}\n"

    def test_non_finite_probabilities_exit_code(self, tmp_path, capsys):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        for t in model.params.tensors().values():
            t[...] = np.where(np.arange(t.size).reshape(t.shape) % 2, 1e308, -1e308)
        path = tmp_path / "huge.txt"
        model_io.save_model(path, model)
        record = ",".join(["1.0"] * 13)
        assert main_without_runtime_warnings(["predict", str(path), record]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: non-finite class probabilities nan nan\n"

    @pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
    def test_subnormal_scaler_spread_is_bad_input(self, tmp_path, capsys, fitted_models, kind):
        """A spread of 1e-320 in every column overflows the scaling of any
        record: loading the model file names the spread's line, for every
        kind, before any record is scored."""
        path = tmp_path / "m.txt"
        model_io.save_model(path, fitted_models[kind])
        name = "numeric_std" if kind == "dv_logistic" else "scaler_std"
        lines = path.read_text().splitlines()
        at = lines.index(f"tensor {name} 1 13") + 1
        lines[at] = " ".join(["1e-320"] * 13)
        path.write_text("\n".join(lines) + "\n")
        code = main_without_runtime_warnings(["predict", str(path), ",".join(["1.5"] * 13)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: line {at}: tensor {name!r}: column 'age' has spread "
                                "1e-320, which is negative or too small to scale by\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "x"])
    def test_non_finite_record_rejected(self, tmp_path, capsys, token):
        """A record token that is not a finite number ("x" is none) is named by position."""
        problem = "unparseable" if token == "x" else "non-finite"
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        record = ",".join(["1.0"] * 12 + [token])
        assert cli.main(["predict", str(path), record]) == 2
        assert capsys.readouterr().err == f"error: record value 13: {problem} token {token!r}\n"

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

    @pytest.mark.parametrize("line_no, column", [(1, 1), (4, 7)])
    def test_non_ascii_model_file_names_line(self, tmp_path, capsys, line_no, column):
        ds = synthetic.separable_dataset(40, seed=2)
        model = tr.train(ds, tr.Hyperparams(epochs=0, kernels_per_width=2, seed=1))
        path = tmp_path / "m.txt"
        model_io.save_model(path, model)
        lines = path.read_bytes().splitlines(keepends=True)
        line = lines[line_no - 1]
        lines[line_no - 1] = line[: column - 1] + b"\xff" + line[column:]
        path.write_bytes(b"".join(lines))
        assert cli.main(["predict", str(path), ",".join(["1.0"] * 13)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}:{line_no}: byte 0xff at column {column} is not ASCII\n")
        assert captured.out == ""

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

    def test_values_checked_as_the_file_is_read(self, statlog_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nkernels = 0\nbogus = 1\n")
        assert cli.main(["validate", "--data", statlog_file, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: kernels: kernels_per_width must be at least 1, got 0\n")

    def test_bad_value_names_line(self, statlog_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nepochs = abc\n")
        assert cli.main(
            ["train", "--data", statlog_file, "--config", str(cfg)]
        ) == 2
        assert f"{cfg}:2: epochs" in capsys.readouterr().err

    def test_non_ascii_byte_names_line(self, statlog_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\npool = caf\xe9\n")
        out = tmp_path / "out"
        assert cli.main(
            ["train", "--data", statlog_file, "--config", str(cfg), "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: byte 0xe9 at column 11 is not ASCII\n")
        assert not out.exists()

    def test_out_env_var(self, statlog_file, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("CARDIOSEQ_OUT", str(out))
        code = cli.main(["train", "--data", statlog_file] + FAST_FLAGS)
        assert code == 0
        assert (out / "model.txt").exists()

    def test_out_env_var_is_a_source(self, statlog_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CARDIOSEQ_OUT", str(tmp_path / "envout"))
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "validate", lambda cfg: seen.append(cfg) or 0)
        assert cli.main(["validate", "--data", statlog_file]) == 0
        assert seen[0].out == str(tmp_path / "envout")
        assert seen[0].sources["out"] == "CARDIOSEQ_OUT"

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_empty_out_names_its_source(self, statlog_file, tmp_path, monkeypatch, capsys,
                                        source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = dv_logistic\nout =\n")
        argv, where = {"flag": (["--out", ""], "--out"),
                       "config": (["--config", str(cfg)], f"{cfg}:2: out"),
                       "env": ([], "CARDIOSEQ_OUT")}[source]
        monkeypatch.setenv("CARDIOSEQ_OUT", "" if source == "env" else str(tmp_path / "out"))
        assert cli.main(["train", "--data", statlog_file, "--model", "dv_logistic"] + argv) == 2
        assert capsys.readouterr().err == f"error: {where}: empty output directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "compare list", "config"])
    def test_empty_data_path_names_its_source(self, statlog_file, tmp_path, capsys, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data =\n")
        argv, where = {"flag": (["validate", "--data", ""], "--data"),
                       "compare list": (["compare", "--data", f"{statlog_file},"], "--data"),
                       "config": (["validate", "--config", str(cfg)], f"{cfg}:1: data")}[source]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: {where}: empty data path\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_compare_repeated_model_names_its_source(statlog_file, tmp_path, capsys, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\nmodel = dv_logistic,pso_elm,dv_logistic\n")
    argv, where = {"flag": (["--model", "dv_logistic,pso_elm,dv_logistic"], "--model"),
                   "config": (["--config", str(cfg)], f"{cfg}:2: model")}[source]
    out = tmp_path / "out"
    assert cli.main(["compare", "--data", statlog_file, "--out", str(out)] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {where}: model 'dv_logistic' is listed twice\n")
    assert not out.exists()


@pytest.mark.filterwarnings("default::UserWarning")
def test_library_warning_prints_one_warning_line(tmp_path, capsys):
    """A file whose smaller class (3 of 40 rows) cannot fill 10 folds' strata
    cross-validates on plain folds: `cv` says so in one `warning:` line on
    stderr, not as a raw Python warning, and exits 0."""
    ds = synthetic.separable_dataset(80, seed=21)
    rows = np.concatenate([np.flatnonzero(ds.y == 0)[:37], np.flatnonzero(ds.y == 1)[:3]])
    p = tmp_path / "rare.dat"
    write_statlog_file(p, ds.subset(rows))
    out = tmp_path / "out"
    assert cli.main(["cv", "--data", str(p), "--model", "dv_logistic", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: class too small for stratification; using plain folds\n")


def test_training_failure_exit_code(tmp_path, capsys):
    # single-class file: training must fail with the runtime exit code
    p = tmp_path / "one_class.dat"
    lines = ["1 0 0 0 0 0 0 0 0 0 0 0 0 2"] * 12
    p.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--data", str(p), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("command", ["train", "cv"])
def test_out_of_memory_exit_code(statlog_file, tmp_path, capsys, monkeypatch, command):
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(nn, "init_params", no_memory)
    out = tmp_path / "out"
    assert cli.main([command, "--data", statlog_file, "--out", str(out)] + FAST_FLAGS) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory in {command}\n"
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
def test_single_class_fold_named_before_any_fit(tmp_path, capsys, monkeypatch, kind):
    """One class-1 row among 12 and k = 2: the stratified split puts it in
    fold 1, so fold 1 trains on class 0 only. Every kind names the fold
    before it fits anything (PSO-ELM runs no swarm solve)."""
    solves = []
    monkeypatch.setattr(bl, "elm_solve_output", lambda *args: solves.append(args))
    p = tmp_path / "one_positive.dat"
    lines = [f"{i} 0 0 0 0 0 0 0 0 0 0 0 0 1" for i in range(11)] + ["50 0 0 0 0 0 0 0 0 0 0 0 0 2"]
    p.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["cv", "--data", str(p), "--model", kind, "--k", "2",
                     "--out", str(out)] + FAST_FLAGS) == 3
    assert capsys.readouterr().err == "error: fold 1: training data must contain both classes\n"
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
def test_all_missing_column_fold_named_before_any_fit(tmp_path, capsys, monkeypatch, kind):
    """`ca` is observed in one row of 30: the fold that tests that row trains
    with no observed `ca`, and every kind names that fold before it fits."""
    solves = []
    monkeypatch.setattr(bl, "elm_solve_output", lambda *args: solves.append(args))
    ds = synthetic.separable_dataset(30, seed=3)
    p = tmp_path / "sparse.data"
    with open(p, "w") as fh:
        for i, (row, label) in enumerate(zip(ds.X.tolist(), ds.y.tolist())):
            row[11] = 1 if i == 0 else "?"
            fh.write(",".join(map(str, row + [label])) + "\n")
    fold = ev.kfold_split(dp.parse_dataset(p, "cleveland"), k=3, seed=5).assignments[0]
    out = tmp_path / "out"
    assert cli.main(["cv", "--data", str(p), "--dialect", "cleveland", "--model", kind,
                     "--k", "3", "--out", str(out)] + FAST_FLAGS) == 3
    assert capsys.readouterr().err == f"error: fold {fold}: column 'ca' has no observed values\n"
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("command", ["cv", "compare"])
def test_record_too_large_for_its_fold_model_names_fold_and_record(tmp_path, capsys, command):
    """1.7e308 in one row's fbs: the folds that train on the row get an
    infinite fbs spread and scale the column to 0; the fold that tests it
    scores NaN for it, which is bad input: exit 2 naming fold and record (a
    failed cell in compare), with no numpy warning."""
    ds = synthetic.separable_dataset(30, seed=3)
    X = ds.X.copy()
    X[0, dp.FEATURE_NAMES.index("fbs")] = 1.7e308
    p = tmp_path / "huge.dat"
    write_statlog_file(p, dp.Dataset(X, ds.y))
    fold = ev.kfold_split(dp.parse_dataset(p, "statlog"), k=3, seed=5).assignments[0]
    message = f"fold {fold}: record 1: non-finite class probabilities nan nan"
    out = tmp_path / "out"
    code = main_without_runtime_warnings([command, "--data", str(p), "--model", "cnn",
                                          "--k", "3", "--out", str(out)] + FAST_FLAGS)
    captured = capsys.readouterr()
    if command == "cv":
        assert (code, captured.err) == (2, f"error: {message}\n")
        assert not out.exists()
    else:
        assert code == 3
        assert f"cnn / statlog: NonFiniteProbabilityError: {message}\n" in captured.out


@pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
def test_column_too_large_to_scale_names_fold_and_column(tmp_path, capsys, kind):
    """1.7e308, -1.7e308 and 1.7e308 in the `age` of rows 1 to 3: a fold that
    trains on two of them cannot fit the column's scaler (its mean or its
    range overflows), which is bad input: every kind exits 2 naming the
    first such fold and the column, with no numpy warning."""
    ds = synthetic.separable_dataset(30, seed=3)
    X = ds.X.copy()
    X[:3, dp.FEATURE_NAMES.index("age")] = [1.7e308, -1.7e308, 1.7e308]
    p = tmp_path / "huge.dat"
    write_statlog_file(p, dp.Dataset(X, ds.y))
    tested = ev.kfold_split(dp.parse_dataset(p, "statlog"), k=3, seed=5).assignments[:3]
    fold = next(f for f in range(3) if np.sum(tested == f) <= 1)
    out = tmp_path / "out"
    code = main_without_runtime_warnings(["cv", "--data", str(p), "--model", kind,
                                          "--k", "3", "--out", str(out)] + FAST_FLAGS)
    assert (code, capsys.readouterr().err) == (
        2, f"error: fold {fold}: column 'age' has values too large to scale\n")
    assert not out.exists()


# Config-file text: every known key with valid and invalid texts for its codec,
# unknown keys, comments, blank lines and lines without "=".
ASCII_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
INT_TEXTS = st.integers(-3, 40).map(str) | st.sampled_from(["abc", "1.5", "", "1e3", "0x10"])
FLOAT_TEXTS = (st.floats().map(repr)
               | st.sampled_from(["x", "1e-3", "0", "-0.5", "1e400", "", "0.999999"]))
POOL_TEXTS = (st.sampled_from(["global", "windowed:3", "windowed:a:b", "Global", ""])
              | st.builds("windowed:{}:{}".format, st.integers(-1, 15), st.integers(-1, 3)))
KEY_TEXTS = {"epochs": INT_TEXTS, "batch": INT_TEXTS, "kernels": INT_TEXTS, "seed": INT_TEXTS,
             "k": INT_TEXTS, "lr": FLOAT_TEXTS, "dropout": FLOAT_TEXTS, "pool": POOL_TEXTS,
             "model": st.sampled_from(["cnn", "pso_elm", "foo", "cnn,pso_elm"]),
             "dialect": st.sampled_from(["statlog", "bogus"]),
             "data": ASCII_TEXT, "out": ASCII_TEXT}
KNOWN_KEY_LINES = st.sampled_from(list(KEY_TEXTS)).flatmap(
    lambda key: KEY_TEXTS[key].map(lambda value: f"{key} = {value}"))
CONFIG_LINES = st.one_of(
    KNOWN_KEY_LINES, KNOWN_KEY_LINES, KNOWN_KEY_LINES,  # drawn three times as often
    st.builds("{}={}".format, st.from_regex(r"[a-z_]{1,8}", fullmatch=True), ASCII_TEXT),
    ASCII_TEXT.map("# {}".format),
    st.just(""),
    ASCII_TEXT.filter(lambda text: "=" not in text),
)


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    data = root / "h.dat"
    write_statlog_file(data, synthetic.separable_dataset(40, seed=4))
    return str(data), str(root / "run.cfg")


def run_main(argv):
    """cli.main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(lines=st.lists(CONFIG_LINES, max_size=6))
@example(lines=["k = 1"])
@example(lines=["seed = 1", "model = cnn,foo"])
@example(lines=["dialect = bar"])
def test_config_text_runs_or_names_its_line_or_flag(config_paths, lines):
    data, cfg = config_paths
    with open(cfg, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code, _, err = run_main(["validate", "--data", data, "--config", cfg])
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {cfg}:"), err


# Record text: 13 numbers or `?`, 13 tokens of any kind, some other number
# of tokens, or any text.
RECORD_VALUES = (st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.just("?")
                 | st.integers(-10**6, 10**6).map(str))
RECORD_TOKENS = (RECORD_VALUES | st.floats().map(repr) | ASCII_TEXT
                 | st.sampled_from(["", " 1 ", "x", "1e400", "-inf", "1_0", "0x10"]))
RECORD_TEXTS = st.one_of(st.lists(RECORD_VALUES, min_size=13, max_size=13).map(",".join),
                         st.lists(RECORD_TOKENS, min_size=13, max_size=13).map(",".join),
                         st.lists(RECORD_TOKENS, max_size=15).map(",".join), ASCII_TEXT)


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory, fitted_models):
    root = tmp_path_factory.mktemp("models")
    for kind, model in fitted_models.items():
        model_io.save_model(root / f"{kind}.txt", model)
    return {kind: str(root / f"{kind}.txt") for kind in fitted_models}


@given(kind=st.sampled_from(["cnn", "dv_logistic", "pso_elm"]), text=RECORD_TEXTS)
@example(kind="cnn", text=",".join(["1.7e308"] * 13))
def test_record_text_predicts_or_names_its_value(model_paths, kind, text):
    code, out, err = run_main(["predict", model_paths[kind], text])
    if code == 0:
        assert err == ""
        probs = [float(v) for v in out.split("p =")[1].split()]
        assert len(probs) == 2 and np.all(np.isfinite(probs))
    else:
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: record"), err
        assert out == ""


# Model-file text: a saved file of each kind with one edit, a value or param
# token replaced by a huge, subnormal, negative or garbage token, a line
# dropped, duplicated or swapped with another, or the file truncated.
MODEL_TOKENS = (st.sampled_from(["1e308", "-1e308", "1.7e308", "1e-320", "-5e-324", "-1", "-0.0",
                                 "0", "x", "nan", "inf", "1e400", "?", "windowed:1:1"])
                | st.floats().map(repr) | st.integers(-10**6, 10**6).map(str) | ASCII_TEXT)


def value_tokens(lines):
    """(line, token) positions of a model file's values and param values."""
    keyword_tokens = {"param": {2}, "tensor": set(), "model-kind": set(), "cardioseq-model": set()}
    return [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))
            if j in keyword_tokens.get(line.split()[0], {j})]


@st.composite
def edited_model_text(draw, text):
    lines = text.splitlines()
    edit = draw(st.sampled_from(["token", "drop", "duplicate", "swap", "truncate"]))
    line = st.integers(0, len(lines) - 1)
    if edit == "token":
        i, j = draw(st.sampled_from(value_tokens(lines)))
        tokens = lines[i].split()
        tokens[j] = draw(MODEL_TOKENS)
        lines[i] = " ".join(tokens)
    elif edit == "drop":
        del lines[draw(line)]
    elif edit == "duplicate":
        i = draw(line)
        lines.insert(i, lines[i])
    elif edit == "swap":
        i, j = draw(line), draw(line)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        return text[: draw(st.integers(0, len(text)))]
    return "\n".join(lines) + "\n"


@given(kind=st.sampled_from(["cnn", "dv_logistic", "pso_elm"]), data=st.data())
def test_model_file_text_predicts_or_names_the_problem(model_paths, kind, data):
    """A model file with one edit predicts a fixed record with finite
    probabilities that sum to 1, or exits 2 with one `error:` line: never 3,
    a traceback or a NaN."""
    with open(model_paths[kind]) as fh:
        text = data.draw(edited_model_text(fh.read()))
    path = model_paths[kind] + ".edited"
    with open(path, "w") as fh:
        fh.write(text)
    code, out, err = run_main(["predict", path, "?,1,3,145,233,1,0,150,0,2.3,0,0,1"])
    if code == 0:
        assert err == ""
        probs = [float(v) for v in out.split("p =")[1].split()]
        assert len(probs) == 2 and np.all(np.isfinite(probs)) and abs(sum(probs) - 1) < 1e-5
    else:
        assert code == 2, err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert out == ""


# Data-file text: rows that are mostly well formed for the dialect, rows of
# any tokens, any text and blank lines, and sometimes a byte that is not ASCII.
NUMBER_TEXTS = st.integers(0, 300).map(str) | st.sampled_from(["0.5", "-1.5e2"])
FEATURE_TOKENS = st.one_of(*[NUMBER_TEXTS] * 12, st.just("?"))
DATA_TOKENS = (FEATURE_TOKENS | st.floats().map(repr) | ASCII_TEXT
               | st.sampled_from(["", "x", "nan", "1e400", "\t", "\r", "\v"]))
ANY_ROWS = st.builds(str.join, st.sampled_from([" ", ","]),
                     st.lists(DATA_TOKENS, min_size=12, max_size=15))


def data_files(dialect):
    """(dialect, lines of a data file)"""
    sep, labels = {"statlog": (" ", ["1", "2", "2.0"]),
                   "cleveland": (",", ["0", "1", "4"])}[dialect]
    label = st.one_of(*[st.sampled_from(labels)] * 3, st.sampled_from(["5", "?", "-1"]))
    rows = st.builds(lambda features, label: sep.join([*features, label]),
                     st.lists(FEATURE_TOKENS, min_size=13, max_size=13), label)
    lines = st.one_of(*[rows] * 6, ANY_ROWS, ASCII_TEXT, st.just(""))
    return st.tuples(st.just(dialect), st.lists(lines, max_size=5))


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("data") / "h.data"


@given(file=st.sampled_from(dp.DIALECTS).flatmap(data_files), at=st.integers(0, 300),
       bad_byte=st.one_of(st.none(), st.none(), st.none(), st.sampled_from([0x80, 0xff])))
def test_data_text_validates_or_names_the_file(data_path, file, bad_byte, at):
    dialect, lines = file
    raw = "\n".join(lines).encode("ascii")
    if bad_byte is not None:
        raw = raw[:at] + bytes([bad_byte]) + raw[at:]
    data_path.write_bytes(raw)
    code, out, err = run_main(["validate", "--data", str(data_path), "--dialect", dialect])
    if code == 0:
        assert err == ""
        assert out.startswith(f"{len(dp.parse_dataset(data_path, dialect))} records\n")
    else:
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data_path}:"), err
        assert out == ""


# Statlog files of finite values up to +-1.7e308, at least two rows per
# class: ordinary values (repeated ones give equal and constant columns)
# with a few entries replaced by any float in that range, often one past
# 1e300, where a column's sum, range or a scaled record can overflow.
ORDINARY_VALUES = (st.integers(-3, 300).map(str) | st.sampled_from(["0", "1", "0.5"])
                   | st.floats(-1e6, 1e6, allow_nan=False).map(repr))
EXTREME_VALUES = (st.floats(-1.7e308, 1.7e308, allow_nan=False).map(repr)
                  | st.floats(1e300, 1.7e308).map(repr) | st.floats(-1.7e308, -1e300).map(repr)
                  | st.sampled_from(["1.7e308", "-1.7e308", "1e154", "1e-160", "5e-324"]))
STATLOG_LABEL_LISTS = st.lists(st.sampled_from(["1", "2"]), max_size=6).flatmap(
    lambda extra: st.permutations(["1", "1", "2", "2"] + extra))


@st.composite
def finite_statlog_lines(draw):
    labels = draw(STATLOG_LABEL_LISTS)
    rows = draw(st.lists(st.lists(ORDINARY_VALUES, min_size=13, max_size=13),
                         min_size=len(labels), max_size=len(labels)))
    for _ in range(draw(st.sampled_from([2, 6, 1, 0, 12]))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 12))] = draw(EXTREME_VALUES)
    return [" ".join([*row, label]) for row, label in zip(rows, labels)]


@pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
@settings(max_examples=12)  # each runs a whole cv: kept short for the suite's time
@given(lines=finite_statlog_lines())
@example(lines=[" ".join(["1.7e308"] * 13 + [label]) for label in "1122"])
def test_finite_data_file_cross_validates_or_names_the_problem(data_path, kind, lines):
    """A statlog file of finite values, two rows of each class at least,
    cross-validates, or exits 2 with one `error:` line that names the fold
    and the column or record at fault: never 3, and never a numpy warning."""
    data_path.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main_without_runtime_warnings(
            ["cv", "--data", str(data_path), "--model", kind, "--k", "2", "--epochs", "1",
             "--kernels", "2", "--out", str(data_path.parent / "out")])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2, err
        assert err.count("\n") == 1
        assert re.match(r"error: fold \d: (column '\w+' |record \d+: )", err), err
