import json
from pathlib import Path

import numpy as np
import pytest

from conftest import stored_array
from subsvdd import evaluate, model_store
from subsvdd.cli import main, read_benchmark_config
from subsvdd.data import load_csv
from subsvdd.subspace import init_projection

FIXTURES = Path(__file__).parent / "fixtures"


def write_blob_csv(path, seed=0, n_target=40, n_out=30, dim=4, shift=7.0):
    gen = np.random.default_rng(seed)
    rows = []
    for v in gen.standard_normal((n_target, dim)):
        rows.append(",".join(f"{x}" for x in v) + ",target")
    for v in gen.standard_normal((n_out, dim)) + shift:
        rows.append(",".join(f"{x}" for x in v) + ",other")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestTrainCommand:
    def test_train_writes_model(self, tmp_path, capsys):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "m.json"
        code = main(
            [
                "train", "--data", str(data), "--target-class", "target",
                "--out", str(out), "--method", "nssvdd", "--dim", "2",
                "--C", "0.3", "--iters", "5",
            ]
        )
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["config"]["method"] == "nssvdd"
        assert "trained" in capsys.readouterr().out

    def test_svdd_bypasses_subspace_learning(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "m.json"
        code = main(
            ["train", "--data", str(data), "--target-class", "target",
             "--out", str(out), "--method", "svdd", "--C", "0.3"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        q = stored_array(payload, "Q")
        assert q.shape == (4, 4)
        np.testing.assert_allclose(q, np.eye(4))

    def test_identical_samples_keep_the_seeded_projection(self, tmp_path):
        # a zero Hessian core gives a zero Newton step, not 0/0
        data = tmp_path / "same.csv"
        data.write_text("1,2,a\n" * 4, encoding="utf-8")
        out = tmp_path / "m.json"
        code = main(
            ["train", "--data", str(data), "--target-class", "a", "--out", str(out),
             "--method", "nssvdd", "--psi", "0", "--dim", "1", "--C", "0.5",
             "--iters", "3"]
        )
        assert code == 0
        q = stored_array(json.loads(out.read_text()), "Q")
        expected = init_projection(1, 2, np.random.default_rng(42))
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)

    def test_reruns_are_byte_identical(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["train", "--data", str(data), "--target-class", "target",
                 "--out", str(out), "--method", "ssvdd", "--psi", "1",
                 "--dim", "2", "--C", "0.3", "--iters", "4", "--seed", "7"]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_c_exits_3(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv", n_target=100)
        code = main(
            ["train", "--data", str(data), "--target-class", "target",
             "--out", str(tmp_path / "m.json"), "--C", "0.001"]
        )
        assert code == 3
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command, flag, name", [
        ("train", ["--kernel", "rbf", "--sigma", "0"], "sigma"),
        ("train", ["--kernel", "rbf", "--sigma", "-1"], "sigma"),
        ("train", ["--kernel", "rbf", "--sigma", "nan"], "sigma"),
        ("train", ["--kernel", "rbf", "--sigma", "inf"], "sigma"),
        ("train", ["--kernel", "linear", "--sigma", "-1"], "sigma"),
        ("train", ["--C", "0"], "C"),
        ("train", ["--C", "nan"], "C"),
        ("train", ["--C", "inf"], "C"),
        ("train", ["--eta", "nan"], "eta"),
        ("train", ["--eta", "inf"], "eta"),
        ("train", ["--beta", "nan"], "beta"),
        ("train", ["--beta", "inf"], "beta"),
        ("train", ["--seed", "-1"], "seed"),
        ("train", ["--dim", "0"], "d"),
        ("train", ["--method", "svdd", "--iters", "0"], "k_max"),
        ("trace", ["--eta", "nan"], "eta"),
        ("trace", ["--splits", "0"], "splits"),
    ], ids=["sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf", "linear-sigma-negative",
            "C-zero", "C-nan", "C-inf", "eta-nan", "eta-inf", "beta-nan", "beta-inf",
            "seed-negative", "dim-zero", "svdd-iters-zero", "trace-eta-nan", "splits-zero"])
    def test_out_of_range_flag_exits_1(self, tmp_path, caplog, command, flag, name):
        # a value no fit can take is a usage error, not a numerical failure
        data = write_blob_csv(tmp_path / "d.csv")
        code = main([command, "--data", str(data), "--target-class", "target",
                     "--out", str(tmp_path / "out"), *flag])
        assert code == 1
        assert not (tmp_path / "out").exists()
        error = caplog.records[-1]
        assert error.levelname == "ERROR"
        assert error.getMessage().startswith(name + " must be")

    def test_linear_train_records_no_sigma(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--target-class", "target", "--out", str(out),
                     "--kernel", "linear", "--sigma", "5", "--iters", "3"]) == 0
        assert json.loads(out.read_text())["config"]["sigma"] is None

    def test_unknown_class_exits_2(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        code = main(
            ["train", "--data", str(data), "--target-class", "nope",
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 2

    def test_missing_required_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x.csv"])
        assert exc.value.code == 1


class TestFitFlags:
    def test_train_flags_reach_the_saved_config(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "m.json"
        code = main(
            ["train", "--data", str(data), "--target-class", "target", "--out", str(out),
             "--method", "ssvdd", "--kernel", "rbf", "--sigma", "3.0", "--psi", "1",
             "--direction", "max", "--dim", "3", "--C", "0.3", "--beta", "10",
             "--eta", "0.001", "--iters", "4", "--seed", "9", "--zscore"]
        )
        assert code == 0
        expected = {
            "method": "ssvdd", "kernel": "rbf", "psi": 1, "direction": "max", "d": 3,
            "C": 0.3, "beta": 10.0, "eta": 0.001, "sigma": 3.0, "k_max": 4, "seed": 9,
            "zscore": True,
        }
        cfg = model_store.load(out).config
        assert {k: cfg[k] for k in expected} == expected
        assert cfg["scaling"] is not None

    def test_trace_flags_change_the_trace(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        base = ["trace", "--data", str(data), "--target-class", "target", "--method", "nssvdd",
                "--psi", "2", "--dim", "2", "--C", "0.3", "--beta", "10", "--iters", "4",
                "--splits", "2"]
        outs = {}
        for name, extra in [("plain", []), ("zscore", ["--zscore"]),
                            ("iters", ["--iters", "2"])]:
            out = tmp_path / f"{name}.csv"
            assert main(base + extra + ["--out", str(out)]) == 0
            outs[name] = out.read_bytes()
        assert len(set(outs.values())) == len(outs)

    @pytest.mark.parametrize("command, flag", [("train", ["--damping", "0.1"]),
                                               ("trace", ["--hessian-beta-mode", "consistent"])])
    def test_removed_newton_flags_exit_1(self, tmp_path, command, flag):
        # the Newton step has one rule: no Hessian mode and no damping to set
        data = write_blob_csv(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(data), "--target-class", "target",
                  "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 1
        assert not (tmp_path / "out").exists()


class TestPredictCommand:
    def _model(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "m.json"
        main(
            ["train", "--data", str(data), "--target-class", "target",
             "--out", str(out), "--method", "svdd", "--C", "0.3"]
        )
        return data, out

    def test_predict_stdout(self, tmp_path, capsys):
        data, model = self._model(tmp_path)
        capsys.readouterr()  # drop the train command's summary line
        code = main(
            ["predict", "--model", str(model), "--data", str(data),
             "--label-column", "last"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "row_index,distance_sq,label"
        assert len(lines) == 71
        labels = {ln.split(",")[2] for ln in lines[1:]}
        assert labels <= {"positive", "negative"}

    def test_predict_feature_only_file(self, tmp_path):
        _, model = self._model(tmp_path)
        feats = tmp_path / "f.csv"
        gen = np.random.default_rng(1)
        feats.write_text(
            "\n".join(",".join(f"{x}" for x in v) for v in gen.standard_normal((5, 4))) + "\n"
        )
        out = tmp_path / "p.csv"
        code = main(
            ["predict", "--model", str(model), "--data", str(feats), "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 6

    def test_distances_are_plain_numbers_equal_to_predict(self, tmp_path):
        data, model = self._model(tmp_path)
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--label-column", "last", "--out", str(out)])
        assert code == 0
        fields = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        dist, pos = model_store.predict(model_store.load(model),
                                        load_csv(data, label_column="last").features)
        assert [int(f[0]) for f in fields] == list(range(dist.shape[0]))
        assert np.array([float(f[1]) for f in fields]).tobytes() == dist.tobytes()
        assert [f[2] == "positive" for f in fields] == pos.tolist()

    def test_dimension_mismatch_exits_2(self, tmp_path):
        _, model = self._model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n")
        code = main(["predict", "--model", str(model), "--data", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "field, value", [("radius_sq", None), ("radius_sq", float("nan")), ("alpha", ["a"])]
    )
    def test_malformed_model_exits_2(self, tmp_path, field, value):
        data, model = self._model(tmp_path)
        payload = json.loads(model.read_text())
        payload["description"][field] = value
        model.write_text(json.dumps(payload))
        code = main(
            ["predict", "--model", str(model), "--data", str(data), "--label-column", "last"]
        )
        assert code == 2


class TestBenchmarkCommand:
    def _config(self, tmp_path, timing=False):
        data = write_blob_csv(tmp_path / "d.csv")
        cfg = {
            "datasets": [{"path": str(data), "name": "blobs", "label_column": "last"}],
            "methods": ["svdd-linear", "nssvdd-linear-psi2-min"],
            "repetitions": 2,
            "seed": 5,
            "iters": 3,
            "kfolds": 3,
            "grid": {"beta": [1.0], "C": [0.3, 0.5], "sigma": [1.0], "d": [2], "eta": [0.01]},
        }
        p = tmp_path / "bench.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_benchmark_outputs(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out_csv = tmp_path / "report.csv"
        code = main(["benchmark", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        # header + 2 methods x 2 classes x 2 repetitions
        assert len(lines) == 9
        assert lines[0].startswith("dataset,target_class,method,kernel")
        table = capsys.readouterr().out
        assert "blobs" in table

    def test_benchmark_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out_csv = tmp_path / name
            code = main(
                ["benchmark", "--config", str(cfg), "--out-csv", str(out_csv),
                 "--out-table", str(tmp_path / (name + ".txt"))]
            )
            assert code == 0
            blobs.append(out_csv.read_bytes())
        assert blobs[0] == blobs[1]
        # wall_ms column stays empty unless --timing is requested
        assert all(line.endswith(",") for line in blobs[0].decode().strip().splitlines()[1:])

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        code = main(["benchmark", "--config", str(p), "--out-csv", str(tmp_path / "r.csv")])
        assert code == 2

    def test_grid_with_no_usable_d_exits_2(self, tmp_path, caplog):
        # the blobs have 4 features: a linear subspace method has no grid point
        text = self._config(tmp_path).read_text().replace('"d": [2]', '"d": [5, 6]')
        p = tmp_path / "bad.json"
        p.write_text(text)
        out = tmp_path / "r.csv"
        assert main(["benchmark", "--config", str(p), "--out-csv", str(out)]) == 2
        assert "no grid point for nssvdd-linear-psi2-min" in caplog.records[-1].getMessage()
        assert not out.exists()

    def test_integer_python_will_not_parse_exits_2(self, tmp_path):
        # json reads no integer of over 4300 digits; 10**400 is a range error
        text = self._config(tmp_path).read_text().replace('"d": [2]', '"d": [' + "1" * 5000 + "]")
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["benchmark", "--config", str(p), "--out-csv", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"iter": 3}, "iter"),  # a typo for iters
            ({"grid": {"sigmas": [1.0]}}, "sigmas"),
            ({"grid": {"C": 0.3}}, "grid"),
            ({"grid": {"d": []}}, "grid"),
            ({"repetitions": "1"}, "repetitions"),
            ({"zscore": 1}, "zscore"),
            ({"damping": 0.1}, "damping"),  # no longer a fit option
            ({"hessian_beta_mode": "consistent"}, "hessian_beta_mode"),
            ({"methods": ["svdd-linear", "svdd-lineer"]}, "methods"),
            ({"datasets": [{"path": "d.csv", "label_colum": "first"}]}, "datasets"),
            ({"kfolds": 1}, "kfolds"),
            ({"iters": 0}, "iters"),
            ({"train_frac": 1.5}, "train_frac"),
            ({"repetitions": 0}, "repetitions"),
            ({"damping": 0.0}, "damping"),  # also at its old default
            ({"datasets": [{"path": "d.csv", "label_column": "middle"}]}, "label_column"),
            ({"datasets": [{"path": "d.csv", "has_header": "yes"}]}, "has_header"),
            ({"grid": {"sigma": [0.0]}}, "sigma"),
            ({"grid": {"d": [2.5]}}, "d"),
            ({"grid": {"d": [0]}}, "d"),
            ({"grid": {"eta": [-1]}}, "eta"),
            ({"grid": {"eta": [float("inf")]}}, "eta"),
            ({"grid": {"C": [float("nan")]}}, "C"),
            ({"grid": {"beta": [True]}}, "beta"),
            ({"iters": 1.5}, "iters"),
            # float(10**400) overflows; the range test stops it first
            ({"grid": {"d": [10**400]}}, "d"),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, caplog, change, key):
        cfg = json.loads(self._config(tmp_path).read_text())
        cfg.update(change)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        out_csv = tmp_path / "r.csv"
        code = main(["benchmark", "--config", str(p), "--out-csv", str(out_csv)])
        assert code == 2
        assert repr(key) in caplog.text
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_shipped_configs_pass_the_reader(self, path):
        settings = read_benchmark_config(path)
        assert settings["datasets"] and settings["methods"]

    def test_config_options_reach_every_fit(self, tmp_path, monkeypatch):
        configs = []
        inner = evaluate.fit_occ_model

        def recorded(*args, **kwargs):
            model, trace = inner(*args, **kwargs)
            configs.append(model.config)
            return model, trace

        monkeypatch.setattr(evaluate, "fit_occ_model", recorded)
        cfg = json.loads(self._config(tmp_path).read_text())
        cfg.update(zscore=True, repetitions=1)
        p = tmp_path / "options.json"
        p.write_text(json.dumps(cfg))
        code = main(["benchmark", "--config", str(p), "--out-csv", str(tmp_path / "r.csv"),
                     "--out-table", str(tmp_path / "t.txt")])
        assert code == 0
        # 2 methods x 2 classes x 2 C values x 3 folds, plus 4 final fits
        assert len(configs) == 2 * 2 * 2 * 3 + 4
        for c in configs:
            assert (c["k_max"], c["zscore"]) == (3, True)


class TestTraceCommand:
    def test_trace_writes_csv(self, tmp_path):
        data = write_blob_csv(tmp_path / "d.csv")
        out = tmp_path / "trace.csv"
        code = main(
            ["trace", "--data", str(data), "--target-class", "target",
             "--method", "nssvdd", "--psi", "2", "--dim", "2", "--C", "0.3",
             "--beta", "10", "--iters", "4", "--splits", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "split_index,iteration,objective,gmean"
        # 2 splits x 4 iterations + 4 average rows
        assert len(lines) == 1 + 2 * 4 + 4

    def test_trace_deterministic(self, tmp_path):
        runs = [
            (write_blob_csv(tmp_path / "d.csv"),
             ["--method", "ssvdd", "--psi", "0", "--dim", "2", "--C", "0.3",
              "--iters", "3", "--splits", "2", "--seed", "9"]),
            # the default method on z-scored features
            (FIXTURES / "grid" / "two.csv", ["--iters", "5", "--splits", "2", "--zscore"]),
        ]
        for data, flags in runs:
            outs = []
            for name in ("t1.csv", "t2.csv"):
                out = tmp_path / name
                code = main(["trace", "--data", str(data), "--target-class", "target",
                             *flags, "--out", str(out)])
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
