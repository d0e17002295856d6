from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsvdd import evaluate
from subsvdd.data import DataSet
from subsvdd.errors import DataError, NoNegatives, NoPositives
from subsvdd.evaluate import (
    FIT_OPTIONS,
    ConfusionCounts,
    GridSpec,
    derive_seed,
    enumerate_grid,
    gmean,
    grid_search,
    run_benchmark,
    trace_run,
    write_trace_csv,
)
from subsvdd.data import make_occ_split
from subsvdd.pipeline import MethodSpec, parse_method

from oracles import enumerate_grid_sorted


def blob_dataset(seed=0, n_target=40, n_out=36, name="blobs"):
    """Target cloud at the origin, outliers on a ring of radius 6 (D = 2).

    Any 1-D projection maps several ring points close to the origin, while the
    full plane separates the classes perfectly, so d = 2 must win a CV search.
    """
    gen = np.random.default_rng(seed)
    target = gen.standard_normal((2, n_target))
    angles = 2.0 * np.pi * np.arange(n_out) / n_out
    ring = 6.0 * np.vstack([np.cos(angles), np.sin(angles)])
    ring = ring + 0.05 * gen.standard_normal(ring.shape)
    features = np.hstack([target, ring])
    labels = np.array(["pos"] * n_target + ["neg"] * n_out, dtype=object)
    return DataSet(features=features, labels=labels, class_names=["neg", "pos"], name=name)


def blob_dataset_5d(seed=3, n_target=60, n_out=40, name="blobs5"):
    """Well-separated 5-D blobs: target at the origin, outliers shifted by 8."""
    gen = np.random.default_rng(seed)
    target = gen.standard_normal((5, n_target))
    outlier = gen.standard_normal((5, n_out)) + 8.0
    features = np.hstack([target, outlier])
    labels = np.array(["pos"] * n_target + ["neg"] * n_out, dtype=object)
    return DataSet(features=features, labels=labels, class_names=["neg", "pos"], name=name)


class TestGmean:
    def test_perfect(self):
        assert gmean(ConfusionCounts(tp=10, fn=0, tn=5, fp=0)) == 1.0

    def test_zero_tpr_zeroes_score(self):
        assert gmean(ConfusionCounts(tp=0, fn=10, tn=5, fp=0)) == 0.0

    def test_direct_arithmetic(self):
        assert gmean(ConfusionCounts(tp=9, fn=1, tn=4, fp=6)) == pytest.approx(0.6)

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            gmean(ConfusionCounts(tp=0, fn=0, tn=5, fp=0))

    def test_no_negatives(self):
        with pytest.raises(NoNegatives):
            gmean(ConfusionCounts(tp=5, fn=0, tn=0, fp=0))


class TestGridEnumeration:
    def test_plain_svdd_linear_sweeps_c_only(self):
        grid = GridSpec()
        points = enumerate_grid(MethodSpec(family="svdd", kernel="linear"), grid, 10)
        assert len(points) == len(grid.C)
        assert all(p["d"] is None and p["sigma"] is None for p in points)

    def test_rbf_adds_sigma(self):
        grid = GridSpec()
        points = enumerate_grid(MethodSpec(family="svdd", kernel="rbf"), grid, 10)
        assert len(points) == len(grid.C) * len(grid.sigma)

    def test_linear_subspace_skips_oversized_d(self):
        grid = GridSpec()
        m = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
        points = enumerate_grid(m, grid, input_dim=7)
        assert {p["d"] for p in points} == {1, 2, 3, 4, 5}

    def test_psi0_collapses_beta(self):
        grid = GridSpec()
        m = MethodSpec(family="ssvdd", kernel="linear", psi=0, direction="min")
        points = enumerate_grid(m, grid, input_dim=7)
        assert {p["beta"] for p in points} == {min(grid.beta)}

    def test_duplicates_removed_and_order_stable(self):
        grid = GridSpec(C=(0.2, 0.1, 0.2), beta=(1.0,), sigma=(1.0,), d=(2, 2), eta=(0.01,))
        m = MethodSpec(family="ssvdd", kernel="linear", psi=1, direction="min")
        points = enumerate_grid(m, grid, input_dim=5)
        assert [p["C"] for p in points] == [0.1, 0.2]

    def test_lists_are_held_sorted_keeping_the_first_of_equal_values(self):
        grid = GridSpec(C=(0.5, 1, 0.1, 1.0), d=(np.int64(3), 1, 3), beta=(0.0, -0.0, 0))
        assert grid.C == (0.1, 0.5, 1) and type(grid.C[2]) is int
        assert grid.d == (1, 3) and type(grid.d[1]) is np.int64
        assert len(grid.beta) == 1 and repr(grid.beta[0]) == "0.0"

    @settings(max_examples=150, deadline=None)
    @given(method=st.sampled_from([MethodSpec("svdd", kernel) for kernel in ("linear", "rbf")] + [
               MethodSpec(family, kernel, psi, direction)
               for family in ("ssvdd", "nssvdd") for kernel in ("linear", "rbf")
               for psi in (0, 2) for direction in ("min", "max")]),
           input_dim=st.integers(1, 6), data=st.data())
    def test_enumeration_matches_the_sorting_oracle(self, method, input_dim, data):
        # lists out of order, with repeats, mixing equal ints, floats and numpy
        # scalars: the report writes 1 and 1.0 differently, so types must agree
        def grid_list(pool):
            return tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))

        reals = [1, 1.0, 2, 2.0, 0.5, np.float64(0.5), 0.25, 3, np.int64(3)]
        lists = {"C": grid_list(reals), "sigma": grid_list(reals), "eta": grid_list(reals),
                 "beta": grid_list(reals + [0, 0.0, -0.0]),
                 "d": grid_list([1, 2, np.int64(2), 3, 5, np.int64(7), 8])}
        got = enumerate_grid(method, GridSpec(**lists), input_dim)
        want = enumerate_grid_sorted(method, SimpleNamespace(**lists), input_dim)

        def typed(points):
            return [[(k, type(v), repr(v)) for k, v in p.items()] for p in points]

        assert typed(got) == typed(want)


class TestGridSearch:
    def test_single_point_returned(self):
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=derive_seed(1, "s"))
        grid = GridSpec(C=(0.2,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        m = MethodSpec(family="ssvdd", kernel="linear", psi=0, direction="min")
        point, score = grid_search(ds, split, m, grid, k=3, seed=5, k_max=3)
        assert point == {"d": 2, "C": 0.2, "beta": 1.0, "eta": 0.01, "sigma": None}
        assert 0.0 <= score <= 1.0

    def test_selects_two_dimensional_subspace(self):
        # large C keeps slack expensive, so the sphere hugs all targets; any
        # 1-D projection then lets ring outliers inside while the full plane
        # separates cleanly
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=7)
        grid = GridSpec(C=(0.5,), beta=(1.0,), sigma=(1.0,), d=(1, 2), eta=(0.001,))
        m = MethodSpec(family="ssvdd", kernel="linear", psi=0, direction="min")
        point, score = grid_search(ds, split, m, grid, k=5, seed=5, k_max=5)
        assert point["d"] == 2
        assert score > 0.9

    def test_invariant_under_grid_reordering(self):
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=7)
        m = MethodSpec(family="ssvdd", kernel="linear", psi=1, direction="min")
        g1 = GridSpec(C=(0.3, 0.5), beta=(1.0, 0.1), sigma=(1.0,), d=(2, 1), eta=(0.01,))
        g2 = GridSpec(C=(0.5, 0.3), beta=(0.1, 1.0), sigma=(1.0,), d=(1, 2), eta=(0.01,))
        r1 = grid_search(ds, split, m, g1, k=3, seed=5, k_max=3)
        r2 = grid_search(ds, split, m, g2, k=3, seed=5, k_max=3)
        assert r1 == r2

    def test_infeasible_configurations_score_zero_not_raise(self):
        ds = blob_dataset(n_target=12, n_out=12)
        split = make_occ_split(ds, "pos", 0.7, seed=3)
        # C=0.01 is infeasible for every fold size; search must still finish
        grid = GridSpec(C=(0.01,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        m = MethodSpec(family="nssvdd", kernel="linear", psi=1, direction="min")
        point, score = grid_search(ds, split, m, grid, k=3, seed=5, k_max=2)
        assert score == 0.0
        assert point["C"] == 0.01

    def test_a_grid_with_no_usable_d_raises(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran on a grid with no point")

        monkeypatch.setattr(evaluate, "fit_occ_model", no_fit)
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=3)
        m = parse_method("nssvdd-linear-psi2-min")
        message = r"^dataset 'blobs': no grid point for nssvdd-linear-psi2-min: every d in " \
                  r"\[3, 5\] exceeds its 2 features$"
        with pytest.raises(DataError, match=message):
            grid_search(ds, split, m, GridSpec(d=(5, 3)), k=3, seed=5)
        # before the first cell, the svdd cells included
        with pytest.raises(DataError, match=message):
            run_benchmark([ds], ["svdd-linear", str(m)], repetitions=1, grid=GridSpec(d=(5, 3)))


class TestBenchmark:
    def test_datasets_that_share_a_name_are_refused_before_any_cell(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran for datasets that share a name")

        monkeypatch.setattr(evaluate, "fit_occ_model", no_fit)
        datasets = [blob_dataset(seed=0, name="seeds"), blob_dataset(seed=1, name="blobs"),
                    blob_dataset(seed=2, name="seeds")]
        with pytest.raises(DataError, match=r"^datasets share the name 'seeds';"):
            run_benchmark(datasets, ["svdd-linear"], repetitions=1)

    def test_one_row_per_class(self, tmp_path):
        ds = blob_dataset()
        grid = GridSpec(C=(0.2,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        report = run_benchmark([ds], ["svdd-linear"], repetitions=1, seed=1, grid=grid, k=3, k_max=2)
        assert len(report.rows) == len(ds.class_names)
        for row in report.rows:
            assert row.gmean is None or 0.0 <= row.gmean <= 1.0

    def test_csv_byte_identical_across_runs(self, tmp_path):
        ds = blob_dataset()
        grid = GridSpec(C=(0.2, 0.3), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        paths = []
        for run in range(2):
            report = run_benchmark(
                [ds], ["svdd-linear", "ssvdd-linear-psi1-min"],
                repetitions=2, seed=9, grid=grid, k=3, k_max=3,
            )
            p = tmp_path / f"report{run}.csv"
            report.write_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        ds = blob_dataset(n_target=24, n_out=24)
        grid = GridSpec(C=(0.2,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        outs = []
        for jobs in (1, 2):
            report = run_benchmark(
                [ds], ["svdd-linear"], repetitions=2, seed=4, grid=grid, k=3,
                k_max=2, jobs=jobs,
            )
            p = tmp_path / f"jobs{jobs}.csv"
            report.write_csv(p)
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_mean_equals_arithmetic_mean(self):
        ds = blob_dataset()
        grid = GridSpec(C=(0.2,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        report = run_benchmark([ds], ["svdd-linear"], repetitions=3, seed=2, grid=grid, k=3, k_max=2)
        vals = [r.gmean for r in report.rows if r.target_class == "pos"]
        assert report.mean_gmean("blobs", "pos", "svdd-linear") == pytest.approx(np.mean(vals), abs=1e-12)
        table = report.format_table()
        assert "blobs" in table and "svdd-linear" in table

    def test_failed_cell_recorded_and_run_continues(self):
        # a 5-member target class: final refit has 4 training targets but
        # C=0.2 < 1/4 is feasible while fold fits with ~3 targets are not
        gen = np.random.default_rng(0)
        features = np.hstack([gen.standard_normal((2, 5)), gen.standard_normal((2, 30)) + 9.0])
        labels = np.array(["pos"] * 5 + ["neg"] * 30, dtype=object)
        ds = DataSet(features=features, labels=labels, class_names=["neg", "pos"], name="tiny")
        grid = GridSpec(C=(0.05,), beta=(1.0,), sigma=(1.0,), d=(2,), eta=(0.01,))
        report = run_benchmark([ds], ["svdd-linear"], repetitions=1, seed=3, grid=grid, k=3, k_max=2)
        assert len(report.rows) == 2
        by_class = {r.target_class: r for r in report.rows}
        assert by_class["pos"].gmean is None  # infeasible C on the final fit
        assert by_class["neg"].gmean is not None


class TestTrace:
    def test_k_max_one_single_row_per_split_plus_average(self):
        ds = blob_dataset()
        m = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
        rows = trace_run(ds, "pos", m, {"C": 0.2, "d": 2}, seed=3, splits=2, k_max=1)
        split_rows = [r for r in rows if r[0] != "avg"]
        avg_rows = [r for r in rows if r[0] == "avg"]
        assert len(split_rows) == 2
        assert len(avg_rows) == 1

    def test_deterministic(self):
        ds = blob_dataset()
        m = MethodSpec(family="ssvdd", kernel="linear", psi=1, direction="min")
        params = {"C": 0.2, "d": 2, "beta": 1.0, "eta": 0.01}
        r1 = trace_run(ds, "pos", m, params, seed=5, splits=2, k_max=4)
        r2 = trace_run(ds, "pos", m, params, seed=5, splits=2, k_max=4)
        assert r1 == r2

    def test_blob_trace_newton_psi2_reaches_high_gmean(self, tmp_path):
        # d < D and beta != 1 so the Newton direction genuinely moves Q
        ds = blob_dataset_5d()
        m = MethodSpec(family="nssvdd", kernel="linear", psi=2, direction="min")
        params = {"C": 0.3, "d": 2, "beta": 10.0, "eta": 0.01}
        rows = trace_run(ds, "pos", m, params, seed=11, splits=3, k_max=5)
        avg = [r for r in rows if r[0] == "avg"]
        assert len(avg) == 5
        scores = [r[3] for r in avg]
        assert any(s > 0.0 for s in scores)
        assert scores[-1] >= 0.9
        out = tmp_path / "trace.csv"
        write_trace_csv(rows, out)
        text = out.read_text().splitlines()
        assert text[0] == "split_index,iteration,objective,gmean"
        assert len(text) == 1 + len(rows)


# every fit option, each away from its default
OPTIONS = {"k_max": 3, "zscore": True}


@pytest.fixture
def fit_calls(monkeypatch):
    """The keywords of each fit_occ_model call evaluate makes, recorded the way
    the benchmark counts fits: by swapping the function evaluate looks up."""
    calls = []
    inner = evaluate.fit_occ_model

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(evaluate, "fit_occ_model", recorded)
    return calls


def assert_forwarded(calls, hyperparameters):
    """Each call got OPTIONS unchanged, a seed, and only the named,
    non-None hyperparameters of its point."""
    assert calls
    for kwargs in calls:
        assert {name: kwargs[name] for name in OPTIONS} == OPTIONS
        rest = set(kwargs) - set(OPTIONS) - {"seed", "eval_data"}
        assert rest == hyperparameters
        assert all(kwargs[name] is not None for name in rest)


class TestOptionsForwarded:
    def test_grid_search(self, fit_calls):
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=7)
        grid = GridSpec(C=(0.3,), beta=(10.0,), sigma=(1.0,), d=(2,), eta=(0.001,))
        method = parse_method("nssvdd-linear-psi1-min")
        grid_search(ds, split, method, grid, k=3, seed=5, **OPTIONS)
        assert len(fit_calls) == 3
        assert_forwarded(fit_calls, {"C", "d", "beta", "eta"})
        assert all(kw["beta"] == 10.0 and kw["eta"] == 0.001 for kw in fit_calls)

    @pytest.mark.parametrize(
        "method, hyperparameters",
        [
            ("svdd-linear", {"C"}),
            ("svdd-rbf", {"C", "sigma"}),
            ("ssvdd-rbf-psi2-max", {"C", "d", "beta", "eta", "sigma"}),
        ],
    )
    def test_run_benchmark(self, fit_calls, method, hyperparameters):
        ds = blob_dataset(n_target=24, n_out=24)
        grid = GridSpec(C=(0.3,), beta=(1.0,), sigma=(2.0,), d=(2,), eta=(0.01,))
        run_benchmark([ds], [method], repetitions=1, seed=4, grid=grid, k=3, **OPTIONS)
        # per target class: one fit per fold and the final fit
        assert len(fit_calls) == len(ds.class_names) * (3 + 1)
        assert_forwarded(fit_calls, hyperparameters)

    def test_trace_run(self, fit_calls):
        ds = blob_dataset()
        params = {"C": 0.3, "d": 2, "beta": 10.0, "eta": None, "sigma": None}
        method = parse_method("nssvdd-linear-psi2-min")
        trace_run(ds, "pos", method, params, seed=3, splits=2, **OPTIONS)
        assert len(fit_calls) == 2
        assert_forwarded(fit_calls, {"C", "d", "beta"})
        assert all(kw["eval_data"] is not None for kw in fit_calls)

    def test_options_name_every_fit_option(self):
        assert set(OPTIONS) == set(FIT_OPTIONS)

    @pytest.mark.parametrize("entry", ["run_benchmark", "trace_run", "grid_search"])
    def test_an_unknown_option_is_named_before_any_split_or_fit(self, fit_calls, monkeypatch,
                                                                entry):
        ds = blob_dataset()
        split = make_occ_split(ds, "pos", 0.7, seed=7)
        splits = []
        monkeypatch.setattr(evaluate, "make_occ_split", lambda *args: splits.append(args))
        monkeypatch.setattr(evaluate, "kfold", lambda *args: splits.append(args))
        calls = {
            "run_benchmark": lambda: run_benchmark([ds], ["svdd-linear"], repetitions=1,
                                                   grid=GridSpec(C=(0.3,)), k=3, k_max=2,
                                                   damping=0.5),
            "trace_run": lambda: trace_run(ds, "pos", parse_method("svdd-linear"), {"C": 0.3},
                                           splits=1, k_max=2, damping=0.5),
            "grid_search": lambda: grid_search(ds, split, parse_method("svdd-linear"),
                                               GridSpec(C=(0.3,)), k=3, k_max=2, damping=0.5),
        }
        with pytest.raises(ValueError, match="unknown fit option 'damping'"):
            calls[entry]()
        assert not splits and not fit_calls


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "iris", "Setosa", 0)
        b = derive_seed(42, "iris", "Setosa", 0)
        c = derive_seed(42, "iris", "Setosa", 1)
        assert a == b
        assert a != c
        assert 0 <= a < 2**63

    def test_method_strings_round_trip(self):
        for text in ("svdd-linear", "svdd-rbf", "nssvdd-rbf-psi3-max", "ssvdd-linear-psi0-min"):
            assert str(parse_method(text)) == text
