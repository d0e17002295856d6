"""Command-line entry point: train, predict, benchmark, trace.

Exit codes: 0 success, 1 usage error, 2 data/file error, 3 numerical failure.
Every run logs its fully resolved configuration before doing any work, so a
run can be reproduced from its log line alone. Output files are written only
after the computation finishes.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys

from . import evaluate, model_store
from .data import load_csv, load_features_csv
from .errors import DataError, DimensionMismatch, NumericalError, SubsvddError
from .evaluate import GridSpec, run_benchmark, trace_run, write_trace_csv
from .pipeline import MethodSpec, fit_occ_model, parse_method

log = logging.getLogger("subsvdd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _method_from_flags(args):
    if args.method == "svdd":
        return MethodSpec(family="svdd", kernel=args.kernel)
    return MethodSpec(
        family=args.method, kernel=args.kernel, psi=args.psi, direction=args.direction
    )


def _add_train_flags(p, with_out=True):
    p.add_argument("--data", required=True, help="training CSV (features + label column)")
    p.add_argument("--target-class", required=True)
    if with_out:
        p.add_argument("--out", required=True, help="model output path (JSON)")
    p.add_argument("--method", choices=("svdd", "ssvdd", "nssvdd"), default="nssvdd")
    p.add_argument("--kernel", choices=("linear", "rbf"), default="linear")
    p.add_argument("--psi", type=int, choices=(0, 1, 2, 3), default=2)
    p.add_argument("--direction", choices=("min", "max"), default="min")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--dim", type=int, default=2, help="subspace dimension d")
    p.add_argument("--C", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=100, help="iteration cap k_max")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--hessian-beta-mode",
        choices=("as-written", "consistent"),
        default="as-written",
    )
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--zscore", action="store_true", help="z-score features (fit on training targets)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--label-column", choices=("first", "last"), default="last")


def _log_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("resolved configuration: %s", json.dumps(resolved, default=str, sort_keys=True))


def _cmd_train(args):
    _log_config(args)
    ds = load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
    if args.target_class not in ds.class_names:
        raise DataError(
            f"target class {args.target_class!r} not among {ds.class_names}"
        )
    mask = ds.labels == args.target_class
    features = ds.features[:, mask]
    method = _method_from_flags(args)
    model, trace = fit_occ_model(
        features,
        method,
        C=args.C,
        d=args.dim,
        beta=args.beta,
        eta=args.eta,
        sigma=args.sigma if method.kernel == "rbf" else None,
        k_max=args.iters,
        seed=args.seed,
        hessian_beta_mode=args.hessian_beta_mode.replace("-", "_"),
        damping=args.damping,
        zscore=args.zscore,
    )
    model_store.save(model, args.out)
    final = trace[-1]
    print(
        f"trained {method} on N={features.shape[1]} D={ds.n_features}: "
        f"iterations={final.iteration} objective={final.objective!r} -> {args.out}"
    )
    return EXIT_OK


def _cmd_predict(args):
    _log_config(args)
    model = model_store.load(args.model)
    if args.label_column == "none":
        feats = load_features_csv(args.data, has_header=args.has_header)
    else:
        ds = load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
        feats = ds.features
    dist, pos = model_store.predict(model, feats)
    lines = ["row_index,distance_sq,label"]
    for i in range(feats.shape[1]):
        label = "positive" if pos[i] else "negative"
        lines.append(f"{i},{float(dist[i])!r},{label}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _grid_from_config(raw):
    defaults = GridSpec()
    if not raw:
        return defaults
    return GridSpec(
        beta=tuple(raw.get("beta", defaults.beta)),
        C=tuple(raw.get("C", defaults.C)),
        sigma=tuple(raw.get("sigma", defaults.sigma)),
        d=tuple(raw.get("d", defaults.d)),
        eta=tuple(raw.get("eta", defaults.eta)),
    )


def _cmd_benchmark(args):
    _log_config(args)
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON ({exc})") from None
    try:
        ds_specs = cfg["datasets"]
        methods = cfg["methods"]
    except KeyError as exc:
        raise DataError(f"benchmark config is missing key {exc}") from None
    datasets = [
        load_csv(
            spec["path"],
            has_header=spec.get("has_header", False),
            label_column=spec.get("label_column", "last"),
            name=spec.get("name"),
        )
        for spec in ds_specs
    ]
    for m in methods:
        parse_method(m)  # validate early
    report = run_benchmark(
        datasets,
        methods,
        repetitions=cfg.get("repetitions", 5),
        seed=cfg.get("seed", 42),
        grid=_grid_from_config(cfg.get("grid")),
        k=cfg.get("kfolds", 5),
        k_max=cfg.get("iters", 100),
        zscore=cfg.get("zscore", False),
        train_frac=cfg.get("train_frac", 0.7),
        jobs=args.jobs,
        timing=args.timing,
        hessian_beta_mode=cfg.get("hessian_beta_mode", "as_written"),
        damping=cfg.get("damping", 0.0),
    )
    report.write_csv(args.out_csv)
    table = report.format_table()
    if args.out_table:
        with open(args.out_table, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    else:
        print(table)
    return EXIT_OK


def _cmd_trace(args):
    _log_config(args)
    ds = load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
    method = _method_from_flags(args)
    params = {
        "C": args.C,
        "d": args.dim,
        "beta": args.beta,
        "eta": args.eta,
        "sigma": args.sigma if method.kernel == "rbf" else None,
    }
    rows = trace_run(
        ds,
        args.target_class,
        method,
        params,
        seed=args.seed,
        splits=args.splits,
        k_max=args.iters,
        zscore=args.zscore,
        hessian_beta_mode=args.hessian_beta_mode.replace("-", "_"),
        damping=args.damping,
    )
    write_trace_csv(rows, args.out)
    print(f"trace written to {args.out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="subsvdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a one-class model and save it")
    _add_train_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_pred = sub.add_parser("predict", help="score new points with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_pred.add_argument("--has-header", action="store_true")
    p_pred.add_argument(
        "--label-column",
        choices=("first", "last", "none"),
        default="none",
        help="label column to strip from the input ('none' = all columns are features)",
    )
    p_pred.set_defaults(func=_cmd_predict)

    p_bench = sub.add_parser("benchmark", help="repeated-split benchmark from a config file")
    p_bench.add_argument("--config", required=True, help="JSON benchmark configuration")
    p_bench.add_argument("--out-csv", required=True)
    p_bench.add_argument("--out-table", default=None, help="table output path (default stdout)")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock per cell (breaks byte-identical reruns)",
    )
    p_bench.set_defaults(func=_cmd_benchmark)

    p_trace = sub.add_parser("trace", help="per-iteration objective/Gmean trace")
    _add_train_flags(p_trace, with_out=False)
    p_trace.add_argument("--out", required=True)
    p_trace.add_argument("--splits", type=int, default=5)
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except DimensionMismatch as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except (NumericalError, SubsvddError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERICAL
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
