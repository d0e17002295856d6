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

from . import model_store
from .data import load_csv, load_features_csv
from .errors import DataError, DimensionMismatch, NumericalError, SubsvddError
from .evaluate import GridSpec, run_benchmark, trace_run, write_trace_csv
from .pipeline import fit_occ_model
from .settings import DIRECTIONS, FAMILIES, KERNELS, PSIS, MethodSpec, check_setting, parse_method
from .subspace import TrainConfig

log = logging.getLogger("subsvdd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_train_flags(p, with_out=True):
    p.add_argument("--data", required=True, help="training CSV (features + label column)")
    p.add_argument("--target-class", required=True)
    if with_out:
        p.add_argument("--out", required=True, help="model output path (JSON)")
    p.add_argument("--method", choices=FAMILIES, default="nssvdd")
    p.add_argument("--kernel", choices=KERNELS, default="linear")
    p.add_argument("--psi", type=int, choices=PSIS, default=2)
    p.add_argument("--direction", choices=DIRECTIONS, default="min")
    p.add_argument("--beta", type=float, default=TrainConfig.beta)
    p.add_argument("--eta", type=float, default=TrainConfig.eta)
    p.add_argument("--dim", type=int, default=2, help="subspace dimension d")
    p.add_argument("--C", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=TrainConfig.k_max, help="iteration cap k_max")
    # trace reads it as a base seed, so it is not TrainConfig's fit seed
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--zscore", action="store_true", help="z-score features (fit on training targets)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--label-column", choices=("first", "last"), default="last")


def _log_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("resolved configuration: %s", json.dumps(resolved, default=str, sort_keys=True))


def _fit_flags(args):
    """The train/trace flags as ``fit_occ_model`` keywords: the method, its
    hyperparameters, and the options every fit of a run shares."""
    if args.method == "svdd":
        method = MethodSpec(family="svdd", kernel=args.kernel)
    else:
        method = MethodSpec(family=args.method, kernel=args.kernel, psi=args.psi,
                            direction=args.direction)
    params = {
        "C": args.C,
        "d": args.dim,
        "beta": args.beta,
        "eta": args.eta,
        "sigma": args.sigma,
    }
    options = {
        "k_max": args.iters,
        "zscore": args.zscore,
    }
    return method, params, options


def _cmd_train(args):
    _log_config(args)
    ds = load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
    if args.target_class not in ds.class_names:
        raise DataError(
            f"target class {args.target_class!r} not among {ds.class_names}"
        )
    mask = ds.labels == args.target_class
    features = ds.features[:, mask]
    method, params, options = _fit_flags(args)
    model, trace = fit_occ_model(features, method, seed=args.seed, **params, **options)
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


# benchmark-config key -> the setting it sets, which settings.check_setting types
# and range-checks, or for a key that sets none its JSON type; a key the file
# leaves out takes the default of run_benchmark or fit_occ_model
CONFIG_KEYS = {"datasets": list, "methods": list, "repetitions": "repetitions", "seed": "seed",
               "kfolds": "k", "grid": dict, "iters": "k_max", "zscore": bool}
# the keys of one "datasets" entry, load_csv's parameters, and their types
DATASET_KEYS = {"path": str, "has_header": bool, "label_column": ("first", "last"), "name": str}


def _json_is(value, kind):
    return value in kind if isinstance(kind, tuple) else isinstance(value, kind)


def read_benchmark_config(path):
    """Parse and check a benchmark config without reading its data files.

    Returns the ``run_benchmark`` keywords of the keys the file sets, with
    ``datasets`` holding the ``load_csv`` keywords of each dataset. A missing
    or unknown key, or a value of the wrong type or out of range, raises
    ``DataError`` naming the key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not (isinstance(cfg, dict) and {"datasets", "methods"} <= set(cfg)):
        raise DataError(f"{path}: a benchmark config is an object with datasets and methods")
    settings = {}
    for key, value in cfg.items():
        if key not in CONFIG_KEYS:
            raise DataError(
                f"unknown benchmark config key {key!r}; known keys: {', '.join(CONFIG_KEYS)}"
            )
        kind = CONFIG_KEYS[key]
        if isinstance(kind, str):
            try:
                check_setting(kind, value)
            except ValueError as exc:
                raise DataError(f"benchmark config key {key!r}: {exc}") from None
        elif not _json_is(value, kind):
            raise DataError(f"benchmark config key {key!r} must be of type {kind.__name__}, "
                            f"got {value!r}")
        settings[kind if isinstance(kind, str) else key] = value
    for spec in settings["datasets"]:
        if not (isinstance(spec, dict) and "path" in spec and set(spec) <= set(DATASET_KEYS)):
            raise DataError(
                f"benchmark config key 'datasets': {spec!r} must be an object with "
                f"a path and no keys besides {tuple(DATASET_KEYS)}"
            )
        for key, value in spec.items():
            if not _json_is(value, DATASET_KEYS[key]):
                raise DataError(
                    f"benchmark config key 'datasets': {key!r} of {spec!r} cannot be {value!r}"
                )
    for m in settings["methods"]:
        try:
            parse_method(m)
        except (AttributeError, ValueError) as exc:
            raise DataError(f"benchmark config key 'methods': {m!r}: {exc}") from None
    if "grid" in settings:
        try:
            settings["grid"] = GridSpec(**settings["grid"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"benchmark config key 'grid': {exc}") from None
    return settings


def _cmd_benchmark(args):
    _log_config(args)
    settings = read_benchmark_config(args.config)
    settings["datasets"] = [load_csv(**spec) for spec in settings["datasets"]]
    report = run_benchmark(jobs=args.jobs, timing=args.timing, **settings)
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
    method, params, options = _fit_flags(args)
    rows = trace_run(
        ds, args.target_class, method, params, seed=args.seed, splits=args.splits, **options
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
    except (DataError, DimensionMismatch, OSError) as exc:
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
