"""Command-line front end.

Commands: estimate, region, test, trace-scan, simulate, ingest; each
declares only the flags it reads.  Flags can also be supplied through a flat
``key=value`` config file (--config); flags given on the command line take
precedence.  Outputs are JSON documents with a schema_version field and CSV
files with a header row; every command is a pure function of its inputs, so
repeated runs are byte-identical.

Exit codes: 0 on success, 1 on a hard error, 2 when some per-k or per-pair
computations failed but others succeeded (failures are reported in-band).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache, partial
from pathlib import Path

from .covariance import _scan_traces
from .equality_tests import _results
from .errors import DomainError, IngestionError, LevelError, NumericError, TailjointError
from .inference import (
    _by_group, _check_alpha, _estimate_sample, _interval, _regions, region_boundary_points,
)
from .marginal import estimate_margins
from .sample import (
    MultivariateSample,
    TailLevelPair,
    _csv_text,
    ingest_csv,
    emit_csv,
    tau_from_k,
    to_negative_weekly_log_returns,
)
from .simulation import (
    SimulationModel,
    run_mc_coverage,
    run_mc_interval_coverage,
    run_mc_mse,
    run_mc_power,
)
from .taildep import _extremal_coefficients

SCHEMA_VERSION = "1"

# Every flag's argparse options, keyed by destination; the flag itself is
# the destination with dashes, and every default is None.  A config file
# value takes its type from here: "type", or a boolean for a store_true flag.
_INT, _FLOAT, _BOOL = {"type": int}, {"type": float}, {"action": "store_true"}
_FLAGS = {
    "config": {}, "input": {}, "date_column": _BOOL, "out": {},
    "k": _INT, "tau": _FLOAT, "tau_prime": _FLOAT, "alpha": _FLOAT,
    "method": {}, "naive": _BOOL, "intermediate": _BOOL, "k_min": _INT, "k_max": _INT,
    "experiment": {}, "model": {}, "n": _INT, "reps": _INT, "seed": _INT,
    "no_returns": _BOOL,
}


def _decoded(read, path, *args):
    """read(path, *args), a file that is not UTF-8 an IngestionError naming it."""
    try:
        return read(path, *args)
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(_decoded(Path.read_text, Path(path), "utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"{path}: line {lineno}: expected key=value")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _number(cast, text: str, what: str):
    """int(text) or float(text); a DomainError naming `what` if it does not parse."""
    try:
        return cast(text)
    except ValueError:
        expected = "an integer" if cast is int else "a number"
        raise DomainError(f"{what}: expected {expected}, got {text!r}") from None


def _coerce(key: str, text: str):
    options = _FLAGS[key]
    if "type" in options:
        return _number(options["type"], text, f"config key {key}")
    if options.get("action") == "store_true":
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise DomainError(f"config key {key}: expected a boolean, got {text!r}")
    return text


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None) is None:
        return args
    flags = _COMMANDS[args.command][2]
    for key, text in _parse_config_file(args.config).items():
        # Only the command's own flags; a nested config file is never read.
        if key == "config" or key not in flags:
            raise DomainError(f"config key {key!r} is not a recognized flag")
        if getattr(args, key) is None:
            setattr(args, key, _coerce(key, text))
    return args


def _resolve_tau(args, n: int) -> float:
    if (args.k is None) == (args.tau is None):
        raise DomainError("exactly one of --k and --tau must be given")
    if args.k is not None:
        if not 2 <= args.k <= n - 1:
            raise DomainError(f"--k must lie in [2, {n - 1}] for n={n}")
        return tau_from_k(n, args.k)
    if not 0.0 < args.tau < 1.0:
        raise DomainError(f"--tau must lie in (0,1), got {args.tau}")
    return args.tau


def _resolve_tau_prime(args, n: int) -> float:
    return args.tau_prime if args.tau_prime is not None else 1.0 - 1.0 / n


def _methods(args) -> tuple[str, ...]:
    method = args.method if args.method is not None else "both"
    if method == "both":
        return ("laws", "qb")
    if method in ("laws", "qb"):
        return (method,)
    raise DomainError(f"--method must be laws, qb or both, got {method!r}")


def _alpha(args) -> float:
    alpha = args.alpha if args.alpha is not None else 0.05
    _check_alpha(alpha)
    return alpha


def _load_sample(args) -> MultivariateSample:
    if args.input is None:
        raise DomainError("--input is required")
    return _decoded(ingest_csv, args.input, bool(args.date_column))


def _emit_text(text: str, out_dir, name: str) -> None:
    """Write text to stdout, or to out_dir/name when an output directory is given."""
    if out_dir is None:
        sys.stdout.write(text)
    else:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / name).write_text(text, encoding="utf-8")


def _emit_json(doc, out_dir, name: str) -> None:
    _emit_text(json.dumps(doc, indent=2) + "\n", out_dir, name)


def _emit_csv_rows(header, rows, out_dir, name: str) -> None:
    """Rows through csv.writer, which quotes a cell holding a comma, such
    as a failure message, and writes None as an empty cell; a float cell
    comes formatted with 17 significant digits."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(text.getvalue(), out_dir, name)


def cmd_estimate(args) -> int:
    sample = _load_sample(args)
    tau = _resolve_tau(args, sample.n)
    tau_prime = _resolve_tau_prime(args, sample.n)
    alpha = _alpha(args)
    naive = bool(args.naive)
    methods = _methods(args)
    margins = estimate_margins(sample, tau)
    # Every row reports xi_qb; a margin with gamma-hat >= 1 fails here,
    # before any row is built.
    xi_qb = margins.xi_qb
    # The levels are the panel's, not a margin's: checked before the rows.
    TailLevelPair(tau, tau_prime, sample.n)
    # Built at first use, inside margin 0's error context, then shared by
    # every margin's extrapolated estimate (its center) and interval.
    estimate = cache(lambda method: _estimate_sample(sample, tau, tau_prime, method, naive))
    rows = []
    for j, label in enumerate(sample.labels):
        try:
            entry = {
                "label": label,
                "gamma_hat": margins.gamma_hat[j],
                "q_hat": margins.q_hat[j],
                "xi_laws": margins.xi_laws[j],
                "xi_qb": xi_qb[j],
            }
            for method in methods:
                entry[f"xi_star_{method}"] = float(estimate(method).center[0, j])
            for method in methods:
                iv = _interval(estimate(method), j, alpha)
                entry[f"interval_{method}"] = {"lower": iv.lower, "upper": iv.upper}
        except TailjointError as exc:
            raise DomainError(f"margin {label!r}: {exc}") from exc
        rows.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "n": sample.n,
        "d": sample.d,
        "k": args.k if args.k is not None else None,
        "tau": tau,
        "tau_prime": tau_prime,
        "alpha": alpha,
        "naive": naive,
        "margins": rows,
    }
    _emit_json(doc, args.out, "estimate.json")
    if args.out is not None:
        _print_estimate_table(rows, methods)
    return 0


def _print_estimate_table(rows, methods) -> None:
    stars = {"laws": "xi~*", "qb": "xi^*"}
    header = f"{'margin':<12}{'gamma':>9}{'q':>12}{'xi~':>12}{'xi^':>12}"
    print(header + "".join(f"{stars[m]:>12}" for m in methods))
    for r in rows:
        print(
            f"{r['label']:<12}{r['gamma_hat']:>9.4f}{r['q_hat']:>12.5g}"
            f"{r['xi_laws']:>12.5g}{r['xi_qb']:>12.5g}"
            + "".join(f"{r[f'xi_star_{m}']:>12.5g}" for m in methods)
        )


def _row(head: dict, entry) -> dict:
    """head, then the status and the entry's JSON fields, or its error."""
    if isinstance(entry, TailjointError):
        return {**head, "status": "failed", "error": str(entry)}
    return {**head, "status": "ok", **entry.to_json_dict()}


def cmd_region(args) -> int:
    """The joint region of the panel for d = 2 or 3, else of every pair, per
    method.  The panel is fitted once, and each method's pairs run as d - 1
    stacks, one per column offset (``inference._by_group``); each region is
    the one confidence_region gives on ``sample.select(group)``."""
    sample = _load_sample(args)
    if sample.d < 2:
        raise DomainError("joint regions require at least two margins")
    tau = _resolve_tau(args, sample.n)
    alpha = _alpha(args)
    naive = bool(args.naive)
    if args.intermediate and args.tau_prime is not None:
        raise DomainError("--intermediate does not read --tau-prime")
    tau_prime = None if args.intermediate else _resolve_tau_prime(args, sample.n)
    size = sample.d if sample.d <= 3 else 2
    groups = _by_group(
        sample, tau, tau_prime, (size,), _methods(args), naive, partial(_regions, alpha=alpha)
    )
    docs = []
    for group, regions in groups.items():
        labels = [sample.labels[j] for j in group]
        for method, region in regions.items():
            head = {"schema_version": SCHEMA_VERSION, "command": "region",
                    "margins": labels, "method": method}
            if not isinstance(region, TailjointError):
                try:  # a region whose boundary leaves the float range fails
                    points = region_boundary_points(region)
                except NumericError as exc:
                    region = exc
            docs.append(_row(head, region))
            if args.out is not None and docs[-1]["status"] == "ok":
                # A label may hold any character: "%" and "/" are escaped,
                # as in a URL, so each name is one file in args.out.
                name = "-".join(labels).replace("%", "%25").replace("/", "%2F")
                _emit_text(
                    _csv_text(labels, points, "\n"), args.out, f"boundary_{name}_{method}.csv"
                )
    failures = sum(doc["status"] == "failed" for doc in docs)
    if failures == len(docs):
        raise DomainError("all requested regions failed: " + docs[0]["error"])
    _emit_json(docs, args.out, "regions.json")
    return 2 if failures else 0


def cmd_test(args) -> int:
    """The LAWS, QB and quantile equality tests of the panel and, for d > 2,
    of every pair, and each pair's extremal coefficient.  The panel is
    fitted once, and each kind's pairs run as d - 1 stacks, one per column
    offset (``inference._by_group``); each test is the one equality_test
    gives on ``sample.select(group)``."""
    sample = _load_sample(args)
    if sample.d < 2:
        raise DomainError("equality tests require at least two margins")
    tau = _resolve_tau(args, sample.n)
    tau_prime = _resolve_tau_prime(args, sample.n)
    alpha = _alpha(args)
    sizes = (sample.d, 2) if sample.d > 2 else (2,)
    groups = _by_group(
        sample, tau, tau_prime, sizes, ("laws", "qb", "quantile"), False,
        partial(_results, alpha=alpha),
    )
    omega = _extremal_coefficients(sample._stack(tau), tau)[0]
    rows = []
    for group, tests in groups.items():
        labels = [sample.labels[j] for j in group]
        rows += [_row({"margins": labels, "kind": kind}, test) for kind, test in tests.items()]
        if len(group) == 2:
            rows.append({"margins": labels, "kind": "extremal_coefficient",
                         "status": "ok", "statistic": float(omega[group])})
    failures = sum(row["status"] == "failed" for row in rows)
    if failures == len(rows):
        raise DomainError("all tests failed: " + rows[0]["error"])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "tau": tau,
        "tau_prime": tau_prime,
        "alpha": alpha,
        "results": rows,
    }
    _emit_json(doc, args.out, "tests.json")
    if args.out is not None:
        _print_test_table(rows)
    return 2 if failures else 0


def _print_test_table(rows) -> None:
    print(f"{'margins':<28}{'kind':<22}{'statistic':>12}{'p_value':>10}  reject")
    for r in rows:
        tag = "+".join(r["margins"])
        if r["status"] != "ok":
            print(f"{tag:<28}{r['kind']:<22}  failed: {r['error']}")
        elif r["kind"] == "extremal_coefficient":
            print(f"{tag:<28}{r['kind']:<22}{r['statistic']:>12.4f}")
        else:
            print(
                f"{tag:<28}{r['kind']:<22}{r['statistic']:>12.4f}"
                f"{r['p_value']:>10.4f}  {r['reject']}"
            )


def cmd_trace_scan(args) -> int:
    sample = _load_sample(args)
    tau_prime = _resolve_tau_prime(args, sample.n)
    if args.k is not None:
        if args.k_min is not None or args.k_max is not None:
            raise DomainError("give either --k or a --k-min/--k-max range")
        k_min = k_max = args.k
    else:
        if args.k_min is None or args.k_max is None:
            raise DomainError("trace-scan needs --k or both --k-min and --k-max")
        k_min, k_max = args.k_min, args.k_max
    if not 2 <= k_min <= k_max <= sample.n - 1:
        raise DomainError(
            f"k range [{k_min}, {k_max}] outside [2, {sample.n - 1}] for n={sample.n}"
        )
    # Each k's star-LAWS trace or failure: a level that TailLevelPair
    # rejects fails first, the rest run stacked.  A row's status covers the
    # fit, the Hill check and the per-margin variances; the joint matrix's
    # PSD check is left to region and test.
    ks = range(k_min, k_max + 1)
    levels, results = {}, {}
    for k in ks:
        try:
            levels[k] = TailLevelPair(tau_from_k(sample.n, k), tau_prime, sample.n)
        except LevelError as exc:
            results[k] = exc
    results.update(zip(levels, _scan_traces(sample, list(levels.values()))))
    errors = {k: str(r) for k, r in results.items() if isinstance(r, TailjointError)}
    if len(errors) == len(ks):
        raise DomainError("trace scan failed at every k: " + errors[k_min])
    rows = (
        (k, None, f"failed: {errors[k]}") if k in errors else (k, "%.17g" % results[k], "ok")
        for k in ks
    )
    _emit_csv_rows(("k", "trace", "status"), rows, args.out, "trace_scan.csv")
    return 2 if errors else 0


def parse_model_spec(text: str) -> SimulationModel:
    """Parse ``kind`` or ``kind:key=value,...`` into a simulation model.

    Keys: d, gamma (slash-separated for per-margin values), theta, vartheta.
    """
    kind, _, rest = text.partition(":")
    params = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise DomainError(f"model parameter {item!r}: expected key=value")
        params[key.strip()] = value.strip()

    def number(cast, key: str, text: str):
        return _number(cast, text, f"model parameter {key}")

    d = number(int, "d", params.pop("d", "1" if kind.startswith("univariate") else "2"))
    gamma_text = params.pop("gamma", format(1.0 / 3.0, ".17g"))
    gammas = tuple(number(float, "gamma", g) for g in gamma_text.split("/"))
    if len(gammas) == 1:
        gammas = gammas * d
    theta = number(float, "theta", params.pop("theta", "10"))
    vartheta = number(float, "vartheta", params.pop("vartheta", "3"))
    if params:
        raise DomainError(f"unknown model parameters: {sorted(params)}")
    return SimulationModel(kind, d, gammas, theta=theta, vartheta=vartheta)


# The flags of simulate that each experiment does not read: giving one is an
# error, not a setting that is silently dropped.
_UNREAD = {"mse": ("method", "naive", "tau_prime", "alpha"), "power": ("naive",)}


def cmd_simulate(args) -> int:
    if args.model is None:
        raise DomainError("--model is required")
    if args.n is None:
        raise DomainError("--n is required")
    model = parse_model_spec(args.model)
    n = args.n
    tau = _resolve_tau(args, n)
    experiment = args.experiment if args.experiment is not None else "mse"
    given = {**vars(args), "naive": args.naive or None}
    unread = ["--" + dest.replace("_", "-") for dest in _UNREAD.get(experiment, ())
              if given[dest] is not None]
    if unread:
        raise DomainError(f"--experiment {experiment} does not read {', '.join(unread)}")
    alpha = _alpha(args)
    reps = args.reps if args.reps is not None else 100
    seed = args.seed if args.seed is not None else 1
    naive = bool(args.naive)
    reports = []
    if experiment == "mse":
        reports.append(run_mc_mse(model, n, tau, reps, seed))
    elif experiment == "coverage":
        for method in _methods(args):
            reports.append(
                run_mc_coverage(
                    model, n, tau, reps, alpha, method, seed,
                    tau_prime=args.tau_prime, naive=naive,
                )
            )
    elif experiment == "interval":
        tau_prime = _resolve_tau_prime(args, n)
        for method in _methods(args):
            reports.append(
                run_mc_interval_coverage(
                    model, n, tau, tau_prime, reps, alpha, method, seed, naive=naive
                )
            )
    elif experiment == "power":
        tau_prime = _resolve_tau_prime(args, n)
        reports.append(
            run_mc_power(
                model, n, tau, tau_prime, reps, alpha, seed, methods=_methods(args)
            )
        )
    else:
        raise DomainError(
            f"--experiment must be mse, coverage, interval or power, got {experiment!r}"
        )
    docs = []
    for r in reports:
        doc = {"schema_version": SCHEMA_VERSION, "command": "simulate", "naive": naive}
        doc.update(r.to_json_dict())
        docs.append(doc)
    _emit_json(docs, args.out, "simulate.json")
    if args.out is not None:
        header = sorted({key for doc in docs for key in doc})
        cells = ([doc.get(key, "") for key in header] for doc in docs)
        rows = [[format(x, ".17g") if isinstance(x, float) else x for x in row] for row in cells]
        _emit_csv_rows(header, rows, args.out, "simulate.csv")
    return 0


def cmd_ingest(args) -> int:
    if args.out is None:
        raise DomainError("--out is required for ingest")
    if args.input is None:
        raise DomainError("--input is required")
    has_dates = True if not args.no_returns else bool(args.date_column)
    sample = _decoded(ingest_csv, args.input, has_dates)
    if not args.no_returns:
        sample = to_negative_weekly_log_returns(sample)
        name = "returns.csv"
    else:
        name = "ingested.csv"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    emit_csv(sample, Path(args.out) / name)
    print(f"wrote {name}: n={sample.n}, d={sample.d}, columns={','.join(sample.labels)}")
    return 0


_SOURCE = ("config", "input", "date_column", "out")
_LEVELS = ("k", "tau", "tau_prime", "alpha")

# Each command: its handler, its help line and the flags it reads.
_COMMANDS = {
    "estimate": (cmd_estimate, "per-margin tail and expectile estimates",
                 _SOURCE + _LEVELS + ("method", "naive")),
    "region": (cmd_region, "joint confidence regions with boundaries",
               _SOURCE + _LEVELS + ("method", "naive", "intermediate")),
    "test": (cmd_test, "expectile and quantile equality tests", _SOURCE + _LEVELS),
    "trace-scan": (cmd_trace_scan, "trace of the extrapolated covariance per k",
                   _SOURCE + ("k", "tau_prime", "k_min", "k_max")),
    "simulate": (cmd_simulate, "Monte Carlo experiments on benchmark models",
                 ("config", "out") + _LEVELS
                 + ("experiment", "model", "n", "method", "naive", "reps", "seed")),
    "ingest": (cmd_ingest, "validate a CSV and derive weekly returns",
               _SOURCE + ("no_returns",)),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: each parse
    makes a new namespace, and set_defaults binds each command's handler."""
    parser = argparse.ArgumentParser(
        prog="tailjoint",
        description="Joint estimation and inference for extreme expectiles "
        "of heavy-tailed multivariate data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, flags) in _COMMANDS.items():
        # No abbreviations: a flag a command does not read must not parse
        # as a prefix of one it does (--tau as --tau-prime).
        p = commands.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in flags:
            flag = "--" + dest.replace("_", "-")
            p.add_argument(flag, dest=dest, default=None, **_FLAGS[dest])
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.run(args)
    except (TailjointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
