"""Batch experiment runner: bounds, oracle verification, power and phase runs.

Output is CSV on stdout (or --out), except divergence's key=value report;
progress goes to stderr.  Every run is fully determined by the master seed
plus the configuration, which are embedded in a comment line at the top of
the CSV.  The output is opened before any work, so an --out that cannot be
written ends a command before it computes.  bound, power and phase run one
loop over the grid points, n outermost.  A point that fails with a numerical
error (ValueError, ArithmeticError), runs out of memory or loses its process
pool writes one error row; divergence writes that error to stderr.

Exit codes: 0 success, 1 config validation failure, 2 oracle failure,
3 runtime numerical error (for a grid command: some row is an error row).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import itertools
import math
import sys

from . import divergence as dv
from .stat_tests import estimate_avg_power, estimate_level, phase_curve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE = 2
EXIT_NUMERIC = 3


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad comma-separated number list: {text!r}")


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and '#' comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


# Built once per process: main runs many times in one process (a benchmark
# worker, the tests), and parsing keeps no state in the parser.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="indeplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file; flags override")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="CSV output path (default stdout)")
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--beta", type=float, default=0.35)
        sp.add_argument("--kappa", type=float, default=1.0)

    def signal(sp):
        sp.add_argument("--b", type=float, help="signal constant; default select_b(kappa, alpha, beta)")

    def monte_carlo(sp):
        sp.add_argument("--trials", type=int, default=1000)
        sp.add_argument("--perms", type=int, default=200)
        sp.add_argument("--workers", type=int, default=1)

    def grid(sp, n: float):
        sp.add_argument("--grid-n", type=_parse_grid, default=[n])
        sp.add_argument("--grid-p", type=_parse_grid, default=[10.0])
        sp.add_argument("--grid-q", type=_parse_grid, default=[10.0])

    sp = sub.add_parser("bound", allow_abbrev=False, help="divergence and power bounds over a grid")
    common(sp)
    signal(sp)
    grid(sp, 100.0)

    sp = sub.add_parser("verify", allow_abbrev=False, help="run the brute-force oracle suite")
    common(sp)
    sp.add_argument("--inject-fault", action="store_true", help="negative control: perturb one closed form")

    sp = sub.add_parser("power", allow_abbrev=False, help="Monte-Carlo level / power estimation")
    common(sp)
    sp.add_argument("--regime", choices=["null", "lf"], default="lf")
    signal(sp)
    monte_carlo(sp)
    grid(sp, 100.0)

    sp = sub.add_parser("phase", allow_abbrev=False, help="power curve over the dimensionless signal axis")
    common(sp)
    monte_carlo(sp)
    grid(sp, 200.0)
    sp.add_argument("--grid-s", type=_parse_grid, default=[0.0, 1.0, 5.0, 25.0, 50.0])

    sp = sub.add_parser("divergence", allow_abbrev=False, help="single-point divergence report")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    signal(sp)
    return parser


def _validate(args: argparse.Namespace) -> list[str]:
    # Each check states the condition that must hold, so NaN and inf fail it.
    errs = []
    if not (0.0 < args.alpha < 1.0):
        errs.append(f"alpha must be in (0,1), got {args.alpha}")
    if not (args.alpha < args.beta < 1.0):
        errs.append(f"beta must be in (alpha,1), got {args.beta}")
    if not (0.0 < args.kappa < math.inf):
        errs.append(f"kappa must be positive, got {args.kappa}")
    if not (0 <= args.seed < 2**64):
        errs.append("seed must fit in an unsigned 64-bit integer")
    for name in ("trials", "perms", "workers", "n", "p", "q"):
        if hasattr(args, name) and getattr(args, name) < 1:
            errs.append(f"{name} must be positive")
    if hasattr(args, "perms") and args.perms < 19:
        errs.append("perms must be at least 19")
    for gname in ("grid_n", "grid_p", "grid_q", "grid_s"):
        if hasattr(args, gname) and not getattr(args, gname):
            errs.append(f"{gname} must list at least one value")
    for gname in ("grid_n", "grid_p", "grid_q"):
        if hasattr(args, gname):
            for val in getattr(args, gname):
                if not (val >= 1 and val.is_integer()):
                    errs.append(f"{gname} entries must be positive integers, got {val}")
                elif not val < 2**53:  # below it, an integer-valued double is the integer typed
                    errs.append(f"{gname} entries must be below 2^53, got {val}")
    if hasattr(args, "grid_s"):
        for val in args.grid_s:
            if not (0.0 <= val < math.inf):
                errs.append(f"grid_s entries must be nonnegative, got {val}")
    if getattr(args, "b", None) is not None and not (0.0 <= args.b < math.inf):
        errs.append(f"b must be nonnegative, got {args.b}")
    return errs


def _fingerprint(args: argparse.Namespace) -> str:
    items = sorted((k, repr(v)) for k, v in vars(args).items() if k not in ("out", "config"))
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class _OutputError(Exception):
    """The ``--out`` file cannot be opened for writing."""


def _open_out(path: str | None):
    """A context manager holding the ``--out`` file, or stdout without one.
    The file is opened at the call, before a command computes anything, so
    that an unwritable path ends the command before its work."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv_writer(fh, args: argparse.Namespace, columns: list[str]) -> csv.DictWriter:
    """A CSV writer on ``fh``, after the comment line and the header row."""
    fh.write(f"# command={args.command} seed={args.seed} fingerprint={_fingerprint(args)}\n")
    writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    return writer


def _point_errors() -> tuple[type[Exception], ...]:
    """The errors that end a grid point in an error row, and ``divergence``
    in one stderr line.  The pool's error class is imported only once a point
    has failed, so that a serial run never loads the process-pool modules."""
    from concurrent.futures.process import BrokenProcessPool

    return ValueError, ArithmeticError, MemoryError, BrokenProcessPool


def _write_grid(args: argparse.Namespace, columns: list[str], point, error_row: dict) -> int:
    """The CSV of a grid command: the rows that ``point(n, p, q)`` returns at
    each point of the grid flags, n outermost.  A point that raises one of
    ``_point_errors()`` writes one row instead, holding ``error_row``, the
    point and the error; the command then exits 3."""
    had_error = False
    with _open_out(args.out) as fh:
        writer = _csv_writer(fh, args, columns)
        for n, p, q in itertools.product(args.grid_n, args.grid_p, args.grid_q):
            n, p, q = int(n), int(p), int(q)
            try:
                rows = point(n, p, q)
            except _point_errors() as exc:
                had_error = True
                rows = [{**error_row, "n": n, "p": p, "q": q, "error": str(exc) or type(exc).__name__}]
            writer.writerows(rows)
    return EXIT_NUMERIC if had_error else EXIT_OK


def _resolve_b(args: argparse.Namespace) -> float:
    if args.b is not None:
        return args.b
    return dv.select_b(args.kappa, args.alpha, args.beta)


# The fields of a point's bound report, one tuple per line of the report that
# divergence prints; bound writes them as its columns.
_REPORT_LINES = (("n", "p", "q", "b"), ("chi2_exact",), ("chi2_closed_bound",), ("tv_upper",),
                 ("power_upper",), ("pd_ok", "mgf_ok", "b_caps_ok"))


def _report_fields(n: int, p: int, q: int, b: float, rep: dv.DivergenceReport) -> dict:
    """The ``_REPORT_LINES`` fields of ``rep`` at the point (n, p, q) and b."""
    return {"n": n, "p": p, "q": q, "b": f"{b:.12g}",
            "chi2_exact": f"{rep.chi2_exact:.12g}",
            "chi2_closed_bound": f"{rep.chi2_closed_bound:.12g}",
            "tv_upper": f"{rep.tv_upper:.12g}",
            "power_upper": f"{rep.power_upper:.12g}",
            "pd_ok": rep.pd_ok, "mgf_ok": rep.pd_ok, "b_caps_ok": rep.b_caps_ok}


def cmd_bound(args) -> int:
    b = _resolve_b(args)

    def point(n, p, q):
        return [_report_fields(n, p, q, b, dv.minimax_power_upper(n, p, q, b, args.alpha))]

    columns = [*itertools.chain(*_REPORT_LINES), "error"]
    return _write_grid(args, columns, point, {"b": f"{b:.12g}"})


def cmd_verify(args) -> int:
    # Imported here: where no bytecode is cached, compiling the oracle modules
    # would add about 6 ms to the startup of every other command.
    from . import oracles_suite

    with _open_out(args.out) as fh:
        writer = _csv_writer(fh, args, ["name", "closed_form", "brute_force", "abs_err", "rel_err", "pass"])
        rows = oracles_suite.run_suite(seed=args.seed, inject_fault=args.inject_fault)
        for r in rows:
            writer.writerow({"name": r["name"], "closed_form": f"{r['closed_form']:.12g}",
                             "brute_force": f"{r['brute_force']:.12g}", "abs_err": f"{r['abs_err']:.3g}",
                             "rel_err": f"{r['rel_err']:.3g}", "pass": r["pass"]})
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_ORACLE


_MC_COLUMNS = ["regime", "n", "p", "q", "s_or_b", "trials", "rejections", "estimate",
               "ci_low", "ci_high", "seed", "error"]


def _mc_rows(args, progress: str, n: int, p: int, q: int, curve) -> list[dict]:
    """The rows of a Monte-Carlo point, one per (s_or_b, PowerEstimate) pair
    of ``curve``.  ``progress`` leads the point's stderr line; the mean
    permuted statistics per trial follow it."""
    perms = ",".join(f"{est.mean_permutations:.1f}" for _, est in curve)
    print(f"{progress} perms/trial={perms}", file=sys.stderr)
    return [{"regime": est.regime, "n": n, "p": p, "q": q, "s_or_b": s_or_b,
             "trials": est.trials, "rejections": est.rejections, "estimate": f"{est.estimate:.6g}",
             "ci_low": f"{est.ci_low:.6g}", "ci_high": f"{est.ci_high:.6g}", "seed": args.seed}
            for s_or_b, est in curve]


def cmd_power(args) -> int:
    b = _resolve_b(args) if args.regime == "lf" else 0.0

    def point(n, p, q):
        mc = (args.trials, args.perms, args.seed, args.alpha, args.workers)
        if args.regime == "null":
            est = estimate_level(n, p, q, *mc)
        else:
            est = estimate_avg_power(n, p, q, b, *mc)
        return _mc_rows(args, f"power: regime={args.regime} n={n} p={p} q={q}", n, p, q, [(f"{b:.12g}", est)])

    return _write_grid(args, _MC_COLUMNS, point, {"regime": args.regime, "s_or_b": f"{b:.12g}", "seed": args.seed})


def cmd_phase(args) -> int:
    def point(n, p, q):
        curve = phase_curve(n, p, q, args.grid_s, args.trials, args.perms, args.seed,
                            alpha=args.alpha, workers=args.workers)
        return _mc_rows(args, f"phase: n={n} p={p} q={q} s-grid={args.grid_s}", n, p, q,
                        [(f"{s:g}", est) for s, est in curve])

    return _write_grid(args, _MC_COLUMNS, point, {"regime": "phase", "seed": args.seed})


def cmd_divergence(args) -> int:
    b = _resolve_b(args)
    with _open_out(args.out) as fh:
        try:
            rep = dv.minimax_power_upper(args.n, args.p, args.q, b, args.alpha)
        except _point_errors() as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_NUMERIC
        fields = _report_fields(args.n, args.p, args.q, b, rep)
        for line in _REPORT_LINES:
            print(*(f"{key}={fields[key]}" for key in line), file=fh)
    return EXIT_OK


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds ``--config`` in argv; built once, like ``build_parser``."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing path is the full parser's error
    return pre


def _config_tokens(argv: list[str]) -> tuple[list[str], list[str]]:
    """``--key=value`` tokens for the entries of the ``--config`` file in argv,
    and the entries' keys.

    The ``=`` form keeps values such as ``-1,2`` from reading as flags.  A
    true ``inject_fault`` becomes the bare flag; any other value adds nothing.
    """
    path = _config_parser().parse_known_args(argv)[0].config
    entries = _load_config_file(path) if path else {}
    tokens = []
    for key, val in entries.items():
        flag = "--" + key.replace("_", "-")
        if key != "inject_fault":
            tokens.append(f"{flag}={val}")
        elif val.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    return tokens, list(entries)


def _unknown_keys(parser: argparse.ArgumentParser, argv: list[str], keys: list[str]) -> list[str]:
    """The config-file keys that name no flag of the subcommand argv[0].

    Checked before parsing: argparse would reject such a token as an
    unrecognized argument, not as a key of the file.
    """
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices.get(argv[0]) if argv else None
    if command is None:
        return []  # argparse reports a missing or unknown command itself
    dests = {action.dest for action in command._actions}
    return [key for key in keys if key not in dests]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        tokens, keys = _config_tokens(argv)
        unknown = _unknown_keys(parser, argv, keys)
        # File entries go just after the subcommand name, so the command
        # line's own flags, parsed later, win.
        args = None if unknown else parser.parse_args(argv[:1] + tokens + argv[1:])
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        # argparse has printed its usage error (or the help, code 0).
        return EXIT_CONFIG if exc.code else EXIT_OK
    errs = [f"unknown config key {key!r}" for key in unknown] or _validate(args)
    if errs:
        for e in errs:
            print(f"invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {
        "bound": cmd_bound,
        "verify": cmd_verify,
        "power": cmd_power,
        "phase": cmd_phase,
        "divergence": cmd_divergence,
    }[args.command]
    try:
        return handler(args)
    except _OutputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
