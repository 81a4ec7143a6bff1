"""Batch experiment runner: bounds, oracle verification, power and phase runs.

All output is CSV on stdout (or --out); progress goes to stderr.  Every run is
fully determined by the master seed plus the configuration, which are embedded
in a comment line at the top of the CSV.

Exit codes: 0 success, 1 config validation failure, 2 oracle failure,
3 runtime numerical error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import math
import sys

from . import divergence as dv
from .stat_tests import ProblemConfig, estimate_avg_power, estimate_level, phase_curve

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
    for gname in ("grid_n", "grid_p", "grid_q"):
        if hasattr(args, gname):
            for val in getattr(args, gname):
                if not (val >= 1 and val.is_integer()):
                    errs.append(f"{gname} entries must be positive integers, got {val}")
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


class _Emitter:
    def __init__(self, args: argparse.Namespace, columns: list[str]):
        self.path = args.out
        self.fh = open(self.path, "w", newline="") if self.path else sys.stdout
        self.fh.write(f"# command={args.command} seed={args.seed} fingerprint={_fingerprint(args)}\n")
        self.writer = csv.DictWriter(self.fh, fieldnames=columns, lineterminator="\n")
        self.writer.writeheader()

    def row(self, **kwargs):
        self.writer.writerow(kwargs)

    def close(self):
        if self.path:
            self.fh.close()


def _resolve_b(args: argparse.Namespace) -> float:
    if args.b is not None:
        return args.b
    return dv.select_b(args.kappa, args.alpha, args.beta)


def _grid(args: argparse.Namespace) -> list[tuple[int, int, int]]:
    """The (n, p, q) points of the grid flags, n outermost."""
    grid = itertools.product(args.grid_n, args.grid_p, args.grid_q)
    return [(int(n), int(p), int(q)) for n, p, q in grid]


def cmd_bound(args) -> int:
    b = _resolve_b(args)
    cols = ["n", "p", "q", "b", "chi2_exact", "chi2_closed_bound", "tv_upper", "power_upper",
            "pd_ok", "mgf_ok", "b_caps_ok", "error"]
    em = _Emitter(args, cols)
    had_error = False
    for n, p, q in _grid(args):
        try:
            rep = dv.minimax_power_upper(n, p, q, b, args.alpha)
            em.row(n=n, p=p, q=q, b=f"{b:.12g}",
                   chi2_exact=f"{rep.chi2_exact:.12g}",
                   chi2_closed_bound=f"{rep.chi2_closed_bound:.12g}",
                   tv_upper=f"{rep.tv_upper:.12g}",
                   power_upper=f"{rep.power_upper:.12g}",
                   pd_ok=rep.pd_ok, mgf_ok=rep.mgf_ok, b_caps_ok=rep.b_caps_ok, error="")
        except (ValueError, ArithmeticError, MemoryError) as exc:
            had_error = True
            em.row(n=n, p=p, q=q, b=f"{b:.12g}", error=str(exc) or type(exc).__name__)
    em.close()
    return EXIT_NUMERIC if had_error else EXIT_OK


def cmd_verify(args) -> int:
    # Imported here: where no bytecode is cached, compiling the oracle modules
    # would add about 6 ms to the startup of every other command.
    from . import oracles_suite

    rows = oracles_suite.run_suite(seed=args.seed, inject_fault=args.inject_fault)
    cols = ["name", "closed_form", "brute_force", "abs_err", "rel_err", "pass"]
    em = _Emitter(args, cols)
    all_pass = True
    for r in rows:
        all_pass &= r["pass"]
        em.row(name=r["name"], closed_form=f"{r['closed_form']:.12g}",
               brute_force=f"{r['brute_force']:.12g}", abs_err=f"{r['abs_err']:.3g}",
               rel_err=f"{r['rel_err']:.3g}", **{"pass": r["pass"]})
    em.close()
    return EXIT_OK if all_pass else EXIT_ORACLE


def _point_errors() -> tuple[type[Exception], ...]:
    """The errors that end a Monte-Carlo grid point in an error row.  The pool's
    error class is imported only once a point has failed, so that a serial run
    never loads the process-pool modules."""
    from concurrent.futures.process import BrokenProcessPool

    return ValueError, ArithmeticError, MemoryError, BrokenProcessPool


def _write_mc(args, progress: str, points, error_row: dict) -> int:
    """Rows of a Monte-Carlo command, one per (s_or_b, PowerEstimate) pair that
    ``points(n, p, q)`` returns at each grid point.

    ``progress`` is the stderr line for a point, formatted with ``a=args`` and
    the point's n, p, q; the mean permuted statistics per trial follow it.  A
    point that fails writes one row holding ``error_row`` and the error.
    """
    cols = ["regime", "n", "p", "q", "s_or_b", "trials", "rejections", "estimate",
            "ci_low", "ci_high", "seed", "error"]
    em = _Emitter(args, cols)
    had_error = False
    for n, p, q in _grid(args):
        try:
            curve = points(n, p, q)
            perms = ",".join(f"{est.mean_permutations:.1f}" for _, est in curve)
            print(f"{progress.format(a=args, n=n, p=p, q=q)} perms/trial={perms}", file=sys.stderr)
            for s_or_b, est in curve:
                em.row(regime=est.regime, n=n, p=p, q=q, s_or_b=s_or_b,
                       trials=est.trials, rejections=est.rejections,
                       estimate=f"{est.estimate:.6g}", ci_low=f"{est.ci_low:.6g}",
                       ci_high=f"{est.ci_high:.6g}", seed=args.seed, error="")
        except _point_errors() as exc:
            had_error = True
            em.row(**error_row, n=n, p=p, q=q, seed=args.seed, error=str(exc) or type(exc).__name__)
    em.close()
    return EXIT_NUMERIC if had_error else EXIT_OK


def cmd_power(args) -> int:
    b = _resolve_b(args) if args.regime == "lf" else 0.0

    def points(n, p, q):
        cfg = ProblemConfig(n=n, p=p, q=q, alpha=args.alpha, beta=args.beta,
                            b=b if args.regime == "lf" else None)
        estimate = estimate_level if args.regime == "null" else estimate_avg_power
        return [(f"{b:.12g}", estimate(cfg, args.trials, args.perms, args.seed, args.workers))]

    return _write_mc(args, "power: regime={a.regime} n={n} p={p} q={q}", points,
                     {"regime": args.regime, "s_or_b": f"{b:.12g}"})


def cmd_phase(args) -> int:
    def points(n, p, q):
        curve = phase_curve(n, p, q, args.grid_s, args.trials, args.perms, args.seed,
                            alpha=args.alpha, workers=args.workers)
        return [(f"{s:g}", est) for s, est in curve]

    return _write_mc(args, "phase: n={n} p={p} q={q} s-grid={a.grid_s}", points,
                     {"regime": "phase", "s_or_b": ""})


def cmd_divergence(args) -> int:
    b = _resolve_b(args)
    try:
        rep = dv.minimax_power_upper(args.n, args.p, args.q, b, args.alpha)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"n={args.n} p={args.p} q={args.q} b={b:.12g}")
    print(f"chi2_exact={rep.chi2_exact:.12g}")
    print(f"chi2_closed_bound={rep.chi2_closed_bound:.12g}")
    print(f"tv_upper={rep.tv_upper:.12g}")
    print(f"power_upper={rep.power_upper:.12g}")
    print(f"pd_ok={rep.pd_ok} mgf_ok={rep.mgf_ok} b_caps_ok={rep.b_caps_ok}")
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
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
