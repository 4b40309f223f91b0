"""Command-line front end: layers, orbit classes, interval tables, counts.

Commands

  gen        materialize the layer for n and write it (file or stdout)
  classes    classify the layer into orbit classes and write them
  retable    upward interval counts for a layer or a classes file
  lambda     compute a self-dual count by one method and verify it
             against the known reference values
  selfcheck  run the cross-module invariant suites

Each command accepts only the settings its handler reads: --threads only
on lambda, the one command that starts worker processes, and no
--budget-mb on selfcheck, whose suites build the n <= 5 tables
unbudgeted.  A usage error prints one line, as every other failure does.

Exit codes: 0 success, 1 verification/selfcheck failure, 2 usage error,
3 budget refusal or out of memory, 4 a worker process died, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import intervals, layers, orbits, parallel, selfcheck
from .counting import (
    METHODS,
    fold_dual_classes,
    lambda_any,
    plus4_pruned_term_count,
    route_base,
    verify_result,
)
from .errors import (
    BudgetError,
    UnsupportedCombinationError,
    VerificationError,
    WidthError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_WORKER = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


@dataclass
class RunConfig:
    """Validated run parameters shared by all commands."""

    command: str
    n: int | None = None
    target: int | None = None
    method: str | None = None
    threads: int = field(default_factory=parallel.default_workers)
    budget_mb: int = layers.DEFAULT_BUDGET_MB
    in_path: str | None = None
    out_path: str | None = None
    max_n: int = 5

    def __post_init__(self) -> None:
        if self.max_n < 0:
            raise ValueError(f"selfcheck needs a max n >= 0, got {self.max_n}")
        if self.threads < 1:
            raise ValueError(f"worker count must be >= 1, got {self.threads}")
        if self.budget_mb <= 0:
            raise ValueError(f"budget must be positive, got {self.budget_mb} MB")
        if self.out_path is not None:
            parent = os.path.dirname(self.out_path) or "."
            if os.path.isdir(self.out_path):
                raise ValueError(f"output path {self.out_path} is a directory")
            if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                raise ValueError(f"output path {self.out_path} is not writable")
        if self.in_path is not None and not os.path.isfile(self.in_path):
            if os.path.exists(self.in_path):
                raise ValueError(f"input path {self.in_path} is not a file")
            raise ValueError(f"input file {self.in_path} does not exist")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as one usage-error line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per handler; each argument's dest is the RunConfig
    field it sets, and an argument left out keeps that field's default."""
    p = _Parser(
        prog="mbfcount",
        description="monotone Boolean function layers and exact self-dual counts",
    )
    sub = p.add_subparsers(dest="command", required=True)
    g = sub.add_parser("gen", help="materialize a layer")
    c = sub.add_parser("classes", help="orbit classes of a layer")
    r = sub.add_parser("retable", help="upward interval counts")
    l = sub.add_parser("lambda", help="compute one verified self-dual count")
    s = sub.add_parser("selfcheck", help="run the invariant suites")

    for q in (g, c):
        q.add_argument("--n", type=int, required=True)
    r.add_argument("--n", type=int)
    r.add_argument("--in", dest="in_path",
                   help="layer or classes file to take elements from")
    l.add_argument("target", type=int, metavar="TARGET",
                   help="index of the count to compute")
    l.add_argument("method", choices=METHODS, metavar="METHOD",
                   help="one of %(choices)s")
    l.add_argument("--threads", type=int,
                   help="worker processes (default: %(metavar)s env var or cpu count)",
                   metavar=parallel.ENV_THREADS)
    for q in (g, c, r, l):
        q.add_argument("--budget-mb", type=int,
                       help="memory budget; oversized steps are refused"
                       f" (default {layers.DEFAULT_BUDGET_MB})")
    for q in (g, c, r):
        q.add_argument("--out", dest="out_path", metavar="OUT",
                       help="output file (default: stdout)")
    s.add_argument("max_n", nargs="?", type=int, metavar="MAX_N",
                   help=f"largest n to check (default {RunConfig.max_n})")
    return p


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if v is not None})


def _emit(out_path: str | None, writer) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            writer(fh)
    else:
        writer(sys.stdout)


def cmd_gen(cfg: RunConfig) -> int:
    layer = layers.generate_layer(cfg.n, cfg.budget_mb)
    _emit(cfg.out_path, lambda fh: layers.write_records(fh, "layer", layer.n, layer.values[:, None]))
    return EXIT_OK


def cmd_classes(cfg: RunConfig) -> int:
    layer = layers.generate_layer(cfg.n, cfg.budget_mb)
    classes = orbits.classify(layer)
    rows = np.array([(c.representative.bits, c.gamma) for c in classes], dtype=np.uint64)
    _emit(cfg.out_path, lambda fh: layers.write_records(fh, "classes", cfg.n, rows))
    return EXIT_OK


def cmd_retable(cfg: RunConfig) -> int:
    if (cfg.n is None) == (cfg.in_path is None):
        raise ValueError("retable needs exactly one of --n and --in")
    if cfg.in_path is None:
        n = cfg.n
        layers.check_layer_budget(n, cfg.budget_mb)
        intervals.check_upward_budget(n, layers.LAYER_SIZE[n], cfg.budget_mb)
        xs = layers.generate_layer(n, cfg.budget_mb).values
    else:
        kind, n, count = layers.record_header(cfg.in_path)
        intervals.check_upward_budget(n, count, cfg.budget_mb)  # before any row is read
        if kind == "classes":
            _, classes = orbits.load_classes(cfg.in_path)
            xs = np.array([c.representative.bits for c in classes], dtype=np.uint64)
        else:  # a layer file, or a header that the layer reader refuses
            xs = layers.load_layer(cfg.in_path).values
    counts = intervals.upward_counts(n, xs, cfg.budget_mb)
    rows = np.column_stack((xs, counts.astype(np.uint64)))
    _emit(cfg.out_path, lambda fh: layers.write_records(fh, "retable", n, rows))
    return EXIT_OK


def cmd_lambda(cfg: RunConfig) -> int:
    if cfg.method == "plus4" and cfg.target == 9:
        base = layers.generate_layer(route_base(cfg.target, cfg.method), cfg.budget_mb)
        classes = orbits.classify(base)
        terms = plus4_pruned_term_count(base, classes)
        folded = plus4_pruned_term_count(base, fold_dual_classes(classes, base.n)[0])
        print(
            f"mbfcount: note: the n=9 run sums {terms:,} four-way interval"
            f" products (pruned plus4 over the n={base.n} classes); a class and its"
            f" dual class have equal sums, so {folded:,} are summed, and the"
            " kernel evaluates about a quarter, one per orbit of (b, c) under"
            " b <-> c and (b, c) -> (b*, c*)",
            file=sys.stderr,
        )
    result = lambda_any(cfg.target, cfg.method, cfg.threads, cfg.budget_mb, verify=False)
    print(result.record())  # before the check, so a wrong value is still shown
    verify_result(result)
    return EXIT_OK


def cmd_selfcheck(cfg: RunConfig) -> int:
    ok = selfcheck.run_selfcheck(cfg.max_n)
    return EXIT_OK if ok else EXIT_VERIFY


_HANDLERS = {
    "gen": cmd_gen,
    "classes": cmd_classes,
    "retable": cmd_retable,
    "lambda": cmd_lambda,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    try:
        cfg = _config(build_parser().parse_args(argv))
        return _HANDLERS[cfg.command](cfg)
    except SystemExit:  # after --help, which argparse prints; no handler exits
        return EXIT_OK
    except BudgetError as e:
        print(f"mbfcount: refused: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as e:
        print(f"mbfcount: verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (UnsupportedCombinationError, WidthError, ValueError, OSError) as e:
        print(f"mbfcount: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("mbfcount: refused: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenProcessPool:
        print("mbfcount: a worker process died (killed, or out of memory)", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt:
        print("mbfcount: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
