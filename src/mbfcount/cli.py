"""Command-line front end: layers, orbit classes, interval tables, counts.

Commands

  gen        materialize the layer for n and write it (file or stdout)
  classes    classify the layer into orbit classes and write them
  retable    upward interval counts for a layer or a classes file
  lambda     compute a self-dual count by one method, verified against
             the known reference values unless --no-verify
  selfcheck  run the cross-module invariant suites

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
    verify: bool = True
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
            raise ValueError(f"input file {self.in_path} does not exist")


def _add_shared(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: %(metavar)s env var or cpu count)",
                   metavar=parallel.ENV_THREADS)
    p.add_argument("--budget-mb", type=int, default=layers.DEFAULT_BUDGET_MB,
                   help="memory budget; oversized steps are refused (default %(default)s)")
    if out:
        p.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mbfcount",
        description="monotone Boolean function layers and exact self-dual counts",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="materialize a layer")
    g.add_argument("--n", type=int, required=True)
    _add_shared(g)

    c = sub.add_parser("classes", help="orbit classes of a layer")
    c.add_argument("--n", type=int, required=True)
    _add_shared(c)

    r = sub.add_parser("retable", help="upward interval counts")
    r.add_argument("--n", type=int)
    r.add_argument("--in", dest="in_path",
                   help="layer or classes file to take elements from")
    _add_shared(r)

    l = sub.add_parser("lambda", help="compute one self-dual count")
    l.add_argument("target_pos", nargs="?", type=int, metavar="TARGET")
    l.add_argument("method_pos", nargs="?", choices=METHODS, metavar="METHOD")
    l.add_argument("--target", type=int, help="index of the count to compute")
    l.add_argument("--method", choices=METHODS)
    l.add_argument("--no-verify", action="store_true",
                   help="skip the reference-table check")
    _add_shared(l, out=False)

    s = sub.add_parser("selfcheck", help="run the invariant suites")
    s.add_argument("max_n_pos", nargs="?", type=int, metavar="MAX_N")
    s.add_argument("--max-n", type=int, default=None)
    _add_shared(s, out=False)

    return p


def _config(args: argparse.Namespace) -> RunConfig:
    def either(flag: str, pos: str):  # the --flag form wins; 0 is a value
        v = getattr(args, flag, None)
        return getattr(args, pos, None) if v is None else v

    threads = getattr(args, "threads", None)
    if threads is None:
        threads = parallel.default_workers()
    max_n = either("max_n", "max_n_pos")
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        target=either("target", "target_pos"),
        method=either("method", "method_pos"),
        threads=threads,
        budget_mb=getattr(args, "budget_mb", layers.DEFAULT_BUDGET_MB),
        in_path=getattr(args, "in_path", None),
        out_path=getattr(args, "out", None),
        verify=not getattr(args, "no_verify", False),
        max_n=5 if max_n is None else max_n,
    )


def _emit(cfg: RunConfig, writer) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            writer(fh)
    else:
        writer(sys.stdout)


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise ValueError("gen needs --n")
    layer = layers.generate_layer(cfg.n, cfg.budget_mb)
    _emit(cfg, lambda fh: layers.write_records(fh, "layer", layer.n, layer.values[:, None]))
    return EXIT_OK


def cmd_classes(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise ValueError("classes needs --n")
    layer = layers.generate_layer(cfg.n, cfg.budget_mb)
    classes = orbits.classify(layer, cfg.threads)
    if not orbits.gammas_consistent(classes, layer):
        raise VerificationError(f"orbit sizes inconsistent for n={cfg.n}")
    rows = np.array([(c.representative.bits, c.gamma) for c in classes], dtype=np.uint64)
    _emit(cfg, lambda fh: layers.write_records(fh, "classes", cfg.n, rows))
    return EXIT_OK


def cmd_retable(cfg: RunConfig) -> int:
    if (cfg.n is None) == (cfg.in_path is None):
        raise ValueError("retable needs exactly one of --n and --in")
    if cfg.in_path is None:
        n = cfg.n
        layers.check_layer_budget(n, cfg.budget_mb)
        intervals.check_upward_budget(n, layers.LAYER_SIZE[n])
        xs = layers.generate_layer(n, cfg.budget_mb).values
    else:
        kind, n, count = layers.record_header(cfg.in_path)
        intervals.check_upward_budget(n, count)  # before any row is read
        if kind == "classes":
            _, classes = orbits.load_classes(cfg.in_path)
            xs = np.array([c.representative.bits for c in classes], dtype=np.uint64)
        else:  # a layer file, or a header that the layer reader refuses
            xs = layers.load_layer(cfg.in_path).values
    counts = intervals.upward_counts(n, xs, cfg.threads)
    rows = np.column_stack((xs, counts.astype(np.uint64)))
    _emit(cfg, lambda fh: layers.write_records(fh, "retable", n, rows))
    return EXIT_OK


def cmd_lambda(cfg: RunConfig) -> int:
    if cfg.target is None or cfg.method is None:
        raise ValueError("lambda needs a target index and a method")
    if cfg.method == "plus4" and cfg.target == 9:
        base = layers.generate_layer(5, cfg.budget_mb)
        classes = orbits.classify(base)
        terms = plus4_pruned_term_count(base, classes)
        folded = plus4_pruned_term_count(base, fold_dual_classes(classes, 5)[0])
        print(
            f"mbfcount: note: the n=9 run sums {terms:,} four-way interval"
            f" products (pruned plus4 over the n=5 classes); a class and its"
            f" dual class have equal sums, so {folded:,} are summed, and they"
            " are symmetric in b and c, so the kernel evaluates about half of"
            " those, one per pair b <= c",
            file=sys.stderr,
        )
    result = lambda_any(
        cfg.target, cfg.method, cfg.threads, cfg.budget_mb, verify=False
    )
    print(result.record())
    if cfg.verify:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        cfg = _config(args)
        return _HANDLERS[args.command](cfg)
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
