import argparse
import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from mbfcount import cli, counting, intervals, layers, orbits, selfcheck
from mbfcount.cli import (
    EXIT_BUDGET,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    EXIT_WORKER,
    RunConfig,
    main,
)
from mbfcount.errors import VerificationError
from mbfcount.parallel import ENV_THREADS, default_workers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["mbf-layer n=2 count=6", "0", "8", "a", "c", "e", "f"]


def test_gen_n0(capsys):
    code, out, _ = run(capsys, "gen", "--n", "0")
    assert code == EXIT_OK
    assert out.splitlines() == ["mbf-layer n=0 count=2", "0", "1"]


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "layer.txt"
    assert run(capsys, "gen", "--n", "3", "--out", str(path))[0] == EXIT_OK
    first = path.read_bytes()
    assert run(capsys, "gen", "--n", "3", "--out", str(path))[0] == EXIT_OK
    assert path.read_bytes() == first


def test_classes_output(capsys):
    code, out, _ = run(capsys, "classes", "--n", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "mbf-classes n=2 count=5"
    assert len(lines) == 6
    gammas = [int(line.split()[1]) for line in lines[1:]]
    assert sorted(gammas) == [1, 1, 1, 1, 2]


def test_classes_n0(capsys):
    code, out, _ = run(capsys, "classes", "--n", "0")
    assert code == EXIT_OK
    assert out.splitlines() == ["mbf-classes n=0 count=2", "0 1", "1 1"]


def test_gen_n5_line_count(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "mbf-layer n=5 count=7581"
    assert len(lines) == 7582


def test_classes_n5_line_count(capsys):
    code, out, _ = run(capsys, "classes", "--n", "5")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "mbf-classes n=5 count=210"
    assert len(lines) == 211
    assert sum(int(l.split()[1]) for l in lines[1:]) == 7581


def test_retable_from_n(capsys):
    code, out, _ = run(capsys, "retable", "--n", "2")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "mbf-retable n=2 mode=upward count=6"
    assert [int(l.split()[1]) for l in lines[1:]] == [6, 5, 3, 3, 2, 1]


def test_retable_from_classes_file(tmp_path, capsys):
    cpath = tmp_path / "classes.txt"
    assert run(capsys, "classes", "--n", "2", "--out", str(cpath))[0] == EXIT_OK
    code, out, _ = run(capsys, "retable", "--in", str(cpath))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "mbf-retable n=2 mode=upward count=5"


def test_retable_from_layer_file(tmp_path, capsys):
    lpath = tmp_path / "layer.txt"
    assert run(capsys, "gen", "--n", "2", "--out", str(lpath))[0] == EXIT_OK
    code, out, _ = run(capsys, "retable", "--in", str(lpath))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "mbf-retable n=2 mode=upward count=6"


def test_lambda_positional(capsys):
    code, out, _ = run(capsys, "lambda", "2", "brute")
    assert code == EXIT_OK
    assert out.startswith("lambda n=2 method=brute value=2 base_n=2 seconds=")


def test_lambda_flags(capsys):
    code, out, _ = run(capsys, "lambda", "4", "plus4")
    assert code == EXIT_OK
    assert out.startswith("lambda n=4 method=plus4 value=12 base_n=0 seconds=")


def test_lambda_flags_target_zero(capsys):
    code, out, _ = run(capsys, "lambda", "0", "brute")
    assert code == EXIT_OK
    assert out.startswith("lambda n=0 method=brute value=0 base_n=0 seconds=")


def test_lambda_7_plus2(capsys):
    code, out, _ = run(capsys, "lambda", "7", "plus2")
    assert code == EXIT_OK
    assert "value=1422564" in out


def test_lambda_verification_failure_still_prints(monkeypatch, capsys):
    monkeypatch.setitem(counting.LAMBDA_KNOWN, 3, 999)
    code, out, err = run(capsys, "lambda", "3", "brute")
    assert code == EXIT_VERIFY
    assert out.startswith("lambda n=3 method=brute value=4")
    assert "verification failed" in err


def test_lambda9_note_gives_exact_term_count(monkeypatch, capsys):
    fake = counting.LambdaResult(9, "plus4", counting.LAMBDA_KNOWN[9], 5, 0.0)
    monkeypatch.setattr(cli, "lambda_any", lambda *args, **kwargs: fake)
    code, out, err = run(capsys, "lambda", "9", "plus4")
    assert code == EXIT_OK
    assert out.startswith(f"lambda n=9 method=plus4 value={counting.LAMBDA_KNOWN[9]}")
    assert "417,628,327,127 four-way interval products" in err
    assert "dual class have equal sums, so 227,793,759,723 are summed" in err
    assert "about half of those, one per pair b <= c" in err
    assert "1.1e12" not in err and "days" not in err


def _raising(exc):
    def handler(cfg):
        raise exc

    return handler


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (KeyboardInterrupt(), EXIT_INTERRUPTED, "mbfcount: interrupted"),
        (MemoryError(), EXIT_BUDGET, "mbfcount: refused: out of memory"),
        (BrokenProcessPool("gone"), EXIT_WORKER, "mbfcount: a worker process died"),
    ],
    ids=["interrupt", "memory", "worker"],
)
def test_failures_exit_without_traceback(exc, code, message, monkeypatch, capsys):
    monkeypatch.setitem(cli._HANDLERS, "gen", _raising(exc))
    got, out, err = run(capsys, "gen", "--n", "2")
    assert (got, out) == (code, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_killed_worker_exits_with_the_worker_code(monkeypatch, capsys):
    # the forked workers inherit the patched kernel and end without a result
    def die(*args):
        os._exit(3)

    monkeypatch.setattr(counting, "_plus3_sums", die)
    got, out, err = run(capsys, "lambda", "7", "plus3", "--threads", "2")
    assert (got, out) == (EXIT_WORKER, "")
    assert err.startswith("mbfcount: a worker process died") and err.count("\n") == 1


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "nonsense")[0] == EXIT_USAGE
    assert run(capsys, "gen")[0] == EXIT_USAGE
    assert run(capsys, "lambda", "4")[0] == EXIT_USAGE
    assert run(capsys, "lambda", "4", "sorcery")[0] == EXIT_USAGE
    assert run(capsys, "lambda", "1", "plus2")[0] == EXIT_USAGE
    assert run(capsys, "lambda", "4", "plus4", "--threads", "0")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--n", "2", "--budget-mb", "-5")[0] == EXIT_USAGE
    missing = tmp_path / "nowhere" / "file.txt"
    assert run(capsys, "gen", "--n", "2", "--out", str(missing))[0] == EXIT_USAGE
    assert run(capsys, "retable", "--in", str(missing))[0] == EXIT_USAGE
    assert run(capsys, "gen", "--n", "7")[0] == EXIT_USAGE


def _fields_read(handler) -> set[str]:
    """The RunConfig fields that handler reads, as cfg.<field>."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cfg"
    }


def test_each_command_accepts_only_what_its_handler_reads():
    # one spelling per setting, and no setting that its command ignores
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {name: {a.dest for a in sub._actions if a.dest != "help"} for name, sub in commands.items()}
    assert accepted == {name: _fields_read(handler) for name, handler in cli._HANDLERS.items()}
    assert accepted["selfcheck"] == {"max_n"}
    assert [name for name, dests in accepted.items() if "threads" in dests] == ["lambda"]
    assert sum(len(dests) for dests in accepted.values()) == 15


@pytest.mark.parametrize(
    "argv",
    [
        ["selfcheck", "5", "--budget-mb", "10"],
        ["classes", "--n", "3", "--threads", "2"],
        ["lambda", "--target", "4", "--method", "plus4"],
        ["lambda", "5", "plus3", "--no-verify"],
    ],
    ids=["selfcheck-budget", "classes-threads", "lambda-flags", "lambda-no-verify"],
)
def test_settings_a_command_does_not_take_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error: ") and len(err.splitlines()) == 1


def test_budget_refusals(capsys):
    assert run(capsys, "gen", "--n", "6", "--budget-mb", "10")[0] == EXIT_BUDGET
    assert run(capsys, "retable", "--n", "6")[0] == EXIT_BUDGET


def _must_not_run(*args, **kwargs):
    raise AssertionError("the budget refusal comes first")


def test_retable_n6_refused_before_the_layer_is_built(monkeypatch, capsys):
    monkeypatch.setattr(layers, "generate_layer", _must_not_run)
    code, out, err = run(capsys, "retable", "--n", "6")
    assert code == EXIT_BUDGET and out == ""
    assert err == "mbfcount: refused: upward counts for 7828354 elements at n=6 are out of budget\n"


def test_retable_refuses_n6_layer_file_from_its_header(tmp_path, monkeypatch, capsys):
    # the header alone sets the budget: no row is read, and here there are none
    path = tmp_path / "d6.layer"
    path.write_text("mbf-layer n=6 count=7828354\n")
    monkeypatch.setattr(layers, "read_records", _must_not_run)
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_BUDGET and out == ""
    assert err == "mbfcount: refused: upward counts for 7828354 elements at n=6 are out of budget\n"


def test_retable_refuses_a_layer_file_of_part_of_the_layer(tmp_path, capsys):
    path = tmp_path / "part.layer"
    path.write_text("mbf-layer n=2 count=2\n0\n8\n")
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"mbfcount: error: {path}:1: ") and len(err.splitlines()) == 1
    assert "all 6 elements of D_2" in err


def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_selfcheck_runs_every_suite_when_one_raises(monkeypatch, capsys):
    # a suite whose production code raises fails on its own line with the
    # message; the remaining suites still run, and the exit code is 1
    def raising(layer):
        raise VerificationError(f"no classes for n={layer.n}")

    monkeypatch.setattr(selfcheck, "classify", raising)
    code, out, err = run(capsys, "selfcheck", "3")
    assert code == EXIT_VERIFY and err == ""
    lines = out.splitlines()
    assert len(lines) == 15
    assert [line.split(":")[0].split()[1] for line in lines] == [name for name, _, _ in selfcheck.SUITES]
    failed = [line for line in lines if line.startswith("FAIL")]
    assert "FAIL canonical-representatives: n=0: no classes for n=0" in failed
    assert all(line.endswith(": no classes for n=0") for line in failed)
    # suites after the first failure still run, and pass
    assert {"PASS self-dual-weight", "PASS interval-oracle", "PASS dedekind-two-up"} <= set(lines)


def test_selfcheck_refuses_negative_max_n(capsys):
    code, out, err = run(capsys, "selfcheck", "-1")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error:") and len(err.splitlines()) == 1


def test_interval_oracle_scans_only_layers_up_to_max_n(monkeypatch):
    asked = []

    def recording(n, *args):
        asked.append(n)
        return layers.generate_layer(n, *args)

    monkeypatch.setattr(selfcheck, "generate_layer", recording)
    suite = next(entry for entry in selfcheck.SUITES if entry[0] == "interval-oracle")
    monkeypatch.setattr(selfcheck, "SUITES", (suite,))
    lines = []
    assert selfcheck.run_selfcheck(1, report=lines.append)
    assert lines == ["PASS interval-oracle"] and asked == [0, 1]


def _off_by_one_at_n2(route):
    def wrong(n, *args, **kwargs):
        got = route(n, *args, **kwargs)
        if n == 2:
            counts = got.counts if isinstance(got, intervals.IntervalTable) else got
            counts[-1] += 1
        return got

    return wrong


def _fails_first_at_n2(check, name):
    # the check passes at n = 0, 1 and fails at n = 2, and the run's line
    # for its suite names n = 2
    assert check(0) and check(1)
    assert not check(2)
    lines = []
    assert not selfcheck.run_selfcheck(2, report=lines.append)
    assert f"FAIL {name}: n=2" in lines


@pytest.mark.parametrize("route", ["upward_counts", "build_full_table"])
def test_interval_oracle_fails_on_a_wrong_production_route(monkeypatch, route):
    # the suite checks the interval counts that the counting methods read
    monkeypatch.setattr(selfcheck, route, _off_by_one_at_n2(getattr(intervals, route)))
    _fails_first_at_n2(selfcheck.check_interval_oracle, "interval-oracle")


@pytest.mark.parametrize("where", ["first-row", "last-column"])
def test_interval_oracle_checks_every_entry_of_the_first_row_and_last_column(monkeypatch, where):
    # one wrong count at n = 5, on a pair that the 10^4 sampled pairs miss
    d = layers.LAYER_SIZE[5]
    k = d // 2
    i, j = (0, k) if where == "first-row" else (k, d - 1)
    sampled = np.random.default_rng(selfcheck.RNG_SEED).integers(0, d, size=(10_000, 2))
    assert not np.any((sampled[:, 0] == i) & (sampled[:, 1] == j))

    def wrong(n, *args, **kwargs):
        table = intervals.build_full_table(n, *args, **kwargs)
        if n == 5:
            table.counts[i, j] += 1
        return table

    monkeypatch.setattr(selfcheck, "build_full_table", wrong)
    assert not selfcheck.check_interval_oracle(5)


def _wrong_canonical_array(values, n):
    low = orbits.canonical_array(values, n)
    if n == 2:
        low[-1] += 1
    return low


def _wrong_classify(layer):
    classes = orbits.classify(layer)
    if layer.n == 2:
        classes[-1] = dataclasses.replace(classes[-1], gamma=classes[-1].gamma + 1)
    return classes


def _wrong_stabilizer_orbits(fixed, values, n):
    reps, inverse, sizes = orbits.stabilizer_orbits(fixed, values, n)
    if n == 2:
        sizes[-1] += 1
    return reps, inverse, sizes


def _wrong_lambda_plus3(layer, classes, *args):
    result = counting.lambda_plus3(layer, classes, *args)
    if layer.n == 2 and classes == orbits.classify(layer)[-1:]:  # the top class
        result = dataclasses.replace(result, value=result.value + 1)
    return result


@pytest.mark.parametrize(
    "route, wrong, check, name",
    [
        ("canonical_array", _wrong_canonical_array, selfcheck.check_canonicality, "canonical-representatives"),
        ("classify", _wrong_classify, selfcheck.check_canonicality, "canonical-representatives"),
        ("stabilizer_orbits", _wrong_stabilizer_orbits, selfcheck.check_relabeling_oracle, "relabeling-oracle"),
        ("lambda_plus3", _wrong_lambda_plus3, selfcheck.check_plus3_classes, "plus3-classes"),
    ],
    ids=["canonical_array", "classify", "stabilizer_orbits", "lambda_plus3"],
)
def test_relabeling_suites_fail_on_a_wrong_production_route(monkeypatch, route, wrong, check, name):
    # the suites check the walk's results against the position-map reference,
    # and each plus3 class task against the definition
    monkeypatch.setattr(selfcheck, route, wrong)
    _fails_first_at_n2(check, name)


@pytest.mark.parametrize(
    "text",
    ["mbf-layer n=2 count=2\n0\nff\n", "mbf-classes n=2 count=1\n8 0\n"],
    ids=["layer-wider-than-window", "classes-gamma-zero"],
)
def test_retable_refuses_values_outside_the_layer(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error:") and len(err.splitlines()) == 1


OUT_OF_UINT64 = pytest.mark.parametrize("value", ["-1", "1" + "0" * 16], ids=["negative", "2^64"])


@OUT_OF_UINT64
def test_retable_refuses_layer_values_outside_64_bits(tmp_path, capsys, value):
    path = tmp_path / "bad.layer"
    path.write_text(f"mbf-layer n=2 count=1\n{value}\n")
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error:") and len(err.splitlines()) == 1
    assert str(path) in err and f"value {value} " in err


@pytest.mark.parametrize(
    "n, value", [(2, "-1"), (2, "1" + "0" * 16), (6, "f" * 32)], ids=["negative", "2^64", "n6-128-bit"]
)
def test_retable_refuses_classes_values_outside_64_bits(tmp_path, capsys, n, value):
    path = tmp_path / "bad.classes"
    path.write_text(f"mbf-classes n={n} count=1\n{value} 1\n")
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error:") and len(err.splitlines()) == 1
    assert str(path) in err and f"value {value} " in err


@OUT_OF_UINT64
def test_upward_table_refuses_values_outside_64_bits(tmp_path, value):
    # no command reads an upward table back; the loader raises the
    # ValueError that the CLI reports as one usage-error line
    path = tmp_path / "bad.retable"
    path.write_text(f"mbf-retable n=2 mode=upward count=1\n{value} 1\n")
    with pytest.raises(ValueError, match=f"{path}:2: value {value} "):
        intervals.load_upward_table(str(path))


def test_retable_refuses_non_monotone_classes(tmp_path, capsys):
    path = tmp_path / "bad.classes"
    path.write_text("mbf-classes n=3 count=1\n10 1\n")
    code, out, err = run(capsys, "retable", "--in", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "not monotone" in err


# one well-formed file of each kind, and the loader that reads it back
GOOD_FILES = {
    "layer": (["mbf-layer n=2 count=6", "0", "8", "a", "c", "e", "f"], layers.load_layer),
    "classes": (["mbf-classes n=2 count=2", "0 1", "8 1"], orbits.load_classes),
    "retable": (["mbf-retable n=2 mode=upward count=2", "0 6", "8 5"], intervals.load_upward_table),
}


def _on_row_2(make):  # break the second row (line 3) of a good file
    return lambda lines: [*lines[:2], make(lines[2]), *lines[3:]]


def _on_header(make):
    return lambda lines: [make(lines[0]), *lines[1:]]


# each case breaks a good file, and names the line the fault is on
MALFORMED = {
    "blank-line": (lambda lines: [*lines[:2], "", *lines[2:]], 3),
    "one-column-too-many": (_on_row_2(lambda row: row + " 1"), 3),
    "one-column-too-few": (_on_row_2(lambda row: " ".join(row.split()[:-1])), 3),
    "row-missing": (lambda lines: lines[:2], 1),
    "header-without-keys": (_on_header(lambda h: " ".join(t.split("=")[-1] for t in h.split())), 1),
    "n-not-a-number": (_on_header(lambda h: h.replace("n=2", "n=x")), 1),
    "n-beyond-6": (_on_header(lambda h: h.replace("n=2", "n=7")), 1),
    "n-beyond-6-before-a-bad-row": (
        lambda lines: [lines[0].replace("n=2", "n=7"), " ".join(["zz", *lines[1].split()[1:]]), *lines[2:]],
        1,
    ),
    "value-not-hex": (_on_row_2(lambda row: row.replace("8", "g", 1)), 3),
    "value-with-underscore": (_on_row_2(lambda row: row.replace("8", "1_0", 1)), 3),
    "value-not-monotone": (_on_row_2(lambda row: row.replace("8", "4", 1)), 3),
    "value-not-ascii": (_on_row_2(lambda row: row.replace("8", "\u00e9", 1)), 3),
    "count-not-decimal": (_on_row_2(lambda row: row.split()[0] + " x"), 3),
    "count-with-sign": (_on_row_2(lambda row: row.split()[0] + " +1"), 3),
}


@pytest.mark.parametrize(
    "kind, case",
    [(k, c) for k in GOOD_FILES for c in MALFORMED if k != "layer" or not c.startswith("count-")],
)
def test_malformed_files_name_their_file_and_line(tmp_path, capsys, kind, case):
    lines, load = GOOD_FILES[kind]
    path = tmp_path / f"bad.{kind}"
    path.write_text("\n".join(lines) + "\n")
    load(str(path))  # the unbroken file reads back
    breaks, line = MALFORMED[case]
    path.write_text("\n".join(breaks(lines)) + "\n", encoding="utf-8")
    where = f"{path}:{line}: "
    if kind == "retable":  # no command reads an upward table back
        with pytest.raises(ValueError) as e:
            load(str(path))
        assert str(e.value).startswith(where)
    else:
        code, out, err = run(capsys, "retable", "--in", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"mbfcount: error: {where}") and len(err.splitlines()) == 1


def test_retable_refuses_both_n_and_in(tmp_path, capsys):
    cpath = tmp_path / "classes.txt"
    assert run(capsys, "classes", "--n", "2", "--out", str(cpath))[0] == EXIT_OK
    code, out, err = run(capsys, "retable", "--n", "3", "--in", str(cpath))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("mbfcount: error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags", [[], ["-O"]], ids=["plain", "optimized"]  # -O strips assert statements
)
def test_python_m_mbfcount_runs_the_cli(flags):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "mbfcount", "selfcheck", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "3")
    assert default_workers() == 3
    monkeypatch.setenv(ENV_THREADS, "junk")
    assert default_workers() == usable_cpus()
    monkeypatch.delenv(ENV_THREADS)
    assert default_workers() == usable_cpus()


def test_default_workers_honour_affinity(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_workers() == 1


def test_runconfig_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig("gen", n=2, threads=0)
    with pytest.raises(ValueError):
        RunConfig("gen", n=2, budget_mb=0)
    with pytest.raises(ValueError):
        RunConfig("gen", n=2, out_path=str(tmp_path))  # a directory
    with pytest.raises(ValueError):
        RunConfig("retable", in_path=str(tmp_path / "missing.txt"))
    with pytest.raises(ValueError, match="is not a file"):
        RunConfig("retable", in_path=str(tmp_path))  # a directory
    cfg = RunConfig("gen", n=2, out_path=str(tmp_path / "ok.txt"))
    assert cfg.threads >= 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
