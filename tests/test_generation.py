import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mbfcount import layers, vecbits
from mbfcount.errors import BudgetError, VerificationError, WidthError
from mbfcount.layers import generate_layer, load_layer, self_dual_brute, write_records

from oracles import slow_layer

D1_SET = {"00", "01", "11"}
D2_SET = {"0000", "0001", "0011", "0101", "0111", "1111"}

# layer sizes re-derived below: brute filter for n <= 3 (n = 4 via the
# vectorized validator, itself oracle-checked in test_vecbits), then the
# ordered-pair identity for n = 5 and 6
EXPECTED_SIZES = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7_828_354}


def test_small_listings():
    assert {x.to_string() for x in generate_layer(1)} == D1_SET
    assert {x.to_string() for x in generate_layer(2)} == D2_SET


@pytest.mark.parametrize("n", range(4))
def test_matches_brute_filter(n):
    assert list(int(v) for v in generate_layer(n).values) == slow_layer(n)


def test_matches_brute_filter_n4():
    raw = np.arange(1 << 16, dtype=np.uint64)
    expect = raw[vecbits.monotone_mask(raw, 4)]
    assert np.array_equal(generate_layer(4).values, expect)


@pytest.mark.parametrize("n", sorted(EXPECTED_SIZES))
def test_sizes(n):
    assert len(generate_layer(n)) == EXPECTED_SIZES[n]


@pytest.mark.parametrize("n", range(7))
def test_sorted_unique_monotone(n):
    V = generate_layer(n).values
    assert np.all(V[1:] > V[:-1])
    assert np.all(vecbits.monotone_mask(V, n))


@pytest.mark.parametrize("n", range(6))
def test_closed_under_dual(n):
    layer = generate_layer(n)
    duals = np.sort(vecbits.dual_array(layer.values, n))
    assert np.array_equal(duals, layer.values)


@pytest.mark.parametrize("n", range(6))
def test_ordered_pair_identity(n):
    # the next layer is exactly the ordered pairs lo <= hi of this one
    V = generate_layer(n).values
    pairs = sum(int(np.count_nonzero((lo & ~V) == 0)) for lo in V)
    assert pairs == len(generate_layer(n + 1))


def test_index_lookup():
    layer = generate_layer(3)
    for i, x in enumerate(layer):
        assert layer.index(x.bits) == i
        assert x.bits in layer
    assert 5 not in layer  # 0b101 is not monotone at n=3
    with pytest.raises(KeyError):
        layer.index(5)


@pytest.mark.parametrize(
    "n,expect", [(0, 0), (1, 1), (2, 2), (3, 4), (4, 12), (5, 81)]
)
def test_self_dual_brute_known_values(n, expect):
    assert self_dual_brute(n) == expect


def save_layer(layer, path):
    with open(path, "w") as fh:
        write_records(fh, "layer", layer.n, layer.values[:, None])


def test_layer_file_round_trip(tmp_path):
    layer = generate_layer(3)
    path = tmp_path / "layer3.txt"
    save_layer(layer, str(path))
    first = path.read_bytes()
    loaded = load_layer(str(path))
    assert loaded.n == 3
    assert np.array_equal(loaded.values, layer.values)
    save_layer(loaded, str(path))
    assert path.read_bytes() == first


def test_layer_file_header_example(tmp_path):
    path = tmp_path / "layer2.txt"
    save_layer(generate_layer(2), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "mbf-layer n=2 count=6"
    assert lines[1:] == ["0", "8", "a", "c", "e", "f"]


def test_load_rejects_corrupt_files(tmp_path):
    good = tmp_path / "ok.txt"
    save_layer(generate_layer(2), str(good))
    lines = good.read_text().splitlines()

    bad1 = tmp_path / "bad1.txt"
    bad1.write_text("wrong header\n")
    with pytest.raises(ValueError):
        load_layer(str(bad1))

    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("\n".join([lines[0]] + lines[1:-1]) + "\n")
    with pytest.raises(ValueError):
        load_layer(str(bad2))

    bad3 = tmp_path / "bad3.txt"
    bad3.write_text("\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n")
    with pytest.raises(ValueError):
        load_layer(str(bad3))

    bad4 = tmp_path / "bad4.txt"
    bad4.write_text("mbf-layer n=2 count=2\n4\n5\n")  # 4, 5 not monotone
    with pytest.raises(ValueError):
        load_layer(str(bad4))


@pytest.mark.parametrize("wrong", [19, 21])
def test_build_raises_unless_it_fills_the_exact_size(monkeypatch, wrong):
    monkeypatch.setattr(layers, "_CACHE", {})
    monkeypatch.setitem(layers.LAYER_SIZE, 3, wrong)
    with pytest.raises(VerificationError):
        generate_layer(3)


def test_building_d6_holds_one_copy_of_the_layer():
    # the layer is written in place, sorted by construction: building D_6
    # over D_5 raises the peak by about its own 8 * 7,828,354 bytes.  A
    # process inherits its parent's peak RSS through exec, so the build
    # runs in a child of a small launcher, not of this process
    measure = (
        "import resource, sys\n"
        "from mbfcount.layers import generate_layer\n"
        "generate_layer(5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "generate_layer(6)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    launch = (
        "import subprocess, sys\n"
        f"sys.exit(subprocess.run([sys.executable, '-c', {measure!r}]).returncode)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", launch], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0 < int(proc.stdout) < 1.5 * 8 * 7_828_354


def test_refusals():
    with pytest.raises(WidthError):
        generate_layer(7)
    with pytest.raises(BudgetError):
        generate_layer(6, budget_mb=10)
    with pytest.raises(BudgetError):
        self_dual_brute(6, budget_mb=10)
