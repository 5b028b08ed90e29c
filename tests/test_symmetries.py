"""Metamorphic tests: three symmetries of a model and their known effect on
the artifacts of ``report --ref``.

All act on layer 0 of a top-2 upcycled model.  Swapping two experts together
with their gate rows relabels them: each layer-0 similarity matrix has the two
rows and columns swapped, the route log and activation ratios name the other
expert, and the rest is byte-identical.  With two selected experts the layer
output is one sum of two terms, so the swap cannot reorder a float sum; with
three or more it could, and the symmetry would no longer be exact.  Doubling
an expert's ``w_up`` and halving its ``w_down`` is exact in floating point
and changes what the expert computes nowhere; only the matrix-level PCA of
``up`` and ``down``, whose standardized population holds the raw weights,
changes.  Permuting one expert's neurons changes its sums only in order: the
dynamic tables and reorder's aligned similarity agree to rounding, reorder
recovers the permutation, and the neuron-level ``pca --eps`` outliers are the
same neurons under their new indices, whatever order DBSCAN saw them in.
Trees are compared without the ``# command:`` and ``# model:`` lines, which
name the model file and its digest.
"""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import write_corpus

from moe_lens.cli import run_command
from moe_lens.static_analysis import layer_weights, neuron_rows, pairwise_reorder_reports
from moe_lens.tensor_store import build_checkpoint, dump_checkpoint, read_checkpoint

SWAP = {"1": "3", "3": "1"}
# Routed experts label the first rows of a similarity matrix, in index order.
SWAP_ROWS = {int(a): int(b) for a, b in SWAP.items()}
PERMUTED = [f"{step}/{step}-layer0{suffix}"
            for step in ("matrix-sim", "neuron-avg-sim")
            for suffix in ("-up", "-act", "-down")] + \
    ["gate-sim/gate-sim-layer0", "out-sim/out-sim-layer0-token0",
     "avg-out-sim/avg-out-sim-layer0"]


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, text files without their ``# command:`` and
    ``# model:`` lines."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            blob = path.read_bytes()
            if path.suffix != ".ppm":
                blob = b"".join(line for line in blob.splitlines(keepends=True)
                                if not line.startswith((b"# command:", b"# model:")))
            files[str(path.relative_to(root))] = blob
    return files


@pytest.fixture(scope="module")
def upcycled(tmp_path_factory):
    """A reporter of edited copies of one upcycled model, the base report, and
    the directory that holds the models."""
    root = tmp_path_factory.mktemp("symmetry")
    assert run_command(["synth", "--mode", "upcycled", "--seed", "7", "--noise", "0.3",
                        "--layers", "2", "--experts", "4", "--top-k", "2", "--d-hid", "16",
                        "--d-mid", "24", "--vocab", "11", "--out", str(root)]) == 0
    write_corpus(root / "corpus.txt", [[0, 5, 7, 3, 9, 10], [2, 7, 7, 1, 4, 8, 6]])
    ckpt = read_checkpoint(root / "model.moel")

    def report(stem, edit=None):
        path = root / "model.moel"
        if edit:
            tensors = {name: ckpt.get_tensor(name).copy() for name in ckpt.tensors}
            edit(tensors)
            path = root / f"{stem}.moel"
            dump_checkpoint(build_checkpoint(ckpt.config, tensors), path)
        assert run_command(["report", "--model", str(path), "--ref",
                            str(root / "reference.moel"), "--corpus", str(root / "corpus.txt"),
                            "--out", str(root / stem)]) == 0
        return tree(root / stem)

    return report, report("base"), root


def data_lines(blob: bytes) -> list[str]:
    return [line for line in blob.decode().splitlines() if not line.startswith("#")]


def swap_text(blob: bytes, perm: list[int]) -> bytes:
    """A similarity CSV, or a heatmap's range sidecar, with experts 1 and 3
    swapped: a table's rows and columns are permuted by ``perm`` under the
    same labels, and ``# selected:`` names the other ids."""
    lines = blob.decode().splitlines()
    table = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    if all("," in lines[i] for i in table):
        cells = [lines[i].split(",") for i in table]
        for i, own, row in zip(table, cells, perm):
            lines[i] = ",".join([own[0], *(cells[row][1 + col] for col in perm)])
    return "".join(
        "# selected: " + " ".join(SWAP.get(n, n) for n in line.split()[2:]) + "\n"
        if line.startswith("# selected:") else line + "\n" for line in lines).encode()


def swap_ppm(blob: bytes, perm: list[int]) -> bytes:
    """A heatmap with its blocks of rows and columns permuted by ``perm``."""
    magic, size, depth, pixels = blob.split(b"\n", 3)
    n, cell = len(perm), int(size.split()[0]) // len(perm)
    grid = np.frombuffer(pixels, dtype=np.uint8).reshape(n, cell, n, cell, 3)
    return b"\n".join([magic, size, depth, grid[perm][:, :, perm].tobytes()])


def swap_layer0_column(blob: bytes, column: str) -> list[str]:
    """Data lines of a table with ``column`` naming the other expert in layer 0."""
    lines = data_lines(blob)
    header = lines[0].split(",")
    layer, at = header.index("layer"), header.index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[layer] == "0":
            cells[at] = SWAP.get(cells[at], cells[at])
        out.append(",".join(cells))
    return out


def test_swapping_two_experts_with_their_gate_rows_relabels_them(upcycled):
    report, base, _ = upcycled

    def swap(tensors):
        for matrix in ("w_up", "w_act", "w_down"):
            one, three = (f"layers.0.experts.{e}.{matrix}" for e in (1, 3))
            tensors[one], tensors[three] = tensors[three], tensors[one]
        tensors["layers.0.gate.weight"][[1, 3]] = tensors["layers.0.gate.weight"][[3, 1]]

    swapped = report("swap", swap)
    assert swapped.keys() == base.keys()
    for stem in PERMUTED:
        perm = [SWAP_ROWS.get(i, i) for i in range(len(data_lines(base[stem + ".csv"])) - 1)]
        for ext in (".csv", ".ppm.range.txt"):
            assert swapped[stem + ext] == swap_text(base[stem + ext], perm), stem + ext
        assert swapped[stem + ".ppm"] == swap_ppm(base[stem + ".ppm"], perm), stem
    route = "route-log/route-log.csv"
    assert data_lines(swapped[route]) == swap_layer0_column(base[route], "expert")
    ratios = "act-ratio/act-ratio.csv"
    assert sorted(data_lines(swapped[ratios])) == \
        sorted(swap_layer0_column(base[ratios], "expert"))
    # PCA rows and reorder pairs are relabelled too, but through sums in
    # another order; everything else is the same bytes.
    relabelled = {stem + ext for stem in PERMUTED for ext in (".csv", ".ppm", ".ppm.range.txt")}
    relabelled |= {route, ratios}
    loose = {name for name in base if name.startswith(("pca/pca-layer0-", "reorder/"))}
    for name in sorted(base.keys() - relabelled - loose):
        assert swapped[name] == base[name], name
    assert "norm-rank/norm-rank-n4.csv" in base and "trace/trace-consistency.csv" in base


def test_rescaling_an_expert_changes_only_the_matrix_level_pca(upcycled):
    report, base, _ = upcycled

    def rescale(tensors):
        tensors["layers.0.experts.2.w_up"] *= 2
        tensors["layers.0.experts.2.w_down"] /= 2

    scaled = report("scale", rescale)
    assert scaled.keys() == base.keys()
    assert sorted(name for name in base if scaled[name] != base[name]) == \
        ["pca/pca-layer0-down-matrix.csv", "pca/pca-layer0-up-matrix.csv"]


def cells_agree(a: bytes, b: bytes, tol: float) -> bool:
    """Two tables hold the same text cells and numbers within ``tol``."""
    left, right = (re.split(r"[,\s]+", blob.decode()) for blob in (a, b))
    if len(left) != len(right):
        return False
    for x, y in zip(left, right):
        try:
            if abs(float(x) - float(y)) > tol:
                return False
        except ValueError:
            if x != y:
                return False
    return True


def test_permuting_an_experts_neurons_changes_sums_only_in_order(upcycled):
    report, base, root = upcycled
    expert = 2
    pi = np.random.default_rng(11).permutation(24)
    inverse = np.argsort(pi)

    def permute(tensors):
        stem = f"layers.0.experts.{expert}"
        for matrix in ("w_up", "w_act"):
            tensors[f"{stem}.{matrix}"] = tensors[f"{stem}.{matrix}"][pi]
        tensors[f"{stem}.w_down"] = tensors[f"{stem}.w_down"][:, pi]

    permuted = report("permute", permute)
    dynamic = [name for name in base if name.endswith(".csv") and name.startswith(
        ("act-ratio/", "avg-out-sim/", "out-sim/", "norm-rank/", "route-log/", "trace/"))]
    assert len(dynamic) == 8
    for name in dynamic:
        assert cells_agree(permuted[name], base[name], 1e-6), name

    models = [read_checkpoint(root / f"{stem}.moel") for stem in ("model", "permute")]
    reference = read_checkpoint(root / "reference.moel")
    for which in ("up", "act", "down"):
        name = f"reorder/reorder-{which}.csv"
        after = [[float(row.split(",")[5]) for row in data_lines(tree[name])[1:]]
                 for tree in (base, permuted)]
        assert np.allclose(*after, rtol=0, atol=1e-6), name
        stacks = [neuron_rows(layer_weights(model, 0, which, reference)[0], which)
                  for model in models]
        old, new = (pairwise_reorder_reports(rows) for rows in stacks)
        for (a, b), was, now in zip(itertools.combinations(range(len(stacks[0])), 2), old, new):
            # permutation[j] is the a-neuron matched to b-neuron j, and the
            # permuted expert's neuron j is the original's neuron pi[j].
            want = was.permutation[pi] if b == expert else \
                inverse[was.permutation] if a == expert else was.permutation
            assert np.array_equal(now.permutation, want), (which, a, b)

        outliers = []
        for stem in ("model", "permute"):
            out = root / f"pca-{stem}-{which}"
            assert run_command(["pca", "--model", str(root / f"{stem}.moel"), "--layer", "0",
                                "--which", which, "--level", "neuron", "--eps", "0.5",
                                "--out", str(out)]) == 0
            text = (out / f"pca-layer0-{which}-neuron.csv").read_text()
            outliers.append(set(re.search(r"# outliers: (.*)", text).group(1).split()))
        moved = {f"{expert}.{inverse[int(label.split('.')[1])]}"
                 if label.startswith(f"{expert}.") else label for label in outliers[0]}
        assert any(label.startswith(f"{expert}.") for label in moved), which
        assert outliers[1] == moved, which
