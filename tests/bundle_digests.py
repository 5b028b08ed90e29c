"""Byte-identity listing: run a fixed set of ``moe-lens`` commands and print
the sha256 of every file they write.

    PYTHONPATH=src python tests/bundle_digests.py EMPTY_DIR > digests.txt

The commands run in EMPTY_DIR with relative paths, so the ``# command:`` line
of every table is the same wherever the directory is.  Each line printed is
``sha256  path``, sorted by path.  What the commands print, and each one's
exit status, goes to ``transcript.txt`` there, which is listed too.
Running the script on two checkouts and diffing the two listings shows every
artifact a change alters.  The runs:

- ``report --ref`` on an identical-experts model (``upcycled --noise 0``), on
  a model of 2 and 4 experts, on the upcycled-wide benchmark shape and on the
  trace-long benchmark shape over a seeded 640-token corpus
- ``report`` on a ``--d-hid 1 --d-mid 1`` model, on a permuted-clone model
  and on a scratch model, whose reorder tables hold taus other than 1 and
  whose scratch pairs need scipy's assignment solver
- the README demo's ``report``, with and without ``--ref``
- a ``pca --eps 0.5`` grid on the identical-experts and upcycled-wide models:
  ``--which up|act|down``, ``--level matrix|neuron``, ``--dims 1|2|3``, with and
  without ``--no-standardize``
- neuron-level ``pca`` of every layer of a fine-grained model (64 routed
  experts of 88 neurons, 2 shared, top-6): ``--which up|act|down`` at
  ``--dims 3 --eps 0.1`` and at ``--dims 2 --eps 0.5``

pytest does not collect this file.  It takes about 5 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import shlex
import sys
from pathlib import Path

from moe_lens.cli import run_command

UPCYCLED = ["--mode", "upcycled", "--layers", "2", "--top-k", "2"]
MODELS = {
    "identical": [*UPCYCLED, "--seed", "3", "--noise", "0", "--experts", "4",
                  "--d-hid", "16", "--d-mid", "24", "--vocab", "11"],
    "two-four": [*UPCYCLED, "--seed", "4", "--noise", "0.3", "--experts", "2,4",
                 "--d-hid", "16", "--d-mid", "24", "--vocab", "11"],
    "tiny": ["--mode", "scratch", "--seed", "1", "--layers", "1", "--experts", "4",
             "--top-k", "2", "--d-hid", "1", "--d-mid", "1", "--vocab", "3"],
    "demo": [*UPCYCLED, "--seed", "7", "--noise", "0.3", "--experts", "4",
             "--d-hid", "32", "--d-mid", "64", "--vocab", "101"],
    "wide": [*UPCYCLED, "--seed", "5", "--noise", "0.3", "--experts", "8",
             "--d-hid", "128", "--d-mid", "256", "--vocab", "1024"],
    "long": [*UPCYCLED, "--seed", "5", "--noise", "0.3", "--experts", "4",
             "--d-hid", "32", "--d-mid", "64", "--vocab", "160"],
    "permuted": ["--mode", "permuted-clone", "--seed", "6", "--layers", "2", "--experts", "4",
                 "--top-k", "2", "--d-hid", "16", "--d-mid", "40", "--vocab", "11"],
    "scratch": ["--mode", "scratch", "--seed", "8", "--layers", "2", "--experts", "5",
                "--top-k", "2", "--d-hid", "16", "--d-mid", "24", "--vocab", "11"],
    "fg": ["--mode", "upcycled", "--seed", "9", "--noise", "0.3", "--layers", "2",
           "--experts", "64", "--shared", "2", "--top-k", "6", "--d-hid", "128",
           "--d-mid", "88", "--vocab", "512"],
}


def corpora() -> dict[str, list[list[int]]]:
    """Each model's corpus as lines of token ids; the benchmark shapes get a
    seeded one of their benchmark length."""
    rng = random.Random("corpus-5")
    seeded = {name: [rng.randrange(vocab) for _ in range(n)]
              for name, n, vocab in (("wide", 64, 1024), ("long", 640, 160))}
    small = [[0, 5, 7, 3, 9, 10], [2, 7, 7, 1]]
    return {**dict.fromkeys(("identical", "two-four", "permuted", "scratch"), small),
            "tiny": [[0, 1, 2]],
            "demo": [[0, 5, 17, 3, 99], [42, 7, 7, 23]],
            **{name: [tokens[i:i + 32] for i in range(0, len(tokens), 32)]
               for name, tokens in seeded.items()}}


def commands() -> list[list[str]]:
    """Every command, in run order: synth first, then the analyses."""
    runs = [["synth", *argv, "--out", name] for name, argv in MODELS.items()]

    def report(name, ref=True, out=None):
        return ["report", "--model", f"{name}/model.moel",
                *(["--ref", f"{name}/reference.moel"] if ref else []),
                "--corpus", f"corpora/{name}.txt", "--out", f"reports/{out or name}"]

    runs += [report(name) for name in ("identical", "two-four", "demo", "wide", "long")]
    runs += [report(name, ref=False) for name in ("tiny", "permuted", "scratch")]
    runs.append(report("demo", ref=False, out="demo-noref"))
    for name, which, level, dims, raw in itertools.product(
            ("identical", "wide"), ("up", "act", "down"), ("matrix", "neuron"), (1, 2, 3),
            (False, True)):
        out = f"pca/{name}/{which}-{level}-d{dims}{'-raw' if raw else ''}"
        runs.append(["pca", "--model", f"{name}/model.moel", "--which", which,
                     "--level", level, "--dims", str(dims), "--eps", "0.5",
                     *(["--no-standardize"] if raw else []), "--out", out])
    for which, (dims, eps) in itertools.product(("up", "act", "down"),
                                                 ((3, "0.1"), (2, "0.5"))):
        runs.append(["pca", "--model", "fg/model.moel", "--which", which, "--level", "neuron",
                     "--dims", str(dims), "--eps", eps,
                     "--out", f"pca/fg/{which}-d{dims}-eps{eps}"])
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 1
    os.chdir(root)
    os.mkdir("corpora")
    for name, lines in corpora().items():
        Path("corpora", f"{name}.txt").write_text(
            "".join(" ".join(map(str, line)) + "\n" for line in lines), encoding="utf-8")
    transcript = io.StringIO()
    with contextlib.redirect_stdout(transcript), contextlib.redirect_stderr(transcript):
        for command in commands():
            code = run_command(command)
            print(f"exit {code}: {shlex.join(command)}")
    Path("transcript.txt").write_text(transcript.getvalue(), encoding="utf-8")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
