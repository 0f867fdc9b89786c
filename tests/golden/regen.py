"""Golden replay of the `ebchan` CLI: one sha256 per op.

The ops are every CLI invocation of the three `perfbench.workloads` pools
at one seed, plus the `ebchan` examples of the README, verbatim (the
channel-file example of the README is their `my_channel.json`).  Each op
runs through in-process `ebchannels.cli.main` in a fresh work directory.
Its hash covers the exit code, stdout, stderr (the work directory
replaced by `$WORK`) and the bytes of its output file.  The amendment
report's `prng` field names the numpy version, so the hashes hold for
the numpy version they were made with.

`tests/test_golden.py` replays the seed-101 pools against `cli.json`.
Rewrite that file only in a change that alters published output on
purpose, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

`--seed N --out PATH` writes the hashes of another seed's pools elsewhere,
to compare two checkouts beyond the checked-in seed.  `--seed` may repeat;
with several seeds each key starts with its seed, so one command per
checkout and a `cmp` of the two files compare seeds 101-105:

    PYTHONPATH=src python tests/golden/regen.py --seed 101 --seed 102 \
        --seed 103 --seed 104 --seed 105 --out /tmp/seeds.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from ebchannels import cli

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli.json"
SEED = 101

# the README's channel-file example and the `ebchan` lines of its CLI
# block, continuation lines joined
README_CHANNEL = """{
  "n": [0.0, 0.0, 0.1],
  "M": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.4]],
  "metadata": {"name": "optional"}
}
"""
README_COMMANDS = (
    "ebchan analyze --preset identity",
    "ebchan analyze --preset depolarizing:0.3333333333333333",
    "ebchan analyze --channel my_channel.json",
    "ebchan markov --family depolarization --T 1 --t-max 3 --steps 301 --output depol.csv",
    "ebchan markov --family decoherence --T 1 --omega 5 --t-max 50 --output deco.csv",
    "ebchan markov --family homogenization --T1 1 --T2 1 --w 0.5 --t-max 5 "
    "--steps 200 --output homog.csv",
    "ebchan amend local --preset seb-example --layers 3 --trials 1000 --seed 7",
    "ebchan amend global-example",
)


def ops(seed: int, work: Path) -> dict[str, list[str]]:
    """argv of every op by key, with their input files written to `work`."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = {}
    for name in workloads.WORKLOADS:
        load = workloads.generate(name, seed, work)
        for i, op in enumerate(load.ops):
            argvs[f"{name}/{i:03d}-{op.kind}"] = list(op.argv)
    (work / "my_channel.json").write_text(README_CHANNEL, encoding="utf-8")
    for command in README_COMMANDS:
        argvs[f"readme/{command}"] = shlex.split(command)[1:]
    return argvs


def _digest(argv: list[str], work: Path) -> str:
    output = work / argv[argv.index("--output") + 1] if "--output" in argv else None
    if output is not None:
        output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    place = str(work)
    h = hashlib.sha256(
        json.dumps(
            [code, out.getvalue().replace(place, "$WORK"), err.getvalue().replace(place, "$WORK")]
        ).encode()
    )
    if output is not None and output.exists():
        h.update(b"\0file\0" + output.read_bytes())
    return h.hexdigest()


def replay(seed: int, work: Path) -> dict[str, str]:
    """sha256 of every op by key; relative paths resolve inside `work`."""
    argvs = ops(seed, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {key: _digest(argv, work) for key, argv in argvs.items()}
    finally:
        os.chdir(cwd)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args()
    seeds = args.seed or [SEED]
    if len(seeds) > 1 and args.out == GOLDEN:
        parser.error(f"several seeds need an --out other than {GOLDEN}")
    hashes = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            replayed = replay(seed, Path(tmp))
        prefix = f"{seed}:" if len(seeds) > 1 else ""
        hashes.update({prefix + key: value for key, value in replayed.items()})
    if len(seeds) > 1:
        record = {"numpy": np.__version__, "seeds": seeds, "ops": hashes}
    else:
        record = {"numpy": np.__version__, "seed": seeds[0], "ops": hashes}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(hashes)} ops -> {args.out}")


if __name__ == "__main__":
    main()
