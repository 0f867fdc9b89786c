"""Every published CLI byte of the golden ops, against tests/golden/cli.json.

See tests/golden/regen.py for what the ops are and how the hashes are made.
"""

import json

import numpy as np
import pytest

from golden import regen

GOLDEN = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
GROUPS = ("analyze-mix", "markov-scan", "amend-search", "readme")


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"hashes were made with numpy {GOLDEN['numpy']}, not {np.__version__}")
    return regen.replay(GOLDEN["seed"], tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("group", GROUPS)
def test_golden_replay(replayed, group):
    want = {k: v for k, v in GOLDEN["ops"].items() if k.startswith(group + "/")}
    got = {k: v for k, v in replayed.items() if k.startswith(group + "/")}
    assert want
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"{len(changed)} of {len(want)} ops changed: {changed[:10]}"
