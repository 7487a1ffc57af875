"""Golden standing-rule runs: every small-grid run in tests/golden keeps
its artifacts' bytes (manifest `files`: path, SHA-256, bytes) at
`--seed 7`.  A change that moves them on purpose reruns
`tests/golden/regen.py`, which prints the files that changed."""
import pytest

from golden.regen import goldens, moved, run

GOLDENS = goldens()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifacts_keep_their_bytes(name, tmp_path):
    golden = GOLDENS[name]
    assert golden["files"], "no files recorded: run tests/golden/regen.py"
    changed = moved(golden["files"], run(golden, tmp_path))
    assert not changed, f"{name}: files moved: {changed}"
