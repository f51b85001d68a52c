"""Golden digests: every file ``fedclip run`` writes for the configs in
``tests/golden/`` must keep its recorded sha256, bit for bit.

Between them the configs cover all three alpha~ methods, every noise mode,
privacy at the auto threshold, model clipping at ``local_steps: inf``,
replayed minibatch phases at ``local_steps: inf`` that stop on different
steps and draw over the gradient bound, unequal-row linear regression,
replicates, ten-client federations (a pairwise client sum rounds
differently from eight clients on), and an MLP whose batched gradient runs
in several chunks of rows, the last one partial.
``test_table1_subcommand`` pins ``fedclip table1``'s grid the same way.
Re-record with ``tests/record_golden.py``.
"""

import json

import pytest

from record_golden import DIGESTS, configs, run_digests, version_mismatch

RECORDED = json.loads(DIGESTS.read_text())


def test_every_config_is_recorded():
    assert sorted(c.stem for c in configs()) == sorted(RECORDED["runs"])


@pytest.mark.parametrize("config", configs(), ids=lambda p: p.stem)
def test_artifacts_match_golden_digests(config, tmp_path):
    reason = version_mismatch(RECORDED)
    if reason:
        pytest.skip(reason)
    assert run_digests(config, tmp_path / "out") == RECORDED["runs"][config.stem]
