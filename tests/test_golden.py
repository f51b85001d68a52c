"""Golden digests: every file ``fedclip run`` writes for the configs in
``tests/golden/`` must keep its recorded sha256, bit for bit.

Between them the configs cover all three alpha~ methods, every noise mode,
privacy at the auto threshold, model clipping at ``local_steps: inf``,
unequal-row linear regression, replicates and a ten-client federation (a
pairwise client sum rounds differently from eight clients on).
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
