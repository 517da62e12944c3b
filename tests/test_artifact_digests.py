"""The reference artifact set stays byte-identical to the digests kept beside its tool."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_reference_artifacts_match_the_recorded_digests(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOLS / "artifact_digests.py"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == (TOOLS / "artifact_digests.sha256").read_text().splitlines(), (
        "the artifacts differ from tools/artifact_digests.sha256; if the change is meant, regenerate it with "
        "`python tools/artifact_digests.py OUT > tools/artifact_digests.sha256`, OUT a new directory"
    )
