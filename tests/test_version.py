import re
from pathlib import Path

import knows_sidecar


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert knows_sidecar.__version__ == declared
