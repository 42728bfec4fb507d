"""The docs name only job scripts that exist."""
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_named_jobs_exist(doc):
    with open(os.path.join(ROOT, doc)) as f:
        named = set(re.findall(r"jobs/\w+\.py", f.read()))
    assert named, f"{doc} names no job script"
    missing = sorted(
        p for p in named if not os.path.isfile(os.path.join(ROOT, p))
    )
    assert not missing, f"{doc} names missing job scripts: {missing}"
