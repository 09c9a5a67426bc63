"""Keep the narrative demo scripts runnable."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_quick_start_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "mc_conditional_check" in code and "assert report.passed" in code
    exec(compile(code, "README.md", "exec"), {})
