"""The CI workflow parses, and the Python it runs inline compiles.

The workflow only runs on a hosted runner, so a typo in it would first
show up there; this reads it the way the runner would.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# `python - <<'EOF'` ... `EOF`: the body is the script python reads from stdin
HEREDOC = re.compile(r"<<-?\s*'?(\w+)'?\n(.*?)\n\s*\1\n", re.S)
# `python3 -c '...'`
INLINE = re.compile(r"python3? -c '([^']*)'")


def _run_scripts() -> list[str]:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return [
        step["run"]
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "run" in step
    ]


def test_workflow_parses_into_jobs_with_steps():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert workflow["jobs"]
    for job in workflow["jobs"].values():
        assert job["runs-on"] and job["steps"]
        for step in job["steps"]:
            assert ("uses" in step) != ("run" in step), step


def test_inline_python_compiles():
    snippets = [
        body for script in _run_scripts()
        for body in [m.group(2) for m in HEREDOC.finditer(script)] + INLINE.findall(script)
    ]
    # the quick acceptance heredoc and the benchmark's result check
    assert len(snippets) >= 2
    for body in snippets:
        compile(body, str(WORKFLOW), "exec")
