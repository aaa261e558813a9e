"""README examples run as written: every `$ diffsets ...` block of the Command
line section, in a fresh directory, and the Python snippets of the Library
quick start."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diffsets

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text, lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def _sessions():
    """(command, expected stdout lines) for each `$ ` line, `\\` continuations
    joined, in the order the README runs them."""
    runs = []
    for block in _blocks(_section("Command line")):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ "):
                cmd = line[2:]
                while cmd.endswith("\\"):
                    cmd = cmd[:-1] + next(lines).strip()
                runs.append((cmd, []))
            elif line.strip():
                runs[-1][1].append(line)
    return runs


def test_command_line_examples(tmp_path):
    runs = _sessions()
    assert len(runs) >= 9
    src = str(Path(diffsets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
    for cmd, want in runs:
        # each command line, diffsets run as the module, in bash for its
        # echo redirects and for loops
        line = re.sub(r"\bdiffsets (?=\w)", f"{sys.executable} -m diffsets.cli ", cmd)
        out = subprocess.run(["bash", "-c", line], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (0, ""), cmd
        assert out.stdout.splitlines() == want, cmd


def test_library_snippets():
    """Each print's output is its comment, or the comment's text before
    `...` as a prefix (1.7320... for the integral's float)."""
    code = "\n".join(_blocks(_section("Library quick start"), "python"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, flags=re.M)
    got = out.getvalue().splitlines()
    assert len(got) == len(comments) == 4
    for line, comment in zip(got, comments):
        if "..." in comment:
            assert line.startswith(comment.split("...")[0]), (line, comment)
        else:
            assert line == comment
