"""The README's documented commands, run as written.

Every `moogvcf ...` line of the README's `sh` blocks, and each heredoc
(`cat > FILE <<'TAG'`) they hold, runs in README order through cli.main, in
a temporary directory that holds a copy of specs/.  A `| grep PATTERN` after
a command keeps the output lines that contain PATTERN.  The checks are the
ones the README promises: exit codes, row counts and finite values, the DG
energy contract (dv <= 1e-10), three Threshold rows, closed-form against
numeric eigenvalues within 1e-10, and two runs of the bundled sweep equal
byte for byte.
"""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import shlex
import shutil

import pytest

from moogvcf.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_script():
    """[("heredoc", name, text) or ("run", line, argv, grep pattern or None)]."""
    text = (ROOT / "README.md").read_text()
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        lines = iter(block.splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line.strip())
            if heredoc:
                name, tag = heredoc.groups()
                body = []
                for inner in lines:
                    if inner.strip() == tag:
                        break
                    body.append(inner + "\n")
                steps.append(("heredoc", name, "".join(body)))
            elif line.startswith("moogvcf "):
                words = shlex.split(line, comments=True)
                grep = None
                if "|" in words:
                    pipe = words.index("|")
                    assert words[pipe + 1] == "grep" and len(words) == pipe + 3, line
                    words, grep = words[:pipe], words[pipe + 2]
                steps.append(("run", line.split("#")[0].strip(), words[1:], grep))
    return steps


def run_cli(argv):
    """(exit code, stdout) of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def readme(tmp_path_factory):
    """The working directory and {command line: (exit code, stdout)}."""
    work = tmp_path_factory.mktemp("readme")
    shutil.copytree(ROOT / "specs", work / "specs")
    runs = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for step in readme_script():
            if step[0] == "heredoc":
                (work / step[1]).write_text(step[2])
                continue
            _, line, argv, grep = step
            code, out = run_cli(argv)
            if grep is not None:
                out = "".join(row for row in out.splitlines(True) if grep in row)
            runs[line] = code, out
    finally:
        os.chdir(cwd)
    return work, runs


def csv_rows(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, [[float(v) for v in row] for row in rows]


def check_trajectory(header, rows, n_rows):
    assert len(rows) == n_rows
    assert all(math.isfinite(v) for row in rows for v in row)
    if "dv" in header:  # the DG contract: V never rises by more than 1e-10
        column = header.index("dv")
        assert max(row[column] for row in rows) <= 1e-10


def test_every_readme_command_exits_0(readme):
    _, runs = readme
    assert len(runs) == 12
    assert {line: code for line, (code, _) in runs.items() if code != 0} == {}


def test_readme_eig_closed_form_matches_numeric(readme):
    _, runs = readme
    code, out = runs["moogvcf eig --omega0 1 --r 0.5"]
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    closed = [complex(float(re_), float(im)) for src, _, re_, im in rows if src == "closed"]
    numeric = [complex(float(re_), float(im)) for src, _, re_, im in rows if src == "numeric"]
    assert len(closed) == len(numeric) == 4
    assert max(abs(a - b) for a, b in zip(closed, numeric)) <= 1e-10
    # the JSON form, at r = 0.5 and on the r = 0 branch
    gaps = []
    for r in ("0.5", "0"):
        code, out = run_cli(["eig", "--omega0", "1", "--r", r, "--format", "json"])
        assert code == 0
        spec = json.loads(out)
        gaps += [abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"]))
                 for a, b in zip(spec["closed"], spec["numeric"], strict=True)]
    assert len(gaps) == 8 and max(gaps) <= 1e-10


def test_readme_certify_threshold_rows(readme):
    _, runs = readme
    code, out = runs["moogvcf certify --families As,Bs,QsWorstCase --r-grid 0:1:0.01 "
                     "| grep Threshold"]
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["As", "Bs", "QsWorstCase"]
    assert all(row.endswith(",Threshold") for row in out.splitlines())


@pytest.mark.parametrize("line, n_rows", [
    ("moogvcf simulate --omega0 100 --r 0.9 --x0 1,1,-1,0.5 --dt 0.1 --steps 1000 --method dg",
     1001),
    ("moogvcf simulate --omega0 1 --r 0.5 --x0 1,0,0,0 --dt 0.001 --steps 5000 --method rk4",
     5001),
    ("moogvcf simulate --omega0 1 --r 0 --x0 2.5,-4,1,3.3 --dt 10 --steps 200", 201),
], ids=["dg", "rk4", "dg-r0-stiff"])
def test_readme_simulate_rows(readme, line, n_rows):
    _, runs = readme
    code, out = runs[line]
    header, rows = csv_rows(out)
    assert header[:7] == ["t", "x1", "x2", "x3", "x4", "v", "vdot"]
    assert ("dv" in header) == ("rk4" not in line)
    check_trajectory(header, rows, n_rows)


def test_readme_plotting_trajectory(readme):
    work, runs = readme
    assert runs["moogvcf simulate --omega0 1 --r 0.99 --x0 3,3,-3,3 --dt 0.05 --steps 2000 "
                "--out traj.csv"] == (0, "")
    check_trajectory(*csv_rows((work / "traj.csv").read_text()), 2001)


def test_readme_decay_study(readme):
    work, _ = readme
    result = json.loads((work / "decay_result.json").read_text())
    assert len(result["decay"]) == 32
    assert result["all_pass"] is True


def test_readme_fullrange_sweep(readme):
    # the bundled spec end to end: every check passes at the known family
    # boundaries, and the two documented runs are equal byte for byte
    work, runs = readme
    written = (work / "result.json").read_bytes()
    code, out = runs["moogvcf sweep --spec specs/fullrange.json"]
    assert code == 0 and out.encode() == written
    data = json.loads(written)
    assert data["all_pass"] is True
    assert len(data["reports"]) == 3 * 50
    assert len(data["decay"]) == 100
    assert abs(data["thresholds"]["As"] - 5.0 / 12.0) < 1e-6
    assert abs(data["thresholds"]["Bs"] - 1.0) < 1e-6
    assert abs(data["thresholds"]["QsWorstCase"] - 1.0) < 1e-6
