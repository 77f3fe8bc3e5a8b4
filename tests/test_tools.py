"""The repository's measuring tools, run as their users run them."""

import importlib.util
import os
import subprocess
import sys
import textwrap

_TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

# 9 code lines: the import, the two-line def, the two-line string and the
# four-line call; the docstrings, comments and blank lines are not code
_MODULE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""
    # a comment

    import os

    TEXT = """one
    two"""


    def join(a,
             b):  # a trailing comment
        """Function docstring."""
        return os.path.join(
            a,
            b,
        )
    ''')


def _code_lines(*paths):
    out = subprocess.run([sys.executable, os.path.join(_TOOLS, "code_lines.py"), *paths],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return [line.split(None, 1) for line in out.stdout.splitlines()]


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(_MODULE)
    assert _code_lines(str(module)) == [["9", str(module)]]
    (tmp_path / "other.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert _code_lines(str(tmp_path)) == [["9", str(module)], ["1", str(tmp_path / "other.py")],
                                          ["10", "total"]]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  os.path.join(_TOOLS, "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_run(workload, pair, side, failed, **values):
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"failed": failed,
                       "metrics": {k: {"value": v} for k, v in values.items()}}}


def test_bench_pairs_summary_counts_pairs_won_by_direction():
    # wall_s (lower is better) is tied in pair 2, so the change wins pair 1
    # only; atoms (higher is better) is won in pairs 1 and 2 and tied in 3;
    # runs are paired by their pair number, not by their order in the list
    parent = [(1.0, 10), (2.0, 10), (3.0, 10)]
    change = [(0.5, 11), (2.0, 12), (3.5, 10)]
    runs = [_bench_run("a", p, side, p == 3 and side == "change", wall_s=w, atoms=n)
            for side, vals in (("change", change), ("parent", parent))
            for p, (w, n) in reversed(list(enumerate(vals, 1)))]
    runs += [_bench_run("b", 1, "parent", 2, wall_s=4.0, atoms=3),
             _bench_run("b", 1, "change", 0, wall_s=5.0, atoms=3)]
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower", "atoms": "higher"})
    assert list(summary) == ["a", "b"]
    a, b = summary["a"], summary["b"]
    assert a["wall_s"] == {"parent_median": 2.0, "parent_q1": 1.0, "parent_q3": 3.0,
                           "change_median": 2.0, "change_q1": 0.5, "change_q3": 3.5,
                           "pairs_won_by_change": 1, "pairs": 3}
    assert a["atoms"]["pairs_won_by_change"] == 2
    assert a["failed_ops"] == {"parent": 0, "change": 1}
    # a single pair: its value is the median and both quartiles
    assert b["wall_s"] == {"parent_median": 4.0, "parent_q1": 4.0, "parent_q3": 4.0,
                           "change_median": 5.0, "change_q1": 5.0, "change_q3": 5.0,
                           "pairs_won_by_change": 0, "pairs": 1}
    assert b["atoms"]["pairs_won_by_change"] == 0
    assert b["failed_ops"] == {"parent": 2, "change": 0}
