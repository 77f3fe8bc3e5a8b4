"""Fixtures shared across test modules."""

import json
from types import SimpleNamespace

import pytest

from bouex import cli


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """One `bouex verify --suite smoke --seed 123` run for the whole session.

    The smoke suite takes about 8 s on a 2-core host, and both the suite
    test and the CLI test read it.  Holds the exit code, the parsed JSON report and the
    CheckReport objects that `run_suite` returned inside that CLI run.
    """
    reports = []

    def recording_run_suite(*args, **kwargs):
        reports.extend(run_suite(*args, **kwargs))
        return reports

    run_suite = cli.run_suite
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_suite", recording_run_suite)
        code = cli.main(["verify", "--suite", "smoke", "--seed", "123", "-o", str(out)])
    return SimpleNamespace(code=code, json=json.loads(out.read_text()), reports=reports)
