"""Fixtures shared by the test modules."""

import json

import pytest

from rootcoh import cli


@pytest.fixture
def cli_json(capsys):
    """``cli_json(*argv)`` runs ``rootcoh ARGV --format json`` and returns
    the document it prints."""

    def run(*argv):
        cli.main([*argv, "--format", "json"])
        return json.loads(capsys.readouterr().out)

    return run
