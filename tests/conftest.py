"""Fixtures shared by the test modules."""

import json

import pytest

from rootcoh import cli

#: The degrees d_i of W (Humphreys, Reflection Groups and Coxeter Groups,
#: section 3.15); |W| is their product and the Poincare polynomial
#: sum_w t^l(w) is prod_i (1 + t + ... + t^(d_i - 1)).
WEYL_DEGREES = {
    "A1": (2,), "A2": (2, 3), "A3": (2, 3, 4),
    "B2": (2, 4), "C2": (2, 4), "B3": (2, 4, 6), "C3": (2, 4, 6),
    "G2": (2, 6), "D4": (2, 4, 4, 6), "B4": (2, 4, 6, 8), "F4": (2, 6, 8, 12),
}


def poincare(degrees):
    """Coefficients of ``prod_i (1 + t + ... + t^(d_i - 1))``, from ``t^0``."""
    coeffs = [1]
    for d in degrees:
        coeffs = [sum(coeffs[max(0, k - d + 1):k + 1]) for k in range(len(coeffs) + d - 1)]
    return coeffs


@pytest.fixture
def cli_json(capsys):
    """``cli_json(*argv)`` runs ``rootcoh ARGV --format json`` and returns
    the document it prints."""

    def run(*argv):
        cli.main([*argv, "--format", "json"])
        return json.loads(capsys.readouterr().out)

    return run
