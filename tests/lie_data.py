"""Lie test data as the constructors keep it: tuples of Fractions at every level.

A helper module, not collected by pytest.  The constructors convert nothing
and only peiffer.io parses rationals, so fixtures go through io.mat.
"""
from peiffer.io import mat


def mats(values):
    """A list of matrices of rationals as a tuple of tuples of tuples of Fractions."""
    return tuple(map(mat, values))
