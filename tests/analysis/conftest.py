"""Shared fixtures for the analysis tests."""

import pytest

from repro.analysis import run_repo_analysis


@pytest.fixture(scope="session")
def default_report():
    """One run of the default passes (edl, sim, flow) over the real
    tree, shared by the read-only checks of it."""
    return run_repo_analysis()
