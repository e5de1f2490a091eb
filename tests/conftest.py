import copy
import json
import os
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import centroid_sections
from centroid_sections import RunConfig, get_context, run_construction


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for a fresh interpreter that imports this checkout's
    package, however pytest itself found it."""
    src = str(Path(centroid_sections.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture(scope="session")
def ctx5():
    """Shared default-parameter construction context (n=5, auto a)."""
    return get_context(RunConfig())


@pytest.fixture(scope="session")
def cold():
    """cold(ctx): a shallow copy of a context whose sweep store is empty,
    so that its sweeps sum b_M and the section volumes afresh, and fill
    the copy's store alone."""
    def copy_with_empty_store(ctx):
        out = copy.copy(ctx)
        out._swept = np.empty((3, 0))
        return out
    return copy_with_empty_store


@pytest.fixture
def tolerance(monkeypatch):
    """tolerance(name, value): the package tolerance name set to value for
    the rest of one test."""
    def set_tolerance(name, value):
        monkeypatch.setattr(RunConfig, "tolerances", MappingProxyType(
            {**RunConfig.tolerances, name: value}))
    return set_tolerance


@pytest.fixture(scope="session")
def construct_result(ctx5):
    """One full default construction run shared across tests."""
    return run_construction(RunConfig())


@pytest.fixture(scope="session")
def cert5(construct_result):
    return construct_result["certificate"]


@pytest.fixture(scope="session")
def cli_outdir(tmp_path_factory):
    """Default cmd_construct output tree, produced once via the CLI."""
    from centroid_sections import cli

    out = tmp_path_factory.mktemp("construct")
    rc = cli.main(["construct", "--outdir", str(out)])
    assert rc == 0, "default construct must succeed"
    assert json.loads((out / "certificate.json").read_text())["valid"]
    return out
