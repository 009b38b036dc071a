"""Fixtures shared by the test modules."""

import importlib.util
import os
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

from altcox import cli

C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "altcox" / "_tc_core.c"

# every property test draws the same examples on every run, and keeps no
# example database between runs
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts with nothing kept from the requests of another."""
    cli._memo.clear()


@pytest.fixture(scope="session")
def c_core(tmp_path_factory):
    """The compiled core: the installed extension, else one built from
    _tc_core.c into a temporary directory.  Skips only without a C compiler."""
    try:
        from altcox._tc_core import enumerate_core
        return enumerate_core
    except ImportError:
        pass
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the compiled core")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    out = tmp_path_factory.mktemp("tc_core")
    cmd = build_ext(Distribution(
        {"ext_modules": [Extension("altcox._tc_core", [str(C_SOURCE)])]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "altcox._tc_core", cmd.get_ext_fullpath("altcox._tc_core"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.enumerate_core
