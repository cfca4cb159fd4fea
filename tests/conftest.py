import os
import tempfile

import pytest

from pins import PINNED_CORE, blas_core
from rk_error_lab import ButcherTableau


def pytest_report_header():
    return f"OpenBLAS core: {blas_core()} (tests/pins.py was taken under {PINNED_CORE})"


@pytest.fixture(autouse=True)
def _removes_only_temporary_files(monkeypatch, tmp_path_factory):
    """``os.remove`` of a path outside the temporary directories fails the
    test and removes nothing, since the suite may run as root, where a wrong
    removal deletes a device node such as ``/dev/null``.  A path's directory
    is resolved, not the path: removing a symlink removes the link.  A test
    may still replace ``os.remove`` with a recorder.  ``os.unlink`` is left
    alone: ``shutil.rmtree`` calls it with ``dir_fd`` and relative names."""
    roots = [os.path.realpath(d) for d in (tempfile.gettempdir(),
                                           tmp_path_factory.getbasetemp())]
    remove = os.remove

    def guarded(path):
        path = os.fspath(path)
        where = os.path.join(os.path.realpath(os.path.dirname(path)),
                             os.path.basename(path))
        if not any(os.path.commonpath([root, where]) == root for root in roots):
            pytest.fail(f"os.remove({path!r}) outside the temporary directories")
        remove(path)
    monkeypatch.setattr(os, "remove", guarded)


@pytest.fixture
def rk4_three_eighths():
    """Kutta's 3/8-rule method: it shares only its first stage with Kutta's
    third-order method (c2 = 1/3, not 1/2), and its stage 3 and 4 rows have
    more than one nonzero coefficient."""
    return ButcherTableau(
        name="rk4_38",
        a=[[0.0, 0.0, 0.0, 0.0], [1 / 3, 0.0, 0.0, 0.0],
           [-1 / 3, 1.0, 0.0, 0.0], [1.0, -1.0, 1.0, 0.0]],
        b=[1 / 8, 3 / 8, 3 / 8, 1 / 8], c=[0.0, 1 / 3, 2 / 3, 1.0], z=4)
