import os

import pytest
from hypothesis import settings

from moogvcf import cli, integrators, native

# Under CI a failing property test prints its reproduce blob, so that the
# counterexample can be replayed locally with @reproduce_failure.  The
# profile inherits the active one (recent Hypothesis versions load their own
# "ci" profile when CI is set, older ones the default) and sets nothing else,
# so example counts and deadlines stay as they were.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def python_kernels(monkeypatch):
    """Make simulate run the Python kernels, the ones that a value injected
    through math.tanh reaches."""
    monkeypatch.setattr(integrators, "_dg_run", integrators._dg_run_python)
    monkeypatch.setattr(integrators, "_rk4_run", integrators._rk4_run_python)


@pytest.fixture(params=["native", "python"])
def kernels(request):
    """Run simulate on the C kernels (skipped where they did not load) or on
    the Python ones; the value is the kernel's name."""
    if request.param == "native" and native.lib is None:
        pytest.skip("the C kernels did not load")
    if request.param == "python":
        request.getfixturevalue("python_kernels")
    return request.param


@pytest.fixture(params=["native", "python"])
def renderer(request, monkeypatch):
    """Render simulate's CSV in C (skipped where native's renderer did not
    load) or in Python; the value is the renderer's name."""
    if request.param == "native":
        if native.render_rows is None:
            pytest.skip("the C renderer did not load")
        monkeypatch.setattr(cli, "_csv_rows", cli._csv_rows_native)
    else:
        monkeypatch.setattr(cli, "_csv_rows", cli._csv_rows_python)
    return request.param
