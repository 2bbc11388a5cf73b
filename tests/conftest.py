import os

import pytest

from vmcone import RunConfig, run
from vmcone.report import diagnose_report

# gentle shell datum whose support edge stays clear of the default probe
# radii for the whole run; used by the desk-scale acceptance checks
DESK_DATUM_PARAMS = {
    "amplitude": 10.0,
    "r_support": [0.3, 0.6],
    "w_max": 0.06,
    "q_support": [0.0004, 0.0008],
}


def desk_config(**overrides):
    kwargs = dict(datum_name="shell_polynomial",
                  datum_params=dict(DESK_DATUM_PARAMS),
                  resolution=(32, 32, 32), n_shells=512,
                  dv=0.005, v_final=5.0)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def small_config(**overrides):
    kwargs = dict(datum_name="shell_polynomial",
                  datum_params=dict(DESK_DATUM_PARAMS),
                  resolution=(12, 12, 12), n_shells=256,
                  dv=0.01, v_final=3.0)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.fixture(scope="session")
def desk_history():
    return run(desk_config())


@pytest.fixture(scope="session")
def desk_report(desk_history):
    return diagnose_report(desk_history)


@pytest.fixture(scope="session")
def small_history():
    return run(small_config())


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After every test no child process is left, running or unreaped: a
    run reaps its worker, and a test reaps what it starts."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
