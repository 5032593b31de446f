import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from folijet.atlas import load_atlas_file  # noqa: E402
from folijet.riemann import MetricField  # noqa: E402

ATLAS_DIR = pathlib.Path(__file__).resolve().parent.parent / "atlases"


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def atlas_dir():
    return ATLAS_DIR


@pytest.fixture(scope="session")
def cubic_atlas():
    return load_atlas_file(ATLAS_DIR / "cubic.json")


@pytest.fixture(scope="session")
def triple_atlas():
    return load_atlas_file(ATLAS_DIR / "triple.json")


@pytest.fixture(scope="session")
def plane_atlas():
    return load_atlas_file(ATLAS_DIR / "plane.json")


@pytest.fixture(scope="session")
def shear2_atlas():
    return load_atlas_file(ATLAS_DIR / "shear2.json")


@pytest.fixture(scope="session")
def flat_metric():
    return MetricField.from_components([["1"]], 1, name="flat")


@pytest.fixture(scope="session")
def exp_metric():
    return MetricField.from_components([["exp(x1)"]], 1, name="exp")


@pytest.fixture(scope="session")
def wavy_metric():
    return MetricField.from_components([["1 + 0.1*sin(x1)"]], 1, name="wavy")
