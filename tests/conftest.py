import pytest

from selogic import unfocused
from selogic.parsing import parse_signature


@pytest.fixture(scope="session")
def sig():
    """Two bounded labels under one unbounded top, enough for every rule."""
    return parse_signature(
        "labels: u v inf\nunbounded: inf\norder: u <= inf, v <= inf"
    )


@pytest.fixture()
def walks(monkeypatch):
    """The certificates the checking walk starts on, in call order."""
    walked = []
    walk = unfocused.checked_nodes
    monkeypatch.setattr(
        unfocused, "checked_nodes", lambda *args: walked.append(args[3]) or walk(*args)
    )
    return walked
