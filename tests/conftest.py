import os

import pytest

from soficapprox import profile
from soficapprox.chunk import parse_chunk_file

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


@pytest.fixture
def z2():
    return parse_chunk_file(data_path("z2.chunk"))


@pytest.fixture
def z3():
    return parse_chunk_file(data_path("z3.chunk"))


@pytest.fixture
def trivial():
    return parse_chunk_file(data_path("trivial.chunk"))


@pytest.fixture
def open2():
    return parse_chunk_file(data_path("open2.chunk"))


@pytest.fixture
def z4trace():
    return parse_chunk_file(data_path("z4trace.chunk"))


@pytest.fixture
def klein():
    return parse_chunk_file(data_path("klein.chunk"))


@pytest.fixture
def orbit_sizes(monkeypatch):
    """The size of every orbit the search walks, in call order."""
    sizes = []
    conjugates = profile._conjugates
    monkeypatch.setattr(profile, "_conjugates",
                        lambda g, gens: sizes.append(len(orbit := conjugates(g, gens))) or orbit)
    return sizes
