import pytest

from hardyq.groups import Character, make_character, make_group
from hardyq.invariants import basic_map


@pytest.fixture(scope="session")
def g112():
    return make_group("G(1,1,2)")


@pytest.fixture(scope="session")
def g113():
    return make_group("G(1,1,3)")


@pytest.fixture(scope="session")
def g212():
    return make_group("G(2,1,2)")


@pytest.fixture(scope="session")
def g222():
    return make_group("G(2,2,2)")


@pytest.fixture(scope="session")
def g315():
    return make_group("G(3,1,5)")


@pytest.fixture(scope="session")
def sgn112(g112):
    return make_character(g112, "sgn")


@pytest.fixture(scope="session")
def triv112(g112):
    return make_character(g112, "trivial")


@pytest.fixture(scope="session")
def bm112(g112):
    return basic_map(g112)


@pytest.fixture
def no_element_tables(monkeypatch):
    """Make every Character's per-element numerators raise on use."""

    def forbidden(*args):
        raise AssertionError("group elements enumerated")

    monkeypatch.setattr(Character, "element_nums", forbidden)
