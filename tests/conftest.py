import pytest

import curvedual as cd
from curvedual.artin import ext_lab_instance


@pytest.fixture(autouse=True)
def no_kept_lab():
    """Each test starts with no Ext lab kept, so a test that patches
    the lab's internals builds its own lab, whatever ran before it."""
    ext_lab_instance.cache_clear()


@pytest.fixture(scope="session")
def qq():
    return cd.rationals()


@pytest.fixture(scope="session")
def f2():
    return cd.prime_field(2)


@pytest.fixture(scope="session")
def f5():
    return cd.prime_field(5)


@pytest.fixture(scope="session")
def named(qq):
    return {name: cd.named_ring(qq, name) for name in cd.curve_names()}


@pytest.fixture(scope="session")
def cusp(named):
    return named["cusp"]


@pytest.fixture(scope="session")
def node(named):
    return named["node"]


@pytest.fixture(scope="session")
def tacnode(named):
    return named["tacnode"]


@pytest.fixture(scope="session")
def r345(qq):
    return cd.build(cd.semigroup_spec(qq, (3, 4, 5)))


@pytest.fixture
def scale_calls(monkeypatch):
    """Counts the calls of `FracIdeal.scale` per (module, multiplier)
    pair, keyed (id of the module, multiplier); the modules are kept
    alive so that their ids stay distinct."""
    from collections import Counter

    from curvedual.fracideal import FracIdeal

    calls, modules = Counter(), []
    scale = FracIdeal.scale

    def counting(self, x):
        modules.append(self)
        calls[id(self), x] += 1
        return scale(self, x)

    monkeypatch.setattr(FracIdeal, "scale", counting)
    return calls
