import numpy as np
import pytest

from edarp import FleetParams, generate_instance


@pytest.fixture
def tiny_instance():
    """Two requests, one charger, two vehicles; oracle-enumerable."""
    return generate_instance(2, charger_count=1,
                             fleet=FleetParams(vehicles=2, capacity=3),
                             seed=11)


@pytest.fixture
def small_instance():
    return generate_instance(5, charger_count=1,
                             fleet=FleetParams(vehicles=2, capacity=3),
                             seed=23)


@pytest.fixture
def tight_fleet():
    """A fleet whose battery binds: the reserve rule blocks real candidates."""
    return FleetParams(battery_kwh=4.0, soc_reserve=0.3)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
