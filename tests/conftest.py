import dataclasses

import numpy as np
import pytest

from geoflow import manifolds


@pytest.fixture(scope="session")
def s2():
    return manifolds.sphere(2, 1.0)


@pytest.fixture(scope="session")
def s4():
    return manifolds.sphere(4, 1.0)


@pytest.fixture(scope="session")
def torus2():
    return manifolds.flat_torus(2)


@pytest.fixture(scope="session")
def h2():
    return manifolds.hyperbolic(2, 1.0)


@pytest.fixture(scope="session")
def elli():
    return manifolds.ellipsoid(1.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def elli3():
    # triaxial: every chart has three different semi-axes
    return manifolds.ellipsoid(1.0, 1.5, 2.0)


@pytest.fixture(scope="session")
def s2xs2():
    return manifolds.sphere_product(2, 2, 1.0, 1.0)


@pytest.fixture(scope="session")
def factor_free():
    """Builds a copy of a model without its curvature factors, so that its
    curvature comes from the metric jet: the finite-difference oracle of the
    closed forms."""
    return lambda model: dataclasses.replace(model, factors=())


@pytest.fixture(scope="session")
def varying():
    """Builds a copy of a model whose curvature factors are not constant but
    give the same curvature through a function, so that nothing is taken
    from the curvature being constant: the model is neither isotropic nor
    homogeneous."""
    return lambda model: dataclasses.replace(model, factors=tuple(
        dataclasses.replace(f, function=f.curvature) for f in model.factors))


def _wavy_metric(x):
    # smooth non-constant SPD metric on a single chart
    return np.array([
        [1.0 + 0.1 * np.sin(x[1]), 0.05 * np.cos(x[0])],
        [0.05 * np.cos(x[0]), 1.0 + 0.1 * np.cos(x[0])],
    ])


@pytest.fixture(scope="session")
def wavy():
    return manifolds.chart_metric(
        _wavy_metric, 2, domain=[[-8.0, 8.0], [-8.0, 8.0]], name="wavy")


@pytest.fixture(scope="session")
def all_models(s2, torus2, h2, elli, s2xs2, wavy):
    return {
        "sphere": s2,
        "torus": torus2,
        "hyperbolic": h2,
        "ellipsoid": elli,
        "sphereprod": s2xs2,
        "chart-metric": wavy,
    }
