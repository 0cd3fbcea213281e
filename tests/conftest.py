import sys

import numpy as np
import pytest

import vilenkin as vk


@pytest.fixture(scope="session")
def walsh():
    return vk.number_system([2] * 6)


@pytest.fixture(scope="session")
def mixed():
    return vk.number_system([2, 3, 4, 2])


@pytest.fixture(params=["walsh", "mixed"])
def ns(request, walsh, mixed):
    return {"walsh": walsh, "mixed": mixed}[request.param]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def count_calls(monkeypatch):
    """Wrap a vilenkin function on every module that binds it, or a method on its class.

    Returns a function that installs the wrapper for one name (a method when
    cls is given; a function of vilenkin.group unless module is given) and
    gives back the list its calls are appended to.
    """
    from vilenkin import group

    def install(name, cls=None, module=group):
        original = getattr(module if cls is None else cls, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if cls is not None:
            monkeypatch.setattr(cls, name, counted)
            return calls
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod_name == "vilenkin" or mod_name.startswith("vilenkin.")) \
                    and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install


@pytest.fixture()
def staged_passes(monkeypatch):
    """Record (resolution, analysis) for each transform._staged call made inside transform.

    The binding in oscillation (difference_condition) is left alone, so the
    list holds the passes of the means, kernels and convolutions only.
    """
    from vilenkin import transform

    original = transform._staged
    calls = []

    def counted(values, ns, resolution, analysis, **kwargs):
        calls.append((resolution, analysis))
        return original(values, ns, resolution, analysis, **kwargs)

    monkeypatch.setattr(transform, "_staged", counted)
    return calls
