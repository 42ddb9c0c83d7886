import math
import re

import pytest


@pytest.fixture(scope="session")
def count_scalar_calls():
    """Wrap the ``fn`` of each given cocycle in one shared call counter and
    return the counter (a one-element list).  A product or polar part calls
    its factors through their ``fn``, so every scalar evaluation anywhere in
    the family is counted."""

    def wrap(cocycles) -> list:
        calls = [0]
        for c in cocycles:

            def counted(s, t, fn=c.fn):
                calls[0] += 1
                return fn(s, t)

            object.__setattr__(c, "fn", counted)  # Cocycle is frozen
        return calls

    return wrap


@pytest.fixture(scope="session")
def on_group():
    """Adapt a cocycle spec to a group: on a ``Zn:`` group each
    ``bichar:{theta}`` is raised to the next multiple of 2 pi / gcd(n_first,
    n_last), the thetas that are cocycles there; other groups keep the spec."""

    def adapt(group_spec: str, spec: str) -> str:
        if not group_spec.startswith("Zn:"):
            return spec
        orders = [int(n) for n in group_spec.split(":", 1)[1].split("x")]
        step = 2.0 * math.pi / math.gcd(orders[0], orders[-1])
        return re.sub(r"bichar:([0-9.]+)", lambda m: f"bichar:{math.ceil(float(m[1]) / step) * step!r}", spec)

    return adapt
