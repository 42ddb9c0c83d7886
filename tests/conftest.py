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
