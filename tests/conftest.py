import pytest

from quadricbundles import brauer


@pytest.fixture
def local_symbol_calls(monkeypatch):
    """The list that records ``(form, p)`` for each ``brauer._local_symbol``
    call made while building a Hasse map of ``form``, and ``(None, p)`` for
    any other call."""
    calls, forms = [], []
    hasse_map, local_symbol = brauer._hasse_map, brauer._local_symbol

    def counted_map(form, places):
        forms.append(form)
        try:
            return hasse_map(form, places)
        finally:
            forms.pop()

    def counted_symbol(p, *key):
        calls.append((forms[-1] if forms else None, p))
        return local_symbol(p, *key)

    monkeypatch.setattr(brauer, "_hasse_map", counted_map)
    monkeypatch.setattr(brauer, "_local_symbol", counted_symbol)
    return calls
