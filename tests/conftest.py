import pytest

from quotcount import vi_engine


@pytest.fixture(autouse=True)
def empty_engine_memo():
    """Start every test with an empty count memo, so a test that patches the
    engine evaluates its sum instead of reading a count stored by another."""
    vi_engine._certified_count.cache_clear()
