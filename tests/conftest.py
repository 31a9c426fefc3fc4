import pytest

import stabaut.codes


@pytest.fixture(params=[5, 25, 7], ids=lambda chunk: f"chunk{chunk}")
def small_chunk(request, monkeypatch):
    """WINDOW_CHUNK cut so far that windows split into prefix and free
    letters everywhere: over 5 letters a chunk holds one letter at 5 and 7,
    two at 25; over 2 letters two, four and two."""
    monkeypatch.setattr(stabaut.codes, "WINDOW_CHUNK", request.param)
    return request.param
