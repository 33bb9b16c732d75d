import vrhq


def test_all_exports_resolve():
    # a deletion must take its export with it
    missing = [name for name in vrhq.__all__ if not hasattr(vrhq, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(vrhq.__all__) == len(set(vrhq.__all__))
