"""Suite-wide collection order."""


def pytest_collection_modifyitems(items):
    # the minutes-long end-to-end runs (marker "slow") go last, so every
    # quick check has reported before they start; the sort is stable
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
