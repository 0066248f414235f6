"""Mark every test of test_acceptance.py `acceptance`, so that
`python -m pytest -q -m "not acceptance"` runs the quick tier alone."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
