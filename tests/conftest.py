import importlib

import pytest


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty module memos for one test.

    A budget counts resolver nodes, and a node another test memoized costs
    none; a memoized HOMFLY polynomial skips the Hecke strand cap.  Tests
    that count work or expect a cap to bite start from empty memos.
    """
    engine = importlib.import_module("knotcert.homfly")
    monkeypatch.setattr(engine, "_P0_MEMO", {})
    monkeypatch.setattr(engine, "_HOMFLY_WALK_MEMO", {})
    monkeypatch.setattr(engine, "_HOMFLY_MEMO", {})
