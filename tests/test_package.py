from __future__ import annotations

import types

import dbagent
from dbagent import errors, evaluation, factory, gateway, kb, protocol, retrieval, runtime, sft, wire


def test_every_export_resolves_and_none_is_a_module():
    assert len(dbagent.__all__) == len(set(dbagent.__all__)) > 50
    for name in dbagent.__all__:
        assert not isinstance(getattr(dbagent, name), types.ModuleType), name
    assert {"Trajectory", "TurnRecord", "parse_turn", "DataError", "score_answer"} <= set(dbagent.__all__)


def test_every_module_export_resolves():
    for module in (errors, evaluation, factory, gateway, kb, protocol, retrieval, runtime, sft, wire):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
    assert "check_stored_turn" not in protocol.__all__
