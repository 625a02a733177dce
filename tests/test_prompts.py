from __future__ import annotations

import builtins
import io

import pytest

from dbagent.prompts import load_prompt


def test_a_repeated_load_opens_no_file(monkeypatch):
    first = load_prompt("stage1_answer")

    def refuse(*args, **kwargs):
        raise AssertionError("a template file was opened again")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    assert load_prompt("stage1_answer") == first


def test_an_unknown_template_is_a_key_error():
    with pytest.raises(KeyError, match="unknown prompt template: 'stage9_answer'"):
        load_prompt("stage9_answer")
