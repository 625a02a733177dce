"""Versioned prompt templates shipped with the package.

Template ids are stable strings recorded in stage records and dataset
manifests; bump the suffix when editing a template file.
"""

from __future__ import annotations

import functools
from importlib import resources

__all__ = ["load_prompt", "PROMPT_IDS", "AGENT_SYSTEM"]

AGENT_SYSTEM = "agent_system"

# template name -> (file, version id)
PROMPT_IDS: dict[str, str] = {
    "agent_system": "agent-system-v1",
    "stage1_answer": "stage1-answer-v1",
    "stage1_judge": "stage1-judge-v1",
    "stage2_image_answer": "stage2-image-answer-v1",
    "stage2_image_judge": "stage2-image-judge-v1",
    "stage2_text_answer": "stage2-text-answer-v1",
    "stage2_text_judge": "stage2-text-judge-v1",
    "stage3_image_answer": "stage3-image-answer-v1",
    "stage3_text_answer": "stage3-text-answer-v1",
    "stage3_judge": "stage3-judge-v1",
}


def load_prompt(name: str) -> str:
    """Read a template by name (without the .txt suffix)."""
    if name not in PROMPT_IDS:
        raise KeyError(f"unknown prompt template: {name!r}")
    return _read_prompt(name)


@functools.cache
def _read_prompt(name: str) -> str:
    """The packaged file, read once per process: templates do not change
    while the package is loaded."""
    return resources.files("dbagent").joinpath("prompts", f"{name}.txt").read_text(encoding="utf-8")


def prompt_id(name: str) -> str:
    return PROMPT_IDS[name]
