from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import dbagent
from dbagent import retrieval
from dbagent.errors import DataError
from dbagent.factory import (
    TYPE_DISCARDED,
    BranchOutcome,
    load_qa_dataset,
    outcome_to_dict,
    read_outcome_file,
    write_outcome_file,
)
from dbagent.gateway import ChatBackendError, ChatMessage, GenerationParams, HttpChatBackend, load_script
from dbagent.kb import load_corpus, parse_corpus_lines
from dbagent.retrieval import DeterministicEmbedder, EmbeddingError, RemoteEmbedder, build_text_index, save_index
from dbagent.runtime import read_trajectory_file, trajectory_to_dict, write_trajectory_file
from dbagent.sft import read_sft_file
from dbagent.wire import atomic_write, post_json
from helpers import HttpStub, article_obj, make_canonical_trajectory, make_corpus, qa_obj, write_jsonl

# One valid record per reader; each reader gets it between two bad lines.
READERS = {
    "corpus": (lambda path: parse_corpus_lines(path.read_text(encoding="utf-8").splitlines()), article_obj(0)),
    "dataset": (load_qa_dataset, qa_obj(0)),
    "outcomes": (
        read_outcome_file,
        outcome_to_dict(BranchOutcome(sample_id="s", trajectory_type=TYPE_DISCARDED, stages=[])),
    ),
    "script": (load_script, {"match": {"turn_index": 0}, "output": "x"}),
    "trajectories": (read_trajectory_file, trajectory_to_dict(make_canonical_trajectory("t", "T-A"))),
    "sft": (read_sft_file, {"meta": {}, "segments": []}),
}


@pytest.mark.parametrize("kind", READERS)
def test_reader_names_every_bad_line(tmp_path, kind):
    read, good = READERS[kind]
    path = write_jsonl(tmp_path / f"{kind}.jsonl", ["not json", json.dumps(good), "{}", ""])
    with pytest.raises(DataError) as err:
        read(path)
    message = str(err.value)
    assert "2 error(s)\nline 1: invalid JSON" in message
    assert "\nline 3: " in message


@pytest.mark.parametrize(
    "read", [load_corpus, load_qa_dataset, read_outcome_file, load_script, read_trajectory_file, read_sft_file]
)
def test_reader_names_a_file_that_is_not_utf8(tmp_path, read):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b'{"a": 1}\n\x93NUMPY\n')
    with pytest.raises(DataError, match=r"binary\.jsonl: not UTF-8 text \(invalid start byte at byte 9\)"):
        read(path)


def test_post_json_to_a_closed_port_counts_attempts():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(ChatBackendError, match=r"chat endpoint unreachable after 2 attempt\(s\)") as err:
        post_json(
            f"http://127.0.0.1:{port}/chat", {}, api_key=None, timeout=5.0, retries=1,
            name="chat", key="text", error=ChatBackendError,
        )
    assert err.value.attempts == 2


def _post_chat(url):
    return post_json(url, {}, api_key=None, timeout=5.0, retries=2, name="chat", key="text", error=ChatBackendError)


@pytest.mark.parametrize("failures, sleeps", [(0, []), (1, [0.2]), (2, [0.2, 0.4])])
def test_post_json_backs_off_between_attempts(monkeypatch, failures, sleeps):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    answers = iter([(503, {"error": "busy"})] * failures + [(200, {"text": "ok"})])
    with HttpStub(lambda record: next(answers)) as stub:
        assert _post_chat(stub.url) == ("ok", failures + 1)
    assert slept == sleeps


def test_post_json_does_not_sleep_after_its_last_attempt(monkeypatch):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    with HttpStub(lambda record: (503, {"error": "busy"})) as stub:
        with pytest.raises(ChatBackendError, match=r"unreachable after 3 attempt\(s\)"):
            _post_chat(stub.url)
        assert len(stub.requests) == 3
    assert slept == [0.2, 0.4]


# Each HTTP client: the error it raises, and one call of it against a URL.
CLIENTS = {
    "chat": (
        ChatBackendError,
        lambda url: HttpChatBackend(url).complete([ChatMessage(role="user", content="q")], GenerationParams()),
    ),
    "embed": (EmbeddingError, lambda url: RemoteEmbedder(url, "text", 2).embed(["q"])),
}


@pytest.mark.parametrize("body", ["[]", '"x"', "null"])
@pytest.mark.parametrize("client", CLIENTS)
def test_a_json_body_that_is_not_an_object_is_malformed(client, body):
    error, call = CLIENTS[client]
    with HttpStub(lambda record: (200, body)) as stub:
        with pytest.raises(error, match=f"malformed {client} response") as err:
            call(stub.url)
        assert len(stub.requests) == 1
    assert err.value.attempts == 1


def test_offline_imports_and_validate_load_no_http_client(tmp_path):
    path = tmp_path / "text_index.json"
    save_index(build_text_index(make_corpus(2), DeterministicEmbedder(dimension=8)), path)
    script = (
        "import sys\n"
        "import dbagent\n"
        "seen = ['requests' in sys.modules]\n"
        "import dbagent.cli\n"
        "seen.append('requests' in sys.modules)\n"
        "code = dbagent.cli.main(['validate', sys.argv[1]])\n"
        "seen.append('requests' in sys.modules)\n"
        "print(code, *seen)\n"
    )
    src = str(Path(dbagent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    # The last line: validate's exit code, then whether requests was loaded
    # after `import dbagent`, after `import dbagent.cli` and after validate.
    assert run.stdout.splitlines()[-1] == "0 False False False"


# --- atomic writes ---------------------------------------------------------


def test_atomic_write_replaces_the_file_only_when_complete(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new ünïcode\n")
        assert path.read_text(encoding="utf-8") == "old\n"
    assert path.read_bytes() == "new ünïcode\n".encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["out.txt"]


def _stop_after_first(records):
    yield records[0]
    raise RuntimeError("writer stopped")


WRITERS = {
    "trajectories": (
        write_trajectory_file,
        [make_canonical_trajectory("t0", "T-A"), make_canonical_trajectory("t1", "A")],
    ),
    "outcomes": (
        write_outcome_file,
        [BranchOutcome(sample_id=f"s{i}", trajectory_type=TYPE_DISCARDED, stages=[]) for i in range(2)],
    ),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_a_writer_stopped_midway_leaves_the_old_file(tmp_path, kind):
    write, records = WRITERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    write(records, path)
    old = path.read_bytes()
    with pytest.raises(RuntimeError, match="writer stopped"):
        write(_stop_after_first(records[::-1]), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [path.name]


def test_save_index_failing_after_the_sidecar_leaves_the_old_files(tmp_path, monkeypatch):
    path = tmp_path / "text_index.json"
    save_index(build_text_index(make_corpus(2), DeterministicEmbedder(dimension=8)), path)
    old = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert sorted(old) == ["text_index.json", "text_index.npy"]

    def fail(*args, **kwargs):
        # The new vectors are written in full by now, under a temp name.
        assert [name for name in os.listdir(tmp_path) if name.startswith(".text_index.npy.")]
        raise OSError("disk full")

    monkeypatch.setattr(retrieval, "json", SimpleNamespace(dumps=fail))
    with pytest.raises(OSError, match="disk full"):
        save_index(build_text_index(make_corpus(3), DeterministicEmbedder(dimension=8)), path)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == old
