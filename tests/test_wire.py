from __future__ import annotations

import functools
import json
import os
import re
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import dbagent
from dbagent import cli, retrieval
from dbagent.cli import EXIT_DATA, EXIT_OK, main
from dbagent.errors import DataError
from dbagent.factory import (
    TYPE_DISCARDED,
    TYPE_TEXT,
    BranchOutcome,
    StageRecord,
    load_qa_dataset,
    read_outcome_file,
    write_outcome_file,
)
from dbagent.gateway import ChatBackendError, ChatMessage, GenerationParams, HttpChatBackend, load_script
from dbagent.kb import ImageAttachment, KbArticle, SectionChunk, load_corpus, parse_corpus_lines
from dbagent.protocol import EvidenceBlock, EvidenceItem, TurnRecord, make_turn, render_evidence, render_tool_error
from dbagent.retrieval import DeterministicEmbedder, EmbeddingError, RemoteEmbedder, build_text_index, save_index
from dbagent.runtime import Trajectory, read_trajectory_file, write_trajectory_file
from dbagent.sft import DatasetManifest, LinearizedSample, Segment, linearize, read_sft_file
from dbagent.wire import atomic_write, decode, encode, parse_jsonl, post_json
from helpers import HttpStub, article_obj, make_canonical_trajectory, make_corpus, qa_obj, write_jsonl

# One valid record per reader, with every optional part filled in. Each
# reader gets it between two bad lines, and the probe below changes each
# value in it.
READERS = {
    "corpus": (
        lambda path: parse_corpus_lines(path.read_text(encoding="utf-8").splitlines()),
        {**article_obj(0), "url": "wiki/a000", "images": [{"image_id": "img-000", "uri": "a.jpg", "caption": "A."}]},
    ),
    "dataset": (load_qa_dataset, qa_obj(0)),
    "outcomes": (
        read_outcome_file,
        encode(
            BranchOutcome(
                sample_id="q000",
                trajectory_type=TYPE_TEXT,
                stages=[StageRecord("stage1_judge", "judge-v1", "[wrong]", {"choose": "look it up"}, "wrong")],
                assembled=make_canonical_trajectory("q000", "T-A"),
                difficulty="medium",
            )
        ),
    ),
    "script": (load_script, {"match": {"turn_index": 0}, "output": "x"}),
    "trajectories": (read_trajectory_file, encode(make_canonical_trajectory("q000", "I-T-A"))),
    "sft": (read_sft_file, encode(linearize(make_canonical_trajectory("q000", "T-A"), "Answer."))),
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


# The values the probe puts in place of each value of a valid record.
PROBE_VALUES = [None, 5, -1, 1.5, True, "", "x", [], {}, ["x"]]


def _paths(node, path=()):
    """The path to every value inside a JSON value, parents first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(obj, path, value):
    out = json.loads(json.dumps(obj))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


# The command that reads each kind after ``validate`` does, and its argv for
# a file of that kind in a directory that holds the other input it needs.
CONSUMERS = {
    "trajectories": (
        "eval report",
        lambda path: ["eval", "report", "--trajectories", str(path), "--dataset", str(path.parent / "qa.jsonl")],
    ),
    "dataset": (
        "eval report",
        lambda path: ["eval", "report", "--trajectories", str(path.parent / "trajectories.jsonl"), "--dataset", str(path)],
    ),
    "outcomes": (
        "dataset emit",
        lambda path: ["dataset", "emit", "--outcomes", str(path), "--out", str(path.parent / "sft.jsonl")],
    ),
}


@pytest.mark.parametrize("kind", READERS)
def test_every_value_probed_gives_a_result_or_a_data_error(tmp_path, capsys, monkeypatch, kind):
    """Each value of a valid record, replaced by each probe value, through
    ``validate`` and the command that consumes the file: each run exits 0 or
    2, never with a traceback."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # one parser for every run
    write_jsonl(tmp_path / "qa.jsonl", [json.dumps(READERS["dataset"][1])])
    write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(READERS["trajectories"][1])])
    path = tmp_path / f"probe-{kind}.jsonl"
    runs = {"validate": ["validate", str(path), "--kind", kind]}
    if kind in CONSUMERS:
        name, argv = CONSUMERS[kind]
        runs[name] = argv(path)
    good = READERS[kind][1]
    mutants = [(at, value, _replaced(good, at, value)) for at in _paths(good) for value in PROBE_VALUES]
    codes = []
    for at, value, record in [((), None, good)] + mutants:
        write_jsonl(path, [json.dumps(record)])
        for name, argv in runs.items():
            try:
                codes.append(main(argv))
            except Exception as exc:  # noqa: BLE001 - the failure names the input
                pytest.fail(f"{kind} with {at} = {value!r}: {name} raised {exc!r}")
            assert codes[-1] in (EXIT_OK, EXIT_DATA), (kind, at, value, name)
    capsys.readouterr()
    assert codes[: len(runs)] == [EXIT_OK] * len(runs)  # the unchanged record
    assert EXIT_DATA in codes


def test_an_outcome_in_the_old_shape_with_edited_fields_gives_what_its_raw_holds(tmp_path, capsys):
    # Files written before turns were stored as their raw alone also hold
    # each turn's parsed fields, each block's rendered text and the final
    # answer. Edited copies of those are ignored: the outcome decodes to what
    # its raw turns and evidence items hold, and emits the same bytes.
    good = READERS["outcomes"][1]
    old = json.loads(json.dumps(good))
    assembled = old["assembled"]
    assembled["final_answer"] = "edited answer"
    assembled["turns"][0].update(think="Edited.", action="answer", payload="edited query", caption="A photo.")
    assembled["observations"][0]["rendered"] = "<evidence>\n[1] Edited — evidence: text\n</evidence>"
    for name, obj in (("good", good), ("old", old)):
        path = write_jsonl(tmp_path / f"{name}.jsonl", [json.dumps(obj)])
        assert main(["validate", str(path)]) == EXIT_OK
        assert main(["dataset", "emit", "--outcomes", str(path), "--out", str(tmp_path / f"{name}-sft.jsonl")]) == EXIT_OK
    capsys.readouterr()
    assert read_outcome_file(tmp_path / "old.jsonl") == read_outcome_file(tmp_path / "good.jsonl")
    assert (tmp_path / "old-sft.jsonl").read_bytes() == (tmp_path / "good-sft.jsonl").read_bytes()


# The settings that trajectory and outcome files recorded in their config
# before those settings became constants, at the values every run used.
_OLD_CONFIG_KEYS = {"temperature": 0.0, "max_new_tokens": 1024, "allow_caption_before_answer": False,
                    "image_evidence_full_article": False}


def test_files_written_with_the_old_config_keys_still_load(tmp_path, capsys):
    trajectory = json.loads(json.dumps(READERS["trajectories"][1]))
    trajectory["config"].update(_OLD_CONFIG_KEYS)
    outcome = json.loads(json.dumps(READERS["outcomes"][1]))
    outcome["assembled"]["config"].update(_OLD_CONFIG_KEYS)
    for name, obj, read in (("trajectories", trajectory, read_trajectory_file), ("outcomes", outcome, read_outcome_file)):
        path = write_jsonl(tmp_path / f"{name}.jsonl", [json.dumps(obj)])
        (record,) = read(path)
        assert encode(record) == obj  # the old keys are kept as data and rewrite to the same bytes
        assert main(["validate", str(path)]) == EXIT_OK
    capsys.readouterr()


def test_an_old_file_that_allowed_a_caption_on_its_answer_turn_is_refused_at_its_line(tmp_path, capsys):
    # The setting that allowed it is gone: the file's config key is ignored,
    # and a strict trajectory never holds a caption on an answer turn.
    good = READERS["trajectories"][1]
    old = json.loads(json.dumps(good))
    old["config"].update(_OLD_CONFIG_KEYS, allow_caption_before_answer=True)
    answer = decode(TurnRecord, good["turns"][-1])
    old["turns"][-1] = encode(make_turn(answer.think, answer.action, answer.action_payload, caption="A photo."))
    path = write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(good), json.dumps(old)])
    message = "line 2: turn 3 fails strict validation: <caption> is not allowed on an answer turn"
    with pytest.raises(DataError, match=f"1 error\\(s\\)\n{re.escape(message)}$"):
        read_trajectory_file(path)
    assert main(["validate", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err.endswith(message + "\n")


def test_a_record_is_written_without_what_it_derives():
    traj = replace(make_canonical_trajectory("q000", "T-A"), observations=[render_tool_error("index offline")])
    obj = encode(traj)
    assert "final_answer" not in obj
    assert [set(turn) for turn in obj["turns"]] == [{"raw"}, {"raw"}]
    assert obj["observations"] == [{"items": [], "error": "index offline"}]
    assert set(encode(render_evidence([]))) == {"items"}
    assert decode(Trajectory, obj) == traj


def test_parse_jsonl_yields_each_record_as_its_line_is_read_and_raises_after_the_last():
    read = []

    def lines():
        for line in ['{"a": 1}', "not json", "", '{"a": 2}']:
            read.append(line)
            yield line

    records = parse_jsonl(lines(), "src", lambda obj, line_no: (line_no, obj["a"]), DataError)
    assert next(records) == (1, 1)
    assert read == ['{"a": 1}']
    assert next(records) == (4, 2)
    with pytest.raises(DataError, match=r"^src: 1 error\(s\)\nline 2: invalid JSON \(Expecting value\)$"):
        next(records)


# --- record codec ----------------------------------------------------------

_TRAJECTORY, _OUTCOME, _ARTICLE, _SAMPLE = (READERS[k][1] for k in ("trajectories", "outcomes", "corpus", "sft"))
_MANIFEST = encode(
    DatasetManifest("sft-emitter-v1", 1, 0, {"T→A": 1}, {"medium": 1}, {"<=1024": 1}, [{"path": "o", "sha256": "0"}], "0")
)

# Each record type, a JSON object of it holding every key, and the value of
# each key that may be absent when it is. Every other key is required.
RECORDS = {
    Trajectory: (_TRAJECTORY, {"config": {}, "protocol_events": ()}),
    TurnRecord: (_TRAJECTORY["turns"][1], {}),
    EvidenceBlock: ({"items": [], "error": "index offline"}, {"error": None}),
    EvidenceItem: ({**_TRAJECTORY["observations"][0]["items"][0], "section_id": "a000-s0"}, {"section_id": None}),
    BranchOutcome: (_OUTCOME, {"assembled": None, "difficulty": None, "discard_reason": None}),
    StageRecord: (_OUTCOME["stages"][0], {"verdict": "n/a"}),
    KbArticle: (_ARTICLE, {"images": (), "url": None}),
    SectionChunk: (_ARTICLE["sections"][0], {}),
    ImageAttachment: (_ARTICLE["images"][0], {"caption": None}),
    LinearizedSample: (_SAMPLE, {}),
    Segment: (_SAMPLE["segments"][0], {}),
    DatasetManifest: (_MANIFEST, {}),
}
# Keys that may be absent only beside other changes, as (changed values,
# keys also absent): an outcome with no trajectory is DISCARDED or FAILED,
# has no difficulty and has a discard reason, which an assembled outcome
# lacks. A defaulted key that a valid record cannot hold beside the others
# is one that these changes put in.
_NO_TRAJECTORY = ({"trajectory_type": TYPE_DISCARDED, "discard_reason": "judged wrong"}, ("assembled", "difficulty"))
ABSENT_WITH = {(BranchOutcome, "assembled"): _NO_TRAJECTORY, (BranchOutcome, "difficulty"): _NO_TRAJECTORY}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_round_trip_and_only_defaulted_keys_may_be_absent(cls):
    obj, defaults = RECORDS[cls]
    assert encode(decode(cls, obj)) == obj
    for key in obj:
        rest = {k: v for k, v in obj.items() if k != key}
        if key in defaults:
            changes, absent = ABSENT_WITH.get((cls, key), ({}, ()))
            rest = {k: v for k, v in {**rest, **changes}.items() if k not in absent}
            assert getattr(decode(cls, rest), key) == defaults[key]
        else:
            with pytest.raises(DataError, match=f"^missing '{key}'$"):
                decode(cls, rest)
    put_in = {key for (owner, _), (changes, _) in ABSENT_WITH.items() if owner is cls for key in changes}
    assert set(defaults) <= set(obj) | put_in


@pytest.mark.parametrize(
    "kind, at, value, message",
    [
        ("trajectories", ("turns", 0, "raw"), None, "turns[0].raw: expected string, got null"),
        ("trajectories", ("turns", 0), "x", "turns[0]: expected object, got string"),
        ("trajectories", ("turns", 2, "raw"), "<answer>a</answer>", "turns[2]: raw does not parse (MissingThink)"),
        ("trajectories", ("observations", 0, "error"), 5, "observations[0].error: expected string or null, got integer"),
        ("trajectories", ("task_id",), [], "task_id: expected string, got array"),
        ("trajectories", ("config",), None, "config: expected object, got null"),
        ("trajectories", ("observations", 0, "items"), None, "observations[0].items: expected array, got null"),
        ("trajectories", ("observations", 1, "items", 0, "score"), True,
         "observations[1].items[0].score: expected number, got boolean"),
        ("trajectories", ("terminated_by",), "answered",
         "terminated_by 'answered' is not one of 'answer', 'budget_exhausted', 'protocol_failure'"),
        ("outcomes", ("stages", 0, "parsed_fields", "choose"), 5,
         "stages[0].parsed_fields.choose: expected string, got integer"),
        ("outcomes", ("assembled", "turns", 0, "raw"), "no tags",
         "assembled.turns[0]: raw does not parse (MissingThink, TrailingText, NoAction)"),
        ("outcomes", ("assembled",), [], "assembled: expected object or null, got array"),
        ("sft", ("segments", 1, "text"), None, "segments[1].text: expected string, got null"),
        ("corpus", ("images", 0, "caption"), 5, "images[0].caption: expected string or null, got integer"),
        # A trajectory that breaks a rule is reported at the path of the record.
        ("outcomes", ("assembled", "observations"), [], "assembled: 0 observation(s) for 1 tool turn(s)"),
        ("trajectories", ("turns", 0, "raw"), "<think>t</think><caption>c</caption><image_search>image_path</image_search>",
         "turn 1 fails strict validation: <caption> requires an earlier <image_search> turn"),
    ],
)
def test_a_mismatch_names_its_line_and_json_path(tmp_path, kind, at, value, message):
    read, good = READERS[kind]
    path = write_jsonl(tmp_path / f"{kind}.jsonl", ["", json.dumps(_replaced(good, at, value))])
    with pytest.raises(DataError) as err:
        read(path)
    assert str(err.value).endswith(f"1 error(s)\nline 2: {message}")


def test_a_number_may_be_a_json_integer_but_not_a_boolean():
    item = RECORDS[EvidenceItem][0]
    assert decode(EvidenceItem, {**item, "score": 1}).score == 1
    for field_name, value in (("score", False), ("text", True)):
        with pytest.raises(DataError, match=f"^{field_name}: expected (number|string), got boolean$"):
            decode(EvidenceItem, {**item, field_name: value})
    with pytest.raises(DataError, match="^expected object, got array$"):
        decode(EvidenceItem, [item])


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
        [BranchOutcome(f"s{i}", TYPE_DISCARDED, [], discard_reason="judged wrong") for i in range(2)],
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
