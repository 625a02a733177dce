from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from dbagent.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, derive_seed, main
from dbagent.evaluation import EvalRecord, aggregate
from dbagent.kb import parse_corpus_lines
from dbagent.retrieval import DeterministicEmbedder, build_image_index, save_index
from dbagent.runtime import read_trajectory_file
from dbagent.wire import encode
from helpers import (
    corpus_lines,
    factory_rules,
    make_canonical_trajectory,
    marker,
    qa_obj,
    question,
    rule_breaking_trajectories,
    traced_peak,
    trajectory_json,
    value,
    write_jsonl,
)


def write_corpus(tmp_path, n):
    return str(write_jsonl(tmp_path / "corpus.jsonl", corpus_lines(n)))


def write_dataset(tmp_path, n):
    lines = [json.dumps(qa_obj(i)) for i in range(n)]
    return str(write_jsonl(tmp_path / "dataset.jsonl", lines))


def write_script(tmp_path, rules, name="script.jsonl"):
    lines = []
    for rule in rules:
        match = (
            {"turn_index": rule.turn_index}
            if rule.turn_index is not None
            else {"pattern": rule.pattern}
        )
        lines.append(json.dumps({"match": match, "output": rule.output}))
    return str(write_jsonl(tmp_path / name, lines))


def agent_script(tmp_path, n):
    """Answer once the fact shows up in evidence, else search for it.

    Safe only at k_text=1: wider evidence can contain a neighbor's fact
    line and first-match-wins would answer for the wrong sample.
    """
    from dbagent.gateway import ScriptedRule

    rules = []
    for i in range(n):
        rules.append(
            ScriptedRule(
                output=(
                    "<think>The evidence states the fact.</think>\n"
                    f"<answer>{value(i)}</answer>"
                ),
                pattern=rf"special fact of {marker(i)} is {value(i)}\.",
            )
        )
        rules.append(
            ScriptedRule(
                output=(
                    f"<think>The fact about {marker(i)} must be looked up.</think>\n"
                    f"<text_search>special fact of {marker(i)}</text_search>"
                ),
                pattern=rf"special fact of {marker(i)}\?$",
            )
        )
    return write_script(tmp_path, rules)


# --- exit codes -------------------------------------------------------------


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["agent", "run", "--corpus", "whatever.jsonl"])  # --question missing
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_backend_is_usage_error(tmp_path):
    corpus = write_corpus(tmp_path, 2)
    with pytest.raises(SystemExit) as exc:
        main(["agent", "run", "--question", question(0), "--corpus", corpus])
    assert exc.value.code == 1


def test_data_error_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.jsonl")]) == EXIT_DATA
    assert "no such file" in capsys.readouterr().err


# Each subcommand with one input file missing ("MISSING"); every other
# input it reads is a valid file that holds no records, or a small corpus.
_MISSING_INPUTS = [
    ("index", "build", "--corpus", "MISSING", "--out-dir", "OUT"),
    ("agent", "run", "--question", "q?", "--corpus", "MISSING", "--script", "SCRIPT"),
    ("agent", "run", "--question", "q?", "--corpus", "CORPUS", "--script", "MISSING"),
    ("agent", "batch", "--dataset", "DATASET", "--corpus", "MISSING", "--out", "OUT", "--script", "SCRIPT"),
    ("agent", "batch", "--dataset", "MISSING", "--corpus", "CORPUS", "--out", "OUT", "--script", "SCRIPT"),
    ("factory", "build", "--dataset", "MISSING", "--corpus", "CORPUS", "--out", "OUT", "--script", "SCRIPT"),
    ("dataset", "emit", "--outcomes", "MISSING", "--out", "OUT"),
    ("dataset", "emit", "--outcomes", "EMPTY", "--out", "OUT", "--system-prompt-file", "MISSING"),
    ("eval", "report", "--trajectories", "MISSING", "--dataset", "DATASET"),
    ("eval", "report", "--trajectories", "EMPTY", "--dataset", "MISSING"),
    ("eval", "topk-grid", "--dataset", "MISSING", "--corpus", "CORPUS", "--script", "SCRIPT"),
    ("eval", "kb-scale", "--dataset", "DATASET", "--corpus", "MISSING", "--script", "SCRIPT"),
    ("validate", "MISSING"),
]


def _missing_input_id(argv: tuple[str, ...]) -> str:
    """The subcommand and the flag of the missing file, as in ``agent-run-script``."""
    at = argv.index("MISSING")
    return "-".join((*argv[: min(at, 2)], *([argv[at - 1][2:]] if at > 1 else [])))


@pytest.mark.parametrize("argv", _MISSING_INPUTS, ids=_missing_input_id)
def test_a_missing_input_file_exits_2(tmp_path, capsys, argv):
    files = {
        "MISSING": str(tmp_path / "missing.jsonl"),
        "OUT": str(tmp_path / "out"),
        "CORPUS": write_corpus(tmp_path, 2),
        "DATASET": write_dataset(tmp_path, 2),
        "SCRIPT": write_script(tmp_path, factory_rules(0, "A")),
        "EMPTY": str(write_jsonl(tmp_path / "empty.jsonl", [])),
    }
    assert main([files.get(arg, arg) for arg in argv]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and files["MISSING"] in err
    assert not (tmp_path / "out").exists()


def test_corrupt_corpus_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"article_id": "a0", "sections": 7}\n', encoding="utf-8")
    code = main(["validate", str(path), "--kind", "corpus"])
    assert code == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_unreachable_backend_exits_3(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 2)
    code = main(
        [
            "agent",
            "run",
            "--question",
            question(0),
            "--corpus",
            corpus,
            "--chat-url",
            "http://127.0.0.1:9/chat",
        ]
    )
    assert code == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err


# --- settings resolution ----------------------------------------------------


def run_print_config(tmp_path, capsys, extra):
    """The settings ``agent run --print-config`` prints, which reads every
    setting but ``workers``. The script answers at once, and a script wins
    over a chat URL, so no request is made."""
    from dbagent.gateway import ScriptedRule

    corpus = write_corpus(tmp_path, 2)
    script = write_script(tmp_path, [ScriptedRule(pattern=".", output="<think>Known.</think>\n<answer>x</answer>")])
    argv = ["agent", "run", "--question", question(0), "--corpus", corpus, "--script", script,
            "--dimension", "8", "--print-config", *extra]
    assert main(argv) == EXIT_OK
    return json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]


def test_print_config_masks_api_key(tmp_path, capsys):
    config = run_print_config(tmp_path, capsys, ["--api-key", "hunter2-cli-secret"])
    assert config["api_key"] == "***"
    captured = capsys.readouterr()
    assert "hunter2-cli-secret" not in captured.out + captured.err


def test_env_api_key_is_masked_too(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DBAGENT_API_KEY", "env-only-secret")
    config = run_print_config(tmp_path, capsys, [])
    assert config["api_key"] == "***"


def test_precedence_config_file_then_env_then_flag(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chat_url": "http://from-file", "budget": 9}), encoding="utf-8")

    config = run_print_config(tmp_path, capsys, ["--config", str(cfg)])
    assert config["chat_url"] == "http://from-file"
    assert config["budget"] == 9

    monkeypatch.setenv("DBAGENT_CHAT_URL", "http://from-env")
    config = run_print_config(tmp_path, capsys, ["--config", str(cfg)])
    assert config["chat_url"] == "http://from-env"

    config = run_print_config(
        tmp_path, capsys, ["--config", str(cfg), "--chat-url", "http://from-flag"]
    )
    assert config["chat_url"] == "http://from-flag"
    assert config["budget"] == 9  # file value survives when no flag overrides it


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgett": 9}), encoding="utf-8")
    corpus = write_corpus(tmp_path, 2)
    code = main(
        ["index", "build", "--corpus", corpus, "--out-dir", str(tmp_path / "i"), "--config", str(cfg)]
    )
    assert code == EXIT_DATA
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"strict": "false"}, "strict: expected boolean, got string"),
        ({"budget": True}, "budget: expected integer, got boolean"),
        ({"dimension": "32"}, "dimension: expected integer, got string"),
        ({"workers": 2.0}, "workers: expected integer, got number"),
        ({"seed": None}, "seed: expected integer, got null"),
        ({"chat_url": 5}, "chat_url: expected string or null, got integer"),
    ],
    ids=["strict-string", "budget-bool", "dimension-string", "workers-float", "seed-null", "chat_url-int"],
)
def test_config_file_value_of_the_wrong_type_exits_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    corpus = write_corpus(tmp_path, 2)
    code = main(["index", "build", "--corpus", corpus, "--out-dir", str(tmp_path / "i"), "--config", str(cfg)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: config file {cfg}: {message}\n"
    assert not (tmp_path / "i").exists()


_SETTING_FLAGS = ("--config", "--print-config", "--seed", "--dimension", "--chat-url", "--embed-url", "--api-key",
                  "--script", "--budget", "--k-text", "--k-image", "--workers")
# Each subcommand: arguments that parse, and the setting flags it reads.
_READS = {
    "index build": (["--corpus", "c", "--out-dir", "o"],
                    {"--config", "--print-config", "--seed", "--dimension", "--embed-url", "--api-key"}),
    "agent run": (["--corpus", "c", "--question", "q"], set(_SETTING_FLAGS) - {"--workers"}),
    "agent batch": (["--corpus", "c", "--dataset", "d", "--out", "o"], set(_SETTING_FLAGS)),
    "factory build": (["--corpus", "c", "--dataset", "d", "--out", "o"], set(_SETTING_FLAGS)),
    "dataset emit": (["--outcomes", "o", "--out", "s"], {"--config", "--print-config", "--seed"}),
    "eval report": (["--trajectories", "t", "--dataset", "d"],
                    {"--config", "--print-config", "--script", "--chat-url", "--api-key"}),
    "eval topk-grid": (["--dataset", "d", "--corpus", "c"], set(_SETTING_FLAGS) - {"--k-text", "--k-image"}),
    "eval kb-scale": (["--dataset", "d", "--corpus", "c"], set(_SETTING_FLAGS)),
    "validate": (["path"], set()),
}


def test_each_subcommand_takes_the_settings_it_reads():
    def leaves(parser, name=()):
        actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not actions:
            yield " ".join(name), parser
        for action in actions:
            for child, sub in action.choices.items():
                yield from leaves(sub, (*name, child))

    takes = {name: {o for a in p._actions for o in a.option_strings} & set(_SETTING_FLAGS)
             for name, p in leaves(build_parser())}
    assert takes == {name: reads for name, (_, reads) in _READS.items()}
    assert sum(map(len, takes.values())) == 71


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, reads) in _READS.items() for flag in _SETTING_FLAGS if flag not in reads],
    ids=lambda x: x.replace(" ", "-").lstrip("-"),
)
def test_a_subcommand_refuses_a_setting_it_does_not_read(capsys, command, flag):
    argv, _ = _READS[command]
    value = [] if flag == "--print-config" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), *argv, flag, *value])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--config", "cfg.json"], ["--print-config"], ["--seed", "1"], ["--dimension", "8"]], ids=lambda f: f[0][2:]
)
def test_validate_takes_no_settings(tmp_path, flags):
    dataset = write_dataset(tmp_path, 1)
    with pytest.raises(SystemExit) as exc:
        main(["validate", dataset, *flags])
    assert exc.value.code == 1


def test_every_readme_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    commands = [line for line in "\n".join(blocks).replace("\\\n", " ").splitlines() if line.startswith("dbagent ")]
    assert len(commands) == 9
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert callable(args.func), command


def test_derive_seed_is_stable_and_stream_keyed():
    assert derive_seed(0, "balance") == derive_seed(0, "balance")
    assert derive_seed(0, "balance") != derive_seed(0, "kb-scale")
    assert derive_seed(0, "balance") != derive_seed(1, "balance")


# --- subcommand flows -------------------------------------------------------


def test_index_build_then_validate(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 3)
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", corpus, "--out-dir", str(out_dir), "--dimension", "8"]) == EXIT_OK
    assert "indexed 6 sections and 3 images from 3 articles" in capsys.readouterr().out

    assert main(["validate", str(out_dir / "text_index.json")]) == EXIT_OK
    assert "OK (index): 6 text vectors, dimension 8" in capsys.readouterr().out
    assert main(["validate", str(out_dir / "image_index.json")]) == EXIT_OK
    assert "OK (index): 3 image vectors, dimension 8" in capsys.readouterr().out


def test_validate_names_version_1_index(tmp_path, capsys):
    path = tmp_path / "text_index.json"
    v1 = {"format_version": 1, "dimension": 2, "count": 0, "modality": "text", "entries": []}
    path.write_text(json.dumps(v1), encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_DATA
    assert "unsupported index format_version 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", 8.9, "header dimension 8.9 is not an embedding dimension"),
        ("dimension", "8", "header dimension '8' is not an embedding dimension"),
        ("dimension", True, "header dimension True is not an embedding dimension"),
        ("dimension", 0, "header dimension 0 is not an embedding dimension"),
        ("modality", 5, "index modality 5 is not 'text' or 'image'"),
        ("modality", "audio", "index modality 'audio' is not 'text' or 'image'"),
    ],
    ids=["dimension-float", "dimension-string", "dimension-bool", "dimension-zero", "modality-int", "modality-other"],
)
def test_validate_refuses_an_index_header_field_of_the_wrong_type(tmp_path, capsys, key, value, message):
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", write_corpus(tmp_path, 2), "--out-dir", str(out_dir), "--dimension", "8"]) == EXIT_OK
    header = out_dir / "text_index.json"
    doc = json.loads(header.read_text(encoding="utf-8"))
    header.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(header)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {header}: {message}\n"


@pytest.mark.parametrize("kind", ["auto", "corpus"])
def test_validate_names_a_file_that_is_not_utf8(tmp_path, capsys, kind):
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", write_corpus(tmp_path, 2), "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    matrix = out_dir / "text_index.npy"
    assert main(["validate", str(matrix), "--kind", kind]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{matrix}: not UTF-8 text" in err
    assert (f"validate its header {out_dir / 'text_index.json'}" in err) == (kind == "auto")


def agent_run_argv(corpus, script, *extra):
    return [
        "agent", "run", "--question", question(0), "--image", "img-000", "--corpus", corpus,
        "--script", script, "--k-text", "1", *extra,
    ]


def test_agent_run_with_index_dir_matches_in_memory_index(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", corpus, "--out-dir", out_dir, "--dimension", "256"]) == EXIT_OK
    capsys.readouterr()
    assert main(agent_run_argv(corpus, script, "--dimension", "256")) == EXIT_OK
    built = capsys.readouterr().out
    assert main(agent_run_argv(corpus, script, "--dimension", "256", "--index-dir", out_dir)) == EXIT_OK
    assert capsys.readouterr().out == built
    assert "final_answer: val000" in built


def test_index_dir_with_other_dimension_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", corpus, "--out-dir", out_dir, "--dimension", "8"]) == EXIT_OK
    capsys.readouterr()
    code = main(agent_run_argv(corpus, script, "--dimension", "64", "--index-dir", out_dir))
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert "text_index.json: index dimension 8, expected 64" in captured.err
    assert "<evidence>" not in captured.out


def test_index_dir_built_from_other_corpus_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other_corpus = str(write_jsonl(other_dir / "corpus.jsonl", corpus_lines(5)))
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", other_corpus, "--out-dir", out_dir]) == EXIT_OK
    capsys.readouterr()
    _rebuild_message_exit(
        agent_run_argv(corpus, script, "--index-dir", out_dir),
        capsys,
        "error: the corpus's section texts are not those the text index was built from (texts_sha256)",
    )


def test_index_dir_built_from_renamed_ids_in_the_same_order_is_served(tmp_path, capsys):
    # Ids are not embedded, so an index of the corpus before every id was
    # prefixed is the index of the corpus after, and hits name the new ids.
    renamed = []
    for line in corpus_lines(4):
        article = json.loads(line)
        article["article_id"] = "new-" + article["article_id"]
        renamed.append(json.dumps(article))
    corpus = str(write_jsonl(tmp_path / "renamed.jsonl", renamed))
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", write_corpus(tmp_path, 4), "--out-dir", out_dir]) == EXIT_OK
    argv = ["agent", "batch", "--dataset", write_dataset(tmp_path, 4), "--corpus", corpus,
            "--script", agent_script(tmp_path, 4), "--k-text", "1"]
    assert main([*argv, "--out", str(tmp_path / "loaded.jsonl"), "--index-dir", out_dir]) == EXIT_OK
    assert main([*argv, "--out", str(tmp_path / "built.jsonl")]) == EXIT_OK
    loaded = (tmp_path / "loaded.jsonl").read_bytes()
    assert loaded == (tmp_path / "built.jsonl").read_bytes()
    (first, *_) = read_trajectory_file(tmp_path / "loaded.jsonl")
    assert first.observations[0].items[0].article_id == "new-a000"
    assert first.final_answer == "val000"


def test_index_dir_image_rows_are_checked_too(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", corpus, "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    # Rebuild only the image index from a corpus whose image ids changed.
    moved = []
    for line in corpus_lines(4):
        article = json.loads(line)
        article["images"] = [dict(img, image_id="moved-" + img["image_id"]) for img in article["images"]]
        moved.append(json.dumps(article))
    other = parse_corpus_lines(moved)
    save_index(build_image_index(other, DeterministicEmbedder(modality="image")), out_dir / "image_index.json")
    _rebuild_message_exit(
        agent_run_argv(corpus, script, "--index-dir", str(out_dir)),
        capsys,
        "error: the corpus's image ids are not those the image index was built from (texts_sha256)",
    )


def _rebuild_message_exit(argv, capsys, fragment):
    """Run ``argv`` and check it exits 2 naming ``fragment`` and the rebuild."""
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert "rebuild with `dbagent index build`" in captured.err
    assert "<evidence>" not in captured.out


def test_index_dir_with_version_2_header_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", corpus, "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    path = out_dir / "text_index.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    keys = [[f"a{i:03d}", f"a{i:03d}-s{s}"] for i in range(4) for s in range(2)]
    v2 = {key: doc[key] for key in ("dimension", "count", "modality", "vectors_sha256")}
    path.write_text(json.dumps(dict(v2, format_version=2, keys=keys)), encoding="utf-8")
    _rebuild_message_exit(
        agent_run_argv(corpus, script, "--index-dir", str(out_dir)), capsys, "unsupported index format_version 2"
    )


def _write_version_3_header(path):
    """Turn the v4 header at ``path`` into the v3 header of the same rows."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    keys = [{"codes": [0, 0, 1, 1, 2, 2, 3, 3], "values": [f"a{i:03d}" for i in range(4)]},
            [f"a{i:03d}-s{s}" for i in range(4) for s in range(2)]]
    path.write_text(json.dumps(dict(doc, format_version=3, keys=keys)), encoding="utf-8")


@pytest.mark.parametrize("command", ["validate", "agent run"])
def test_a_version_3_index_exits_2_with_the_rebuild_advice(tmp_path, capsys, command):
    corpus = write_corpus(tmp_path, 4)
    out_dir = tmp_path / "idx"
    assert main(["index", "build", "--corpus", corpus, "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    _write_version_3_header(out_dir / "text_index.json")
    argv = (["validate", str(out_dir / "text_index.json")] if command == "validate"
            else agent_run_argv(corpus, agent_script(tmp_path, 4), "--index-dir", str(out_dir)))
    _rebuild_message_exit(argv, capsys, "text_index.json: unsupported index format_version 3")


def test_index_dir_built_with_another_seed_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", corpus, "--out-dir", out_dir, "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    _rebuild_message_exit(
        agent_run_argv(corpus, script, "--seed", "1", "--index-dir", out_dir),
        capsys,
        'error: text index built with provider {"dimension": 64, "kind": "trigram", "seed": 0}, '
        'this run embeds with {"dimension": 64, "kind": "trigram", "seed": 1}',
    )


def test_index_dir_of_an_edited_section_text_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    out_dir = str(tmp_path / "idx")
    assert main(["index", "build", "--corpus", corpus, "--out-dir", out_dir]) == EXIT_OK
    capsys.readouterr()
    articles = [json.loads(line) for line in corpus_lines(4)]
    articles[2]["sections"][1]["text"] = "Edited under the same ids."
    write_jsonl(tmp_path / "corpus.jsonl", [json.dumps(article) for article in articles])
    _rebuild_message_exit(
        agent_run_argv(corpus, script, "--index-dir", out_dir),
        capsys,
        "error: the corpus's section texts are not those the text index was built from (texts_sha256)",
    )


def test_agent_run_prints_transcript(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    script = agent_script(tmp_path, 4)
    code = main(
        [
            "agent",
            "run",
            "--question",
            question(0),
            "--image",
            "img-000",
            "--corpus",
            corpus,
            "--script",
            script,
            "--dimension",
            "256",
            "--k-text",
            "1",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "<text_search>special fact of topic000qq</text_search>" in out
    assert "<evidence>" in out
    assert "terminated_by: answer" in out
    assert "final_answer: val000" in out


def test_agent_batch_then_eval_report(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 6)
    dataset = write_dataset(tmp_path, 3)
    script = agent_script(tmp_path, 6)
    traj_path = str(tmp_path / "trajectories.jsonl")
    code = main(
        [
            "agent",
            "batch",
            "--dataset",
            dataset,
            "--corpus",
            corpus,
            "--out",
            traj_path,
            "--script",
            script,
            "--dimension",
            "256",
            "--k-text",
            "1",
            "--workers",
            "2",
        ]
    )
    assert code == EXIT_OK
    assert "wrote 3 trajectories" in capsys.readouterr().out

    assert main(["validate", traj_path]) == EXIT_OK
    assert "OK (trajectories): 3 trajectories" in capsys.readouterr().out

    prefix = str(tmp_path / "report")
    code = main(
        ["eval", "report", "--trajectories", traj_path, "--dataset", dataset, "--out-prefix", prefix]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "records: 3" in out
    assert "overall accuracy: 100.0%" in out
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert doc["overall_accuracy"] == 100.0
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == out
    assert (tmp_path / "report.csv").read_text(encoding="utf-8").startswith("row,label,")


@pytest.mark.parametrize(
    "flags",
    [["--script", "no-such-script.jsonl"], ["--chat-url", "http://judge"], ["--api-key", "k"],
     ["--metric", "em", "--script", "s.jsonl", "--api-key", "k"]],
    ids=["script", "chat-url", "api-key", "explicit-em"],
)
def test_eval_report_refuses_backend_flags_without_the_judge(tmp_path, capsys, flags):
    # Checked before any file is read: the inputs here do not exist.
    argv = ["eval", "report", "--trajectories", str(tmp_path / "missing.jsonl"), "--dataset",
            str(tmp_path / "missing-qa.jsonl"), "--out-prefix", str(tmp_path / "report"), *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "only --metric judge reads a backend" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_report_em_ignores_a_backend_from_the_config_file_or_environment(tmp_path, capsys, monkeypatch):
    corpus = write_corpus(tmp_path, 2)
    dataset = write_dataset(tmp_path, 2)
    trajectories = str(tmp_path / "trajectories.jsonl")
    argv = ["agent", "batch", "--dataset", dataset, "--corpus", corpus, "--out", trajectories]
    assert main(argv + ["--script", agent_script(tmp_path, 2), "--dimension", "256", "--k-text", "1"]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"script": "no-such-script.jsonl"}), encoding="utf-8")
    monkeypatch.setenv("DBAGENT_CHAT_URL", "http://judge")
    capsys.readouterr()
    assert main(["eval", "report", "--trajectories", trajectories, "--dataset", dataset, "--config", str(cfg)]) == EXIT_OK
    assert "overall accuracy: 100.0%" in capsys.readouterr().out


def test_validate_trajectories_parses_each_turn_once(tmp_path, capsys, monkeypatch):
    from dbagent import protocol

    corpus = write_corpus(tmp_path, 3)
    dataset = write_dataset(tmp_path, 3)
    script = agent_script(tmp_path, 3)
    good = tmp_path / "trajectories.jsonl"
    argv = ["agent", "batch", "--dataset", dataset, "--corpus", corpus, "--out", str(good)]
    assert main(argv + ["--script", script, "--dimension", "256", "--k-text", "1"]) == EXIT_OK
    capsys.readouterr()
    rows = [json.loads(line) for line in good.read_text(encoding="utf-8").splitlines()]
    n_turns = sum(len(row["turns"]) for row in rows)
    assert n_turns >= 6

    # Same files with one defect each: a caption before any image search
    # (strict), the same in lenient mode (allowed), and an unparseable turn.
    variants = {"good": rows}
    caption = json.loads(json.dumps(rows))
    caption[1]["turns"][0]["raw"] = caption[1]["turns"][0]["raw"].replace("</think>", "</think>\n<caption>a tower</caption>")
    variants["caption"] = caption
    lenient = json.loads(json.dumps(caption))
    lenient[1]["config"]["strict_protocol"] = False
    variants["lenient"] = lenient
    garbled = json.loads(json.dumps(rows))
    garbled[2]["turns"][1]["raw"] = "no tags at all"
    variants["garbled"] = garbled

    # Reading the file parses each turn once, as it builds the record;
    # validation reads the violations that parse found.
    calls = []
    parse = protocol._parse
    monkeypatch.setattr(protocol, "_parse", lambda raw: calls.append(raw) or parse(raw))
    results = {}
    for name, variant in variants.items():
        path = write_jsonl(tmp_path / f"{name}.jsonl", [json.dumps(row) for row in variant])
        calls.clear()
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        results[name] = (code, captured.out + captured.err.replace(f"error: {path}: ", ""), len(calls))
    ok = f"OK (trajectories): {len(rows)} trajectories\n"
    assert results == {
        "good": (EXIT_OK, ok, n_turns),
        "caption": (
            EXIT_DATA,
            "1 error(s)\nline 2: turn 1 fails strict validation: <caption> requires an earlier <image_search> turn\n",
            n_turns,
        ),
        "lenient": (EXIT_OK, ok, n_turns),
        # A turn that does not parse ends the read of its trajectory.
        "garbled": (
            EXIT_DATA,
            "1 error(s)\nline 3: turns[1]: raw does not parse (MissingThink, TrailingText, NoAction)\n",
            n_turns - len(rows[2]["turns"]) + 2,
        ),
    }


def _validate_one(tmp_path, capsys, row):
    """``validate``'s exit code and stderr for a trajectory file of ``row``."""
    path = write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(row)])
    code = main(["validate", str(path)])
    return code, capsys.readouterr().err.replace(f"error: {path}: ", "")


def _i_t_a(**changes):
    return {**encode(make_canonical_trajectory("q000", "I-T-A")), **changes}


@pytest.mark.parametrize("terminated_by", ["x", "", "Answer", "backend_error"])
def test_validate_rejects_a_termination_no_rollout_writes(tmp_path, capsys, terminated_by):
    assert _validate_one(tmp_path, capsys, _i_t_a(terminated_by=terminated_by)) == (
        EXIT_DATA,
        f"1 error(s)\nline 1: terminated_by {terminated_by!r} is not one of 'answer', 'budget_exhausted', 'protocol_failure'\n",
    )


@pytest.mark.parametrize("indexes", [[2, 1], [1, 5], [-1, 2], [1, 1], [1], [1, 2, 3], []])
def test_validate_rejects_observations_that_do_not_follow_the_tool_turns(tmp_path, capsys, indexes):
    # I→T→A has two tool turns, and observations pair with them by position,
    # so it must have two. Files written before evidence blocks dropped their
    # turn_index key hold one; it is ignored, whatever number it holds.
    row = _i_t_a()
    row["observations"] = [{**row["observations"][0], "turn_index": i} for i in indexes]
    if len(indexes) == 2:
        assert _validate_one(tmp_path, capsys, row) == (EXIT_OK, "")
        (read,) = read_trajectory_file(tmp_path / "trajectories.jsonl")
        assert read.observations == (make_canonical_trajectory("q000", "I-T-A").observations[0],) * 2
    else:
        assert _validate_one(tmp_path, capsys, row) == (
            EXIT_DATA,
            f"1 error(s)\nline 1: {len(indexes)} observation(s) for 2 tool turn(s)\n",
        )


def test_validate_accepts_every_shape_a_rollout_writes(tmp_path, capsys):
    answered = _i_t_a()
    # A protocol failure on the first generation, and a budget spent on a search.
    no_turns = _i_t_a(turns=[], observations=[], terminated_by="protocol_failure")
    out_of_budget = _i_t_a(terminated_by="budget_exhausted")
    out_of_budget["turns"] = out_of_budget["turns"][:2]
    for row in (answered, no_turns, out_of_budget):
        assert _validate_one(tmp_path, capsys, row) == (EXIT_OK, "")


_RULE_CASES = rule_breaking_trajectories()


@pytest.mark.parametrize("name, fields, message", _RULE_CASES, ids=[name for name, _, _ in _RULE_CASES])
def test_every_reader_refuses_a_line_that_breaks_a_trajectory_rule(tmp_path, capsys, name, fields, message):
    good = encode(make_canonical_trajectory("q001", "T-A", 1))
    trajectories = write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(good), json.dumps(trajectory_json(fields))])
    outcomes = write_jsonl(
        tmp_path / "outcomes.jsonl",
        [
            json.dumps({"sample_id": "q001", "trajectory_type": "T→A", "stages": [], "assembled": t, "difficulty": "medium"})
            for t in (good, trajectory_json(fields))
        ],
    )
    runs = [
        (["validate", str(trajectories)], f"line 2: {message}"),
        (["eval", "report", "--trajectories", str(trajectories), "--dataset", write_dataset(tmp_path, 2)], f"line 2: {message}"),
        (["validate", str(outcomes)], f"line 2: assembled: {message}"),
        (["dataset", "emit", "--outcomes", str(outcomes), "--out", str(tmp_path / "sft.jsonl")], f"line 2: assembled: {message}"),
    ]
    for argv, line in runs:
        assert main(argv) == EXIT_DATA, argv
        assert capsys.readouterr().err.endswith(f"1 error(s)\n{line}\n"), argv
    # The emitter wrote nothing: no dataset, no manifest, no temp file.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.jsonl", "outcomes.jsonl", "trajectories.jsonl"]


@pytest.mark.parametrize(
    "key, value",
    [("think", "Edited."), ("payload", "edited query"), ("caption", None), ("action", "image_search")],
)
def test_validate_reads_a_turn_from_its_raw_alone(tmp_path, capsys, key, value):
    # Files written before turns were stored as their raw alone hold the
    # parsed fields beside it; an edited copy of one is ignored.
    row = _i_t_a()
    row["turns"][1][key] = value
    assert _validate_one(tmp_path, capsys, row) == (EXIT_OK, "")
    assert read_trajectory_file(tmp_path / "trajectories.jsonl") == [make_canonical_trajectory("q000", "I-T-A")]


def test_eval_report_refuses_trajectories_of_other_questions(tmp_path, capsys):
    # Each sample's question and image ref swapped with the next sample's:
    # every id still joins, but no trajectory asks its sample's question.
    rows = [json.dumps(encode(make_canonical_trajectory(f"q00{i}", "A", i))) for i in range(2)]
    path = write_jsonl(tmp_path / "trajectories.jsonl", rows)
    first, second = qa_obj(0), qa_obj(1)
    for key in ("question", "image_ref"):
        first[key], second[key] = second[key], first[key]
    dataset = write_jsonl(tmp_path / "dataset.jsonl", [json.dumps(first), json.dumps(second)])
    assert main(["eval", "report", "--trajectories", str(path), "--dataset", str(dataset)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trajectory 'q000' has question ")
    assert "Traceback" not in captured.err


def test_a_stored_final_answer_its_turns_do_not_hold_is_ignored(tmp_path, capsys):
    # The final answer is the answer turn's payload, whatever the line says.
    row = {**encode(make_canonical_trajectory("q000", "T-A")), "final_answer": "edited answer"}
    path = write_jsonl(tmp_path / "trajectories.jsonl", [json.dumps(row)])
    assert main(["validate", str(path)]) == EXIT_OK
    report = ["eval", "report", "--trajectories", str(path), "--dataset", write_dataset(tmp_path, 1)]
    assert main(report) == EXIT_OK
    assert "overall accuracy: 100.0%" in capsys.readouterr().out


def test_dataset_emit_holds_one_outcome_at_a_time(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    dataset = write_dataset(tmp_path, 3)
    rules = [rule for i, route in ((0, "A"), (1, "T-A"), (2, "I-A")) for rule in factory_rules(i, route)]
    outcomes_path = tmp_path / "outcomes.jsonl"
    argv = ["factory", "build", "--dataset", dataset, "--corpus", corpus, "--out", str(outcomes_path)]
    assert main([*argv, "--script", write_script(tmp_path, rules)]) == EXIT_OK
    lines = outcomes_path.read_text(encoding="utf-8").splitlines()
    peaks = {}
    for n in (30, 120):
        path = write_jsonl(tmp_path / f"outcomes-{n}.jsonl", lines * (n // len(lines)))
        emit = ["dataset", "emit", "--outcomes", str(path), "--out", str(tmp_path / f"sft-{n}.jsonl")]
        main(emit)  # warm: the first run loads the prompt and compiles the decoders
        code, peaks[n] = traced_peak(lambda: main(emit))
        assert code == EXIT_OK
    assert f"emitted {120} samples" in capsys.readouterr().out
    # Holding the decoded outcomes would add ~90 outcomes to the peak, more
    # than the whole peak of the 30-outcome run.
    assert peaks[120] < 1.25 * peaks[30], peaks

    # A bad line raises after the last good one: the old dataset stays whole.
    before = (tmp_path / "sft-30.jsonl").read_bytes()
    bad = write_jsonl(tmp_path / "outcomes-bad.jsonl", lines * 10 + ["{not json"])
    assert main(["dataset", "emit", "--outcomes", str(bad), "--out", str(tmp_path / "sft-30.jsonl")]) == EXIT_DATA
    assert "line 31" in capsys.readouterr().err
    assert (tmp_path / "sft-30.jsonl").read_bytes() == before


def test_factory_emit_validate_chain(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    dataset = write_dataset(tmp_path, 3)
    rules = []
    for i, route in ((0, "A"), (1, "T-A"), (2, "I-A")):
        rules.extend(factory_rules(i, route))
    script = write_script(tmp_path, rules)

    outcomes_path = str(tmp_path / "outcomes.jsonl")
    code = main(
        [
            "factory",
            "build",
            "--dataset",
            dataset,
            "--corpus",
            corpus,
            "--out",
            outcomes_path,
            "--script",
            script,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote 3 outcomes" in out
    assert "A: 1" in out and "T→A: 1" in out and "I→A: 1" in out

    assert main(["validate", outcomes_path]) == EXIT_OK
    assert "OK (outcomes): 3 outcomes" in capsys.readouterr().out

    sft_path = str(tmp_path / "sft.jsonl")
    code = main(["dataset", "emit", "--outcomes", outcomes_path, "--out", sft_path])
    assert code == EXIT_OK
    assert "emitted 3 samples" in capsys.readouterr().out

    assert main(["validate", sft_path]) == EXIT_OK
    assert "3 samples, masks sound" in capsys.readouterr().out
    assert main(["validate", sft_path + ".manifest.json"]) == EXIT_OK
    assert "manifest for 3 samples" in capsys.readouterr().out


def test_validate_rejects_unsound_sft_mask(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 2)
    dataset = write_dataset(tmp_path, 1)
    script = write_script(tmp_path, factory_rules(0, "T-A"))
    outcomes_path = str(tmp_path / "outcomes.jsonl")
    sft_path = tmp_path / "sft.jsonl"
    main(["factory", "build", "--dataset", dataset, "--corpus", corpus, "--out", outcomes_path, "--script", script])
    main(["dataset", "emit", "--outcomes", outcomes_path, "--out", str(sft_path)])
    capsys.readouterr()

    rows = [json.loads(line) for line in sft_path.read_text(encoding="utf-8").splitlines()]
    for segment in rows[0]["segments"]:
        if segment["role"] == "observation":
            segment["supervise"] = True
            break
    sft_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

    assert main(["validate", str(sft_path), "--kind", "sft"]) == EXIT_DATA
    assert "mask soundness violated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('"sft.jsonl"', "expected object, got string"),
        ('{"emitter_version": 1, "total": "lots", "dataset_sha256": null}', "emitter_version: expected string, got integer"),
        ('{"emitter_version": "v", "total": 1, "dataset_sha256": "0"}', "missing 'dropped_over_cap'"),
    ],
)
def test_validate_decodes_a_manifest(tmp_path, capsys, doc, message):
    path = tmp_path / "sft.jsonl.manifest.json"
    path.write_text(doc + "\n", encoding="utf-8")
    assert main(["validate", str(path), "--kind", "manifest"]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_validate_script_and_dataset_kinds(tmp_path, capsys):
    script = agent_script(tmp_path, 2)
    assert main(["validate", script]) == EXIT_OK
    assert "OK (script): 4 rules" in capsys.readouterr().out

    dataset = write_dataset(tmp_path, 2)
    assert main(["validate", dataset]) == EXIT_OK
    assert "OK (dataset): 2 samples" in capsys.readouterr().out


def test_validate_auto_kind_lists_every_bad_line(tmp_path, capsys):
    path = tmp_path / "qa.jsonl"
    lines = ["not json", json.dumps(qa_obj(0)), json.dumps(qa_obj(1, question=""))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for kind in ("auto", "dataset"):
        assert main(["validate", str(path), "--kind", kind]) == EXIT_DATA
        outputs.append(capsys.readouterr().err)
    assert outputs[0] == outputs[1]
    assert "2 error(s)\nline 1: invalid JSON" in outputs[0]
    assert "\nline 3: " in outputs[0]


def test_validate_auto_kind_without_a_json_line_keeps_its_error(tmp_path, capsys):
    path = tmp_path / "notes.jsonl"
    path.write_text("not json\n\nstill not\n", encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_DATA
    assert f"{path}: not JSON or JSONL (Expecting value)" in capsys.readouterr().err


def test_eval_topk_grid_cli(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 4)
    dataset = write_dataset(tmp_path, 2)
    script = agent_script(tmp_path, 4)
    prefix = str(tmp_path / "grid")
    code = main(
        [
            "eval",
            "topk-grid",
            "--dataset",
            dataset,
            "--corpus",
            corpus,
            "--script",
            script,
            "--dimension",
            "256",
            "--text-ks",
            "0,1",
            "--image-ks",
            "1,2",
            "--out-prefix",
            prefix,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "text_k \\ image_k" in out
    # A k below 1 fails its own cells only.
    assert out.splitlines()[3].split() == ["0", "ERR", "ERR"]
    assert out.splitlines()[4].split() == ["1", "100.0", "100.0"]
    doc = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))
    assert set(doc) == {"text0_image1", "text0_image2", "text1_image1", "text1_image2"}
    assert doc["text0_image1"] == {"error": "k_text must be >= 1, got 0"}


def test_eval_kb_scale_cli(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 6)
    dataset = write_dataset(tmp_path, 2)
    script = agent_script(tmp_path, 6)
    code = main(
        [
            "eval",
            "kb-scale",
            "--dataset",
            dataset,
            "--corpus",
            corpus,
            "--script",
            script,
            "--dimension",
            "256",
            "--k-text",
            "1",
            "--sizes",
            "4,6",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("size")
    assert len(out.splitlines()) == 3
    assert out.count("100.0") >= 2


def test_kb_scale_recall_is_over_every_applicable_sample(tmp_path, capsys, monkeypatch):
    # 9 T→A samples that hit and 1 I→T→A that misses: 9 of 10 hit, where
    # the mean of the two per-type recalls would read 50.0.
    records = [EvalRecord(f"s{i}", "T→A", True, True, 1) for i in range(9)]
    records.append(EvalRecord("s9", "I→T→A", False, False, 2))
    no_retrieval = [EvalRecord("s0", "A", True, None, 0)]
    series = [{"size": 10, "report": aggregate(records)}, {"size": 20, "report": aggregate(no_retrieval)}]
    monkeypatch.setattr("dbagent.cli.run_kb_scale", lambda *args, **kwargs: series)
    corpus, dataset = write_corpus(tmp_path, 2), write_dataset(tmp_path, 1)
    script = agent_script(tmp_path, 2)
    assert main(["eval", "kb-scale", "--dataset", dataset, "--corpus", corpus, "--script", script]) == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["10", "90.0", "90.0"], ["20", "100.0", "-"]]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["index", "build", "--corpus", "CORPUS", "--out-dir", "OUT", "--dimension", "0"],
         "embedding dimension must be >= 1, got 0"),
        (["agent", "run", "--question", "q?", "--corpus", "CORPUS", "--script", "SCRIPT", "--k-text", "0"],
         "k_text must be >= 1, got 0"),
        (["agent", "batch", "--dataset", "DATASET", "--corpus", "CORPUS", "--script", "SCRIPT", "--out", "OUT",
          "--k-image", "0"], "k_image must be >= 1, got 0"),
        (["factory", "build", "--dataset", "DATASET", "--corpus", "CORPUS", "--script", "SCRIPT", "--out", "OUT",
          "--dimension", "-1"], "embedding dimension must be >= 1, got -1"),
    ],
    ids=["index-build-dimension", "agent-run-k-text", "agent-batch-k-image", "factory-build-dimension"],
)
def test_an_out_of_range_setting_exits_2_before_any_work(tmp_path, capsys, argv, error):
    files = {
        "OUT": str(tmp_path / "out"),
        "CORPUS": write_corpus(tmp_path, 2),
        "DATASET": write_dataset(tmp_path, 2),
        "SCRIPT": write_script(tmp_path, factory_rules(0, "A")),
    }
    assert main([files.get(arg, arg) for arg in argv]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not (tmp_path / "out").exists()


def test_bad_sizes_list_exits_2(tmp_path, capsys):
    corpus = write_corpus(tmp_path, 2)
    dataset = write_dataset(tmp_path, 1)
    script = agent_script(tmp_path, 2)
    code = main(
        ["eval", "kb-scale", "--dataset", dataset, "--corpus", corpus, "--script", script, "--sizes", "4,x"]
    )
    assert code == EXIT_DATA
    assert "bad sizes list" in capsys.readouterr().err
