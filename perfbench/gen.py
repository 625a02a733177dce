"""Seeded inputs for the benchmark: corpus, QA set, plans, replay script.

Everything here is a pure function of ``(workload sizes, seed)``. Text is
built from fixed-length pseudo-words, and each plan kind gets an exact task
count at fixed positions, so two seeds produce inputs of the same shape and
cost; only the content differs.

Conventions the plans rely on:

* Every article owns a unique two-word title. Each of its sections reads
  ``"{title} {heading}: {eight words} {number}"``; the four-digit number is
  the fact a question asks for. Questions quote the passage without its
  number, so a text search for that passage (or for anything that contains
  it) ranks the gold section first under the trigram embedder.
* Pseudo-words contain no digits, so no think, caption or query text can
  name a gold answer by accident.
* Each task gets its own article, so questions are unique and the stand-in
  models can look a task up by its question text.

The program receives only the written files (corpus, QA set, replay
script). The stand-in models are handed the plans directly: they play the
part of the model server.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
HEADINGS = ("Overview", "History", "Landmark", "Economy", "Heritage")
PASSAGE_WORDS = 8

# Plan stage of each factory answer prompt (the stage-2 and stage-3
# templates differ by branch); the stage model tells stages apart by them.
STAGE_OF_TEMPLATE = {
    "stage1_answer": "stage1",
    "stage2_image_answer": "stage2",
    "stage2_text_answer": "stage2",
    "stage3_image_answer": "stage3",
    "stage3_text_answer": "stage3",
}


class Words:
    """Seeded source of fixed-length pseudo-words (three CV syllables)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self) -> str:
        r = self.rng
        return "".join(r.choice(CONSONANTS) + r.choice(VOWELS) for _ in range(3))

    def text(self, n: int) -> str:
        return " ".join(self.word() for _ in range(n))


@dataclass(frozen=True)
class Article:
    article_id: str
    title: str
    image_id: str
    passages: tuple[str, ...]  # section text without its trailing number
    numbers: tuple[str, ...]

    def section_text(self, j: int) -> str:
        return f"{self.passages[j]} {self.numbers[j]}"


def make_articles(n: int, rng: random.Random) -> list[Article]:
    words = Words(rng)
    titles: set[str] = set()
    out = []
    for i in range(n):
        title = ""
        while not title or title in titles:
            title = f"{words.word().capitalize()} {words.word().capitalize()}"
        titles.add(title)
        passages = tuple(f"{title} {h}: {words.text(PASSAGE_WORDS)}" for h in HEADINGS)
        numbers = tuple(str(rng.randrange(1000, 9000)) for _ in HEADINGS)
        out.append(
            Article(
                article_id=f"art-{i:06d}",
                title=title,
                image_id=f"img-{i:06d}-{words.word()}",
                passages=passages,
                numbers=numbers,
            )
        )
    return out


def write_corpus(articles: list[Article], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for a in articles:
            obj = {
                "article_id": a.article_id,
                "title": a.title,
                "sections": [
                    {"section_id": f"s{j + 1}", "heading": h, "text": a.section_text(j)}
                    for j, h in enumerate(HEADINGS)
                ],
                "images": [{"image_id": a.image_id, "uri": f"images/{a.image_id}.jpg"}],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


@dataclass
class Task:
    """One QA sample plus what the plan says must come out of it."""

    sample_id: str
    kind: str
    article: Article
    section: int
    image_ref: str
    question: str
    gold: str
    # rollouts: the agent's generations by generation index
    generations: list[str] = field(default_factory=list)
    # factory: stage key -> outputs by attempt
    stage_outputs: dict[str, list[str]] = field(default_factory=dict)
    expect_route: tuple[str, ...] | str = ()
    expect_termination: str = "answer"
    expect_answer: str | None = None
    expect_discard: str | None = None

    @property
    def passage(self) -> str:
        return self.article.passages[self.section]

    def qa_record(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "image_ref": self.image_ref,
            "question": self.question,
            "answers": [self.gold],
            "gold_entity": self.article.title,
            "gold_article_id": self.article.article_id,
            "split": "train",
        }


def write_qa(tasks: list[Task], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for t in tasks:
            fh.write(json.dumps(t.qa_record(), ensure_ascii=False) + "\n")


def interleaved_kinds(n: int, mix: dict[str, float]) -> list[str]:
    """Kinds for n tasks in the exact proportions of ``mix`` (remainder to
    the first kind), spread evenly over the task list. Every seed gets the
    same kind at the same position, so per-task costs line up across seeds
    (the replay backend's cost grows with a sample's position)."""
    counts = {k: int(n * share) for k, share in mix.items()}
    first = next(iter(mix))
    counts[first] += n - sum(counts.values())
    slots = sorted(((j + 0.5) / c, i, k) for i, (k, c) in enumerate(counts.items()) for j in range(c))
    return [k for _, _, k in slots]


def _tasks(prefix: str, n: int, mix: dict[str, float], articles: list[Article], rng: random.Random):
    kinds = interleaved_kinds(n, mix)
    chosen = rng.sample(range(len(articles)), n)
    for i, (kind, idx) in enumerate(zip(kinds, chosen)):
        article = articles[idx]
        section = rng.randrange(len(HEADINGS))
        sample_id = f"{prefix}-{i:05d}"
        question = (
            f"Which number completes the passage '{article.passages[section]}'? [{sample_id}]"
        )
        yield Task(
            sample_id=sample_id,
            kind=kind,
            article=article,
            section=section,
            image_ref=article.image_id,
            question=question,
            gold=article.numbers[section],
        )


def wrong_answer(gold: str) -> str:
    return str(int(gold) + 1)


# --- agent plans (rollout workloads) -------------------------------------


def _turn(think: str, action: str, payload: str, caption: str | None = None) -> str:
    cap = f"<caption>{caption}</caption>" if caption is not None else ""
    return f"<think>{think}</think>{cap}<{action}>{payload}</{action}>"


# Generations that break the protocol, one per violation the runtime must
# catch; each ends at a closing action tag, as a stop-sequence-honouring
# model would.
def _violations(words: Words, think_words: int, gold: str) -> list[str]:
    think = words.text(think_words)
    return [
        f"<answer>{gold}</answer>",  # MissingThink
        f"<think>{think}</think><lookup>{words.word()}</lookup><answer>{gold}</answer>",  # UnknownTag
        _turn(think, "text_search", words.text(4), caption=words.text(think_words // 4)),  # caption, no image search
        _turn(think, "image_search", "photo.jpg"),  # BadImagePayload
        f"<think>{think}</think>{words.text(3)}<answer>{gold}</answer>",  # stray text
    ]


ROLLOUT_LARGE_MIX = {"T>A": 0.35, "I>T>A": 0.30, "T>T>A": 0.30, "T>A wrong": 0.05}
ROLLOUT_SMALL_MIX = {
    "A": 0.30,
    "A wrong": 0.10,
    "viol>A": 0.20,
    "viol>viol": 0.10,
    "T>A": 0.15,
    "I>T>A": 0.10,
    "budget": 0.05,
}


def plan_rollouts(
    prefix: str,
    n: int,
    mix: dict[str, float],
    articles: list[Article],
    rng: random.Random,
    think_words: int,
    budget: int,
) -> list[Task]:
    words = Words(rng)
    tasks = list(_tasks(prefix, n, mix, articles, rng))

    def think() -> str:
        return words.text(think_words)

    for k, t in enumerate(tasks):
        answer = _turn(think(), "answer", t.gold)
        search = _turn(think(), "text_search", t.passage)
        if t.kind == "A":
            t.generations = [answer]
            t.expect_route, t.expect_answer = ("answer",), t.gold
        elif t.kind == "A wrong":
            t.generations = [_turn(think(), "answer", wrong_answer(t.gold))]
            t.expect_route, t.expect_answer = ("answer",), wrong_answer(t.gold)
        elif t.kind == "viol>A":
            bad = _violations(words, think_words, t.gold)
            t.generations = [bad[k % len(bad)], answer]
            t.expect_route, t.expect_answer = ("answer",), t.gold
        elif t.kind == "viol>viol":
            bad = _violations(words, think_words, t.gold)
            t.generations = [bad[k % len(bad)], bad[(k + 1) % len(bad)]]
            t.expect_route, t.expect_termination = (), "protocol_failure"
        elif t.kind == "T>A":
            t.generations = [search, answer]
            t.expect_route, t.expect_answer = ("text_search", "answer"), t.gold
        elif t.kind == "T>A wrong":
            wrong = wrong_answer(t.gold)
            t.generations = [search, _turn(think(), "answer", wrong)]
            t.expect_route, t.expect_answer = ("text_search", "answer"), wrong
        elif t.kind == "I>T>A":
            caption = f"The image shows {t.article.title}. {words.text(think_words // 2)}"
            t.generations = [
                _turn(think(), "image_search", "image_path"),
                _turn(think(), "text_search", t.passage, caption=caption),
                answer,
            ]
            t.expect_route, t.expect_answer = ("image_search", "text_search", "answer"), t.gold
        elif t.kind == "T>T>A":
            vague = f"{t.article.title} {words.text(3)}"
            t.generations = [_turn(think(), "text_search", vague), search, answer]
            t.expect_route, t.expect_answer = ("text_search", "text_search", "answer"), t.gold
        elif t.kind == "budget":
            t.generations = [_turn(think(), "text_search", t.passage) for _ in range(budget)]
            t.expect_route = ("text_search",) * budget
            t.expect_termination = "budget_exhausted"
        else:
            raise ValueError(f"unknown rollout plan kind {t.kind!r}")
    return tasks


# --- factory plans -------------------------------------------------------

FACTORY_MIX = {"A": 0.20, "I>A": 0.15, "T>A": 0.20, "I>T>A": 0.15, "T>T>A": 0.20, "discard": 0.10}
# Replay samples all take two model calls, so the latency of a sample grows
# smoothly with its position in the script and p50/p95 sit on no step
# between routes of different call counts.
REPLAY_MIX = {"I>A": 0.50, "T>A": 0.50}
FACTORY_LABEL = {"A": "A", "I>A": "I→A", "T>A": "T→A", "I>T>A": "I→T→A", "T>T>A": "T→T→A"}
STAGE3_WRONG = "stage3 answer judged wrong"


def plan_factory(
    prefix: str,
    n: int,
    mix: dict[str, float],
    articles: list[Article],
    rng: random.Random,
    think_words: int,
    retry_share: float,
) -> list[Task]:
    """Stage outputs per sample for the normalized-exact factory.

    Routing follows the factory's rules: a wrong stage-1 answer with the
    gold entity goes to the text branch, with another entity to the image
    branch. ``retry_share`` of samples get one malformed output (no closing
    answer tag) before a good one, so the stage-parse retry path runs.
    """
    words = Words(rng)
    tasks = list(_tasks(prefix, n, mix, articles, rng))
    for k, t in enumerate(tasks):
        title, gold, wrong = t.article.title, t.gold, wrong_answer(t.gold)
        image_branch = t.kind in ("I>A", "I>T>A") or (t.kind == "discard" and k % 2 == 0)
        entity = title
        if image_branch:
            entity = rng.choice(articles).title
            while entity == title:
                entity = rng.choice(articles).title

        def answer(value: str) -> str:
            return f"<think>{words.text(think_words)}</think>\n<answer>{value}</answer>"

        stage1_value = gold if t.kind == "A" else wrong
        outs = {
            "stage1": [
                f"<think>{words.text(think_words)}</think>\n<entity>{entity}</entity>\n"
                f"<answer>{stage1_value}</answer>"
            ]
        }
        if t.kind != "A":
            outs["stage2"] = [answer(gold if t.kind in ("I>A", "T>A") else wrong)]
        if t.kind in ("I>T>A", "T>T>A", "discard"):
            outs["stage3"] = [answer(wrong if t.kind == "discard" else gold)]
        if int((k + 1) * retry_share) > int(k * retry_share):
            stage = sorted(outs)[k % len(outs)]
            good = outs[stage][0]
            outs[stage] = [good.replace("</answer>", ""), good]
        t.stage_outputs = outs
        if t.kind == "discard":
            t.expect_route, t.expect_answer, t.expect_discard = "DISCARDED", None, STAGE3_WRONG
        else:
            t.expect_route, t.expect_answer = FACTORY_LABEL[t.kind], gold
    return tasks


def write_replay_script(tasks: list[Task], path: Path) -> int:
    """Pattern rules as a recorded factory run would replay them.

    Each stage prompt's user message starts with ``[question] ...``; later
    stages add more lines, so per sample the stage-3 rule comes first and
    the stage-1 rule (which must match the whole message) last. Returns the
    rule count.
    """
    n_rules = 0
    with path.open("w", encoding="utf-8") as fh:
        for t in tasks:
            tag = re.escape(f"[{t.sample_id}]")
            head = rf"\A\[question\] [^\n]*{tag}"
            patterns = {
                "stage3": head + r"\n.*\n\[stage3_query\] ",
                "stage2": head + r"\n\[stage1_output\] ",
                "stage1": head + r"\Z",
            }
            for stage, pattern in patterns.items():
                if stage in t.stage_outputs:
                    rule = {"match": {"pattern": pattern}, "output": t.stage_outputs[stage][-1]}
                    fh.write(json.dumps(rule, ensure_ascii=False) + "\n")
                    n_rules += 1
    return n_rules


# --- stand-in models -----------------------------------------------------


class StandInAgent:
    """The agent model for rollout workloads: replays each task's planned
    generations, found by the question in the first user message."""

    def __init__(self, tasks: list[Task]):
        self.by_question = {t.question: t.generations for t in tasks}

    def complete(self, messages, params, turn_index: int = 0) -> str:
        return self.by_question[messages[1].content][turn_index]


class StandInStageModel:
    """The stage model for ``factory_sft``: looks up the sample by the
    question line of the user message and the stage by the system prompt."""

    def __init__(self, tasks: list[Task], load_prompt):
        self.by_question = {t.question: t.stage_outputs for t in tasks}
        self.stage_of = {load_prompt(name): stage for name, stage in STAGE_OF_TEMPLATE.items()}

    def complete(self, messages, params, turn_index: int = 0) -> str:
        content = messages[1].content
        end = content.find("\n")
        question = content[len("[question] ") : end if end >= 0 else len(content)]
        outputs = self.by_question[question][self.stage_of[messages[0].content]]
        return outputs[min(turn_index, len(outputs) - 1)]
