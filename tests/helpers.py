"""Shared fixture builders for the test suite.

Synthetic corpora follow one convention: article ``i`` owns the unique
marker token ``topicNNNqq`` and the fact string ``valNNN``. Queries that
quote a marker verbatim share many character trigrams with that article's
sections, so the deterministic embedder ranks the right article first by a
wide margin — which keeps scripted rollouts and factory routes predictable.
"""

from __future__ import annotations

import json
import math
import random
import re
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from dbagent.evaluation import EvalRecord
from dbagent.factory import QaSample
from dbagent.gateway import ScriptedBackend, ScriptedRule
from dbagent.kb import Corpus, ImageAttachment, KbArticle, SectionChunk, parse_corpus_lines
from dbagent.protocol import ActionKind, EvidenceItem, make_turn, render_evidence
from dbagent.retrieval import DeterministicEmbedder, Index, build_image_index, build_text_index
from dbagent.runtime import ImageRetriever, TextRetriever, ToolBinding, Trajectory
from dbagent.wire import encode


def marker(i: int) -> str:
    return f"topic{i:03d}qq"


def value(i: int) -> str:
    return f"val{i:03d}"


def article_obj(i: int, n_sections: int = 2, with_image: bool = True) -> dict:
    m, v = marker(i), value(i)
    sections = [
        {
            "section_id": f"a{i:03d}-s0",
            "heading": "Lead",
            "text": f"The article about {m} explains that the special fact of {m} is {v}.",
        }
    ]
    for s in range(1, n_sections):
        # Filler words and length vary per (article, section) so no two
        # distinct sections are mathematically tied against any probe; exact
        # ties only come from deliberately identical texts.
        filler = " ".join(f"note{(i * 13 + s * 7 + j) % 97:02d}" for j in range(3 + (i + s) % 4))
        sections.append(
            {
                "section_id": f"a{i:03d}-s{s}",
                "heading": f"Part {s}",
                "text": f"Further notes on {m}, chapter {s}: {filler}.",
            }
        )
    obj = {
        "article_id": f"a{i:03d}",
        "title": f"Topic {i} {m}",
        "sections": sections,
    }
    if with_image:
        obj["images"] = [{"image_id": f"img-{i:03d}", "uri": f"images/{m}.jpg"}]
    return obj


def corpus_lines(n: int, n_sections: int = 2, with_image: bool = True) -> list[str]:
    return [json.dumps(article_obj(i, n_sections, with_image)) for i in range(n)]


def make_corpus(n: int, n_sections: int = 2, with_image: bool = True) -> Corpus:
    return parse_corpus_lines(corpus_lines(n, n_sections, with_image))


def write_jsonl(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_tools(corpus, dimension=64, seed=0) -> ToolBinding:
    embedder = DeterministicEmbedder(dimension=dimension, seed=seed)
    text_index = build_text_index(corpus, embedder)
    image_index = build_image_index(corpus, embedder)
    return ToolBinding(
        text_retriever=TextRetriever(text_index, embedder, corpus),
        image_retriever=ImageRetriever(image_index, embedder, corpus),
    )


def index_of(pairs, matrix, modality: str = "text") -> Index:
    """An index of ``matrix`` whose rows hold records named by ``pairs``:
    (article_id, section_id) per text row, (image_id, article_id) per image
    row, in the given order. Each article id is one ``KbArticle`` that owns
    its rows' sections (text) or images (image)."""
    text = modality == "text"
    rows = [(first, second) if text else (second, first) for first, second in pairs]  # (article id, entry id)
    if text:
        entries = [SectionChunk(eid, "H", f"{aid} {eid}") for aid, eid in rows]
    else:
        entries = [ImageAttachment(eid, f"u/{eid}") for _, eid in rows]
    owned: dict[str, list] = {}
    for (aid, _), entry in zip(rows, entries):
        owned.setdefault(aid, []).append(entry)
    lead = SectionChunk("s", "H", "lead")
    articles = {
        aid: KbArticle(aid, aid, tuple(own)) if text else KbArticle(aid, aid, (lead,), tuple(own))
        for aid, own in owned.items()
    }
    return Index(
        matrix=matrix, modality=modality, articles=tuple(articles[aid] for aid, _ in rows), entries=tuple(entries)
    )


def question(i: int) -> str:
    return f"What is the special fact of {marker(i)}?"


def qa_obj(i: int, **overrides) -> dict:
    obj = {
        "sample_id": f"q{i:03d}",
        "image_ref": f"img-{i:03d}",
        "question": question(i),
        "answers": [value(i)],
        "gold_entity": f"Topic {i} {marker(i)}",
        "gold_article_id": f"a{i:03d}",
    }
    obj.update(overrides)
    return obj


def qa_sample(i: int, **overrides) -> QaSample:
    obj = qa_obj(i, **overrides)
    answers = obj["answers"]
    if isinstance(answers, str):
        answers = answers.split("|")
    return QaSample(
        sample_id=obj["sample_id"],
        image_ref=obj["image_ref"],
        question=obj["question"],
        answers=tuple(answers),
        gold_entity=obj.get("gold_entity"),
        gold_article_id=obj.get("gold_article_id"),
        split=obj.get("split", "train"),
    )


# --- independent retrieval oracle ----------------------------------------


def _unit(vec) -> list[float]:
    values = [float(x) for x in vec]
    norm = math.sqrt(sum(x * x for x in values))
    if norm == 0.0:
        values[0] = 1.0
        return values
    return [x / norm for x in values]


def oracle_text_topk(corpus: Corpus, provider, query: str, k: int) -> list[tuple[str, str]]:
    """Exhaustive cosine scan in plain Python; ties ascend by (article, section)."""
    return OracleTextScan(corpus, provider).topk(query, k)


def oracle_image_topk(corpus: Corpus, provider, image_ref: str, k: int) -> list[tuple[str, str]]:
    """Scan images, rank by cosine (ties ascend by image_id), then keep the
    first (= best) image per article."""
    return OracleImageScan(corpus, provider).topk(image_ref, k)


class OracleTextScan:
    """Exhaustive cosine scan in plain Python, reusing the provider's vectors
    but nothing else from the numpy search path. Section vectors are embedded
    once so a probe costs one query embed plus a full scan."""

    def __init__(self, corpus: Corpus, provider):
        self._provider = provider
        self._rows = []
        for art in corpus.articles.values():
            for sec in art.sections:
                vec = _unit(provider.embed([sec.text])[0])
                self._rows.append((art.article_id, sec.section_id, vec))

    def ranking(self, query: str) -> list[tuple[str, str]]:
        qvec = _unit(self._provider.embed([query])[0])
        scored = [
            (-sum(a * b for a, b in zip(qvec, svec)), aid, sid)
            for aid, sid, svec in self._rows
        ]
        scored.sort()
        return [(aid, sid) for _, aid, sid in scored]

    def topk(self, query: str, k: int) -> list[tuple[str, str]]:
        return self.ranking(query)[:k]


class OracleImageScan:
    """Image-side twin of OracleTextScan: rank every image, break ties on
    image_id, then keep the first image per article."""

    def __init__(self, corpus: Corpus, provider):
        self._provider = provider
        self._rows = []
        for art in corpus.articles.values():
            for img in art.images:
                vec = _unit(provider.embed([img.image_id])[0])
                self._rows.append((img.image_id, art.article_id, vec))

    def topk(self, image_ref: str, k: int) -> list[tuple[str, str]]:
        qvec = _unit(self._provider.embed([image_ref])[0])
        scored = [
            (-sum(a * b for a, b in zip(qvec, ivec)), iid, aid)
            for iid, aid, ivec in self._rows
        ]
        scored.sort()
        out: list[tuple[str, str]] = []
        seen: set[str] = set()
        for _, iid, aid in scored:
            if aid in seen:
                continue
            seen.add(aid)
            out.append((aid, iid))
            if len(out) == k:
                break
        return out


# --- ranking-exactness fixture --------------------------------------------
#
# The template corpus above is fine for rollouts, but exact rank-order
# comparison against an oracle needs stronger guarantees: any two sections
# competing for a top-k slot must either have a materially different score or
# be literally identical texts (identical texts embed to bit-identical
# vectors, so both search paths break the tie by identifier the same way).
# Articles here are "islands": letter-coded markers share no common affix, so
# cross-article similarity stays near zero, and each article carries its own
# graded ladder of sections. Probe generators additionally screen every
# candidate so that all adjacent gaps in the decided region are material —
# accidental hash-collision ties get skipped instead of tuned around.

_CODE_LETTERS = "bcdfghjklmnpqrstvwxz"

DUPLICATE_PASSAGE = "shared duplicate passage uu vv ww"
TIE_IMAGE_IDS = ("bvwbv", "vwbvw", "wbvwb")  # equal trigram multisets


def _code_alpha(position: int) -> list[str]:
    return [_CODE_LETTERS[(position * 7 + j) % 20] for j in range(10)]


def _island_code(i: int, offset: int) -> str:
    digits = [int(c) for c in f"{i:03d}"]
    return "".join(_code_alpha(offset + p)[digits[p % 3]] for p in range(6))


def island_text_code(i: int) -> str:
    return _island_code(i, 0)


def island_image_code(i: int) -> str:
    # Digit tails vary the id lengths (and so the vector norms) without
    # reusing the letter alphabet, which could recreate another id's
    # substring.
    return _island_code(i, 3) + str(i)[: i % 4]


def _island_variant(i: int, j: int) -> str:
    digits = [int(c) for c in f"{i:03d}"]
    base = "".join(_code_alpha(p)[digits[p % 3]] for p in range(5))
    return base + _code_alpha(5)[(digits[2] + j) % 10]


def island_article_obj(i: int, n: int) -> dict:
    code = island_text_code(i)
    v1, v2, v3 = (_island_variant(i, j) for j in (1, 2, 3))
    texts = [
        " ".join([code] * 4),
        " ".join([code] * 3 + [v1]),
        " ".join([code] * 2 + [v1, v2]),
        " ".join([code, v1, v2, v3]),
        " ".join([code, v1, v2, v3, v1, v2, v3]),
    ]
    if n - 10 <= i < n:
        texts[2] = DUPLICATE_PASSAGE
    image_id = island_image_code(i)
    if n - 13 <= i < n - 10:
        image_id = TIE_IMAGE_IDS[i - (n - 13)]
    return {
        "article_id": f"a{i:03d}",
        "title": f"Island {i} {code}",
        "sections": [
            {"section_id": f"a{i:03d}-s{s}", "heading": f"Part {s}", "text": texts[s]}
            for s in range(5)
        ],
        "images": [{"image_id": image_id, "uri": f"images/{code}.jpg"}],
    }


def make_island_corpus(n: int = 200) -> Corpus:
    assert n >= 20, "needs room for the duplicate and tie blocks"
    return parse_corpus_lines([json.dumps(island_article_obj(i, n)) for i in range(n)])


def _material_gaps(scores: list[float], depth: int, floor: float = 1e-9) -> bool:
    """True when every adjacent gap among the first `depth`+1 scores is far
    above float-rounding noise, so no decided position rests on a tie."""
    if len(scores) <= depth:
        return False
    return all(a - b >= floor for a, b in zip(scores, scores[1 : depth + 1]))


def island_text_probes(index, provider, n_articles: int, seed: int = 7) -> list[str]:
    """90 screened probes (singles plus weighted multi-island queries) plus 10
    probes that land on the identical-text block to pin down tie order."""
    from dbagent.retrieval import text_search

    rng = random.Random(seed)
    pool = n_articles - 10  # keep clear of the duplicate block

    def admit(q: str, out: list[str], want: int) -> None:
        if len(out) >= want:
            return
        hits = text_search(index, provider, q, k=8)
        if _material_gaps([h.score for h in hits], depth=5):
            out.append(q)

    probes: list[str] = []
    while len(probes) < 55:
        admit(island_text_code(rng.randrange(pool)), probes, 55)
    while len(probes) < 75:
        a, b = rng.randrange(pool), rng.randrange(pool)
        admit(" ".join([island_text_code(a)] * 3 + [island_text_code(b)] * 2), probes, 75)
    while len(probes) < 90:
        a, b, c = (rng.randrange(pool) for _ in range(3))
        admit(
            " ".join(
                [island_text_code(a)] * 4
                + [island_text_code(b)] * 3
                + [island_text_code(c)] * 2
            ),
            probes,
            90,
        )
    probes += ["shared duplicate passage"] * 5 + [DUPLICATE_PASSAGE] * 5
    return probes


def island_image_probes(index, provider, n_articles: int, seed: int = 9) -> list[str]:
    """94 screened probes over image ids plus 6 probes hitting the
    equal-trigram id trio, whose vectors tie bit-exactly."""
    from dbagent.retrieval import image_search

    rng = random.Random(seed)
    pool = n_articles - 13  # skip the tie trio and the duplicate block

    def admit(q: str, out: list[str], want: int) -> None:
        if len(out) >= want:
            return
        hits = image_search(index, provider, q, k=5)
        if _material_gaps([h.score for h in hits], depth=3):
            out.append(q)

    probes: list[str] = []
    while len(probes) < 60:
        admit(island_image_code(rng.randrange(pool)), probes, 60)
    while len(probes) < 80:
        a, b, c = (rng.randrange(pool) for _ in range(3))
        admit(
            " ".join(
                [island_image_code(a)] * 4
                + [island_image_code(b)] * 3
                + [island_image_code(c)] * 2
            ),
            probes,
            80,
        )
    while len(probes) < 94:
        a, b, c = (rng.randrange(pool) for _ in range(3))
        admit(
            " ".join(
                [island_image_code(a)] * 6
                + [island_image_code(b)] * 4
                + [island_image_code(c)] * 2
            ),
            probes,
            94,
        )
    probes += [TIE_IMAGE_IDS[0]] * 3 + [TIE_IMAGE_IDS[1]] * 3
    return probes


# --- canonical trajectory builders ---------------------------------------


def evidence_items(*specs: tuple[str, str, str, str]) -> list[EvidenceItem]:
    """Each spec is (article_id, title, heading, text)."""
    return [
        EvidenceItem(article_id=aid, title=title, heading=heading, text=text, score=0.9)
        for aid, title, heading, text in specs
    ]


def make_canonical_trajectory(task_id: str, shape: str, i: int = 0) -> Trajectory:
    """Hand-built strict-valid trajectory of the given action shape.

    ``shape`` is one of "A", "I-A", "T-A", "I-T-A", "T-T-A" (ASCII aliases
    for the factory labels).
    """
    m, v = marker(i), value(i)
    q = question(i)
    ev1 = render_evidence(evidence_items((f"a{i:03d}", f"Topic {i} {m}", "Lead", f"The special fact of {m} is {v}.")))
    ev2 = render_evidence(evidence_items((f"a{i:03d}", f"Topic {i} {m}", "Part 1", f"Indeed, {m} has fact {v}.")))
    if shape == "A":
        turns = [make_turn(f"I recognize {m} and recall the fact.", ActionKind.ANSWER, v)]
        observations = []
    elif shape == "I-A":
        turns = [
            make_turn("I cannot identify the subject; look the image up.", ActionKind.IMAGE_SEARCH, "image_path"),
            make_turn("The article names the fact.", ActionKind.ANSWER, v),
        ]
        observations = [ev1]
    elif shape == "T-A":
        turns = [
            make_turn(f"I know this is {m} but not the fact.", ActionKind.TEXT_SEARCH, f"{m} special fact"),
            make_turn("The section states it.", ActionKind.ANSWER, v),
        ]
        observations = [ev1]
    elif shape == "I-T-A":
        turns = [
            make_turn("Unknown subject; search by image.", ActionKind.IMAGE_SEARCH, "image_path"),
            make_turn(
                "The article identifies the subject but not the fact.",
                ActionKind.TEXT_SEARCH,
                f"{m} special fact",
                caption=f"The image shows Topic {i} {m}.",
            ),
            make_turn("Now the fact is stated.", ActionKind.ANSWER, v),
        ]
        observations = [ev1, ev2]
    elif shape == "T-T-A":
        turns = [
            make_turn(f"Probably {m}; check the fact.", ActionKind.TEXT_SEARCH, f"{m} fact"),
            make_turn("Not stated yet; refine the query.", ActionKind.TEXT_SEARCH, f"{m} special fact details"),
            make_turn("Found it.", ActionKind.ANSWER, v),
        ]
        observations = [ev1, ev2]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return Trajectory(
        task_id=task_id,
        image_ref=f"img-{i:03d}",
        question=q,
        turns=turns,
        observations=observations,
        terminated_by="answer",
        config={"strict_protocol": True},
    )


def rule_breaking_trajectories() -> list[tuple[str, dict, str]]:
    """One case per rule a stored trajectory must hold, each breaking that
    rule alone: (name, the ``Trajectory`` fields, the ``ValueError`` message
    building it raises). Each is a T→A trajectory with one part changed."""
    base = make_canonical_trajectory("q001", "T-A", 1)
    search, answer = base.turns
    captioned = make_turn(search.think, search.action, search.action_payload, caption="A photo.")
    fields = {name: getattr(base, name) for name in base.__dataclass_fields__}
    return [
        ("unknown termination", {**fields, "terminated_by": "backend_error"},
         "terminated_by 'backend_error' is not one of 'answer', 'budget_exhausted', 'protocol_failure'"),
        ("answer with no turns", {**fields, "turns": [], "observations": []},
         "terminated_by 'answer' with no answer turn last"),
        ("answer turn last without answer termination", {**fields, "terminated_by": "budget_exhausted"},
         "terminated_by 'budget_exhausted' with an answer turn last"),
        ("answer before the last turn", {**fields, "turns": [answer, search], "terminated_by": "budget_exhausted"},
         "turn 1 of 2 is an answer turn before the last"),
        ("one observation too few", {**fields, "observations": []}, "0 observation(s) for 1 tool turn(s)"),
        ("one observation too many", {**fields, "observations": base.observations * 2},
         "2 observation(s) for 1 tool turn(s)"),
        ("caption before any image search", {**fields, "turns": [captioned, answer]},
         "turn 1 fails strict validation: <caption> requires an earlier <image_search> turn"),
    ]


def trajectory_json(fields: dict) -> dict:
    """The JSON object ``encode`` would write for a trajectory of these
    fields, built without the trajectory (which may not be buildable)."""
    return {name: [encode(x) for x in value] if name in ("turns", "observations")
            else dict(value) if name == "config" else value
            for name, value in fields.items()}


# --- factory stage scripting ----------------------------------------------
#
# Scripted stage outputs are keyed by stage-distinctive prompt features: the
# stage-1 user message is exactly the [question] line, stage 2 is the only
# prompt carrying a literal [evidence] label, and stage 3 the only one with
# [stage3_new_evidence]. Questions embed their sample's marker, so rules for
# many samples can share one backend without cross-talk.

FACTORY_ROUTES = ("A", "I-A", "T-A", "I-T-A", "T-T-A")


def stage1_output(think: str, entity: str, answer: str) -> str:
    return f"<think>{think}</think>\n<entity>{entity}</entity>\n<answer>{answer}</answer>"


def stage_answer_output(think: str, answer: str) -> str:
    return f"<think>{think}</think>\n<answer>{answer}</answer>"


def stage1_pattern(i: int) -> str:
    return rf"\[question\] {re.escape(question(i))}$"


def stage2_pattern(i: int) -> str:
    return rf"{re.escape(question(i))}\n.*\[evidence\]"


def stage3_pattern(i: int) -> str:
    return rf"{re.escape(question(i))}\n.*\[stage3_new_evidence\]"


def factory_rules(i: int, route: str, stage3_correct: bool = True) -> list[ScriptedRule]:
    """Scripted stage outputs that steer sample ``i`` down ``route`` under
    the normalized-exact judge.

    Routes use ASCII labels (A, I-A, T-A, I-T-A, T-T-A). A stage goes
    "wrong" by answering incorrectly; the branch is picked by whether the
    scripted entity matches the sample's gold entity.
    """
    m, v = marker(i), value(i)
    right_entity = f"Topic {i} {m}"
    if route == "A":
        output = stage1_output(f"This is {m}, whose special fact is {v}.", right_entity, v)
        return [ScriptedRule(pattern=stage1_pattern(i), output=output)]
    if route in ("T-A", "T-T-A"):
        s1 = stage1_output("The subject is familiar but the fact is not.", right_entity, "not sure")
    elif route in ("I-A", "I-T-A"):
        s1 = stage1_output(
            "The subject cannot be placed from memory.", "an unrecognized subject", "not sure"
        )
    else:
        raise ValueError(f"unknown route {route!r}")
    rules = []
    if route in ("I-A", "T-A"):
        s2 = stage_answer_output("The evidence states the fact directly.", v)
    else:
        s2 = stage_answer_output("The evidence names the entity but not the asked fact.", "still not sure")
        s3 = stage_answer_output(
            "The refined evidence states the fact." if stage3_correct else "The fact is still missing.",
            v if stage3_correct else "still not sure",
        )
        rules.append(ScriptedRule(pattern=stage3_pattern(i), output=s3))
    rules.append(ScriptedRule(pattern=stage2_pattern(i), output=s2))
    rules.append(ScriptedRule(pattern=stage1_pattern(i), output=s1))
    return rules


def factory_backend(plan) -> ScriptedBackend:
    """One backend scripting many samples; ``plan`` entries are (i, route)
    or (i, route, stage3_correct)."""
    rules = []
    for entry in plan:
        i, route, *rest = entry
        rules.extend(factory_rules(i, route, *rest))
    return ScriptedBackend(rules)


# --- rollout policy scripting ----------------------------------------------


def agent_turn(think: str, action: str, payload: str, caption: str | None = None) -> str:
    parts = [f"<think>{think}</think>"]
    if caption is not None:
        parts.append(f"<caption>{caption}</caption>")
    parts.append(f"<{action}>{payload}</{action}>")
    return "".join(parts)


class EvidencePolicy:
    """Deterministic test agent: reads its marker-bearing question from the
    transcript, answers as soon as any evidence block states that marker's
    fact, and otherwise searches for it.

    Rule backends keyed only on the last message cannot do this — once
    top-k evidence mixes in a neighboring article's lead, the fact string
    alone no longer identifies which sample is being served.
    """

    _ASK = re.compile(r"special fact of (topic\d{3}qq)\?")
    _FACT = re.compile(r"special fact of (topic\d{3}qq) is (val\d{3})\.")

    def complete(self, messages, params, turn_index=0):
        asked = None
        evidence = []
        for message in messages:
            if message.role != "user":
                continue
            if asked is None:
                ask = self._ASK.search(message.content)
                if ask:
                    asked = ask.group(1)
            if "<evidence>" in message.content:
                evidence.append(message.content)
        assert asked is not None, "policy needs a marker-bearing question"
        for content in reversed(evidence):
            for found_marker, found_value in self._FACT.findall(content):
                if found_marker == asked:
                    return agent_turn("The evidence states the fact.", "answer", found_value)
        return agent_turn(
            f"The fact about {asked} must be looked up.",
            "text_search",
            f"special fact of {asked}",
        )


# --- ambiguous-query crowding fixture ---------------------------------------
#
# A corpus where retrieval degrades as it grows: each gold article competes
# with distractors that are near-copies of the probe query itself, so they
# outrank the gold's diluted lead whenever enough of them are subsampled in.
# Marker codes are disjoint repeated letter groups — a distractor only beats
# its own family's query, never another family's gold.

AMBIG_GROUPS = ("zan", "kel", "vor", "mud", "tir", "fos", "gly", "hux", "pem", "qub")


def ambig_code(i: int) -> str:
    return AMBIG_GROUPS[i] * 4


def ambig_gold_ids() -> list[str]:
    return [f"g{i:02d}" for i in range(len(AMBIG_GROUPS))]


def make_ambig_corpus(total: int = 5000, n_distractors: int = 12) -> Corpus:
    lines = []
    for i in range(len(AMBIG_GROUPS)):
        code = ambig_code(i)
        lines.append(
            json.dumps(
                {
                    "article_id": f"g{i:02d}",
                    "title": f"Gold {i} {code}",
                    "sections": [
                        {
                            "section_id": f"g{i:02d}-s0",
                            "heading": "Lead",
                            "text": f"The special fact of {code} is goldval{i:02d}.",
                        }
                    ],
                }
            )
        )
        for j in range(n_distractors):
            base = f"special fact of {code}"
            lines.append(
                json.dumps(
                    {
                        "article_id": f"d{i:02d}x{j:02d}",
                        "title": f"Commentary {j} on {code}",
                        "sections": [
                            {
                                "section_id": f"d{i:02d}x{j:02d}-s0",
                                "heading": "Lead",
                                "text": " ".join([base] * (1 + j % 3)) + f" commentary {j}",
                            }
                        ],
                    }
                )
            )
    for n in range(total - len(lines)):
        lines.append(
            json.dumps(
                {
                    "article_id": f"f{n:04d}",
                    "title": f"Filler {n}",
                    "sections": [
                        {
                            "section_id": f"f{n:04d}-s0",
                            "heading": "Lead",
                            "text": f"plain filler entry number {n} about miscellaneous subject kk.",
                        }
                    ],
                }
            )
        )
    return parse_corpus_lines(lines)


def ambig_samples() -> list[QaSample]:
    return [
        QaSample(
            sample_id=f"amb{i:02d}",
            image_ref=f"img-amb{i:02d}",
            question=f"What is the special fact of {ambig_code(i)}?",
            answers=(f"goldval{i:02d}",),
            gold_article_id=f"g{i:02d}",
        )
        for i in range(len(AMBIG_GROUPS))
    ]


class AmbigPolicy:
    """One-shot searcher for the crowding fixture: search the ambiguous
    phrase once, then answer the asked family's fact if it was retrieved."""

    _ASK = re.compile(r"special fact of ([a-z]{12})\?")
    _FACT = re.compile(r"special fact of ([a-z]{12}) is (goldval\d{2})\.")

    def complete(self, messages, params, turn_index=0):
        asked = None
        evidence = []
        for message in messages:
            if message.role != "user":
                continue
            if asked is None:
                ask = self._ASK.search(message.content)
                if ask:
                    asked = ask.group(1)
            if "<evidence>" in message.content:
                evidence.append(message.content)
        assert asked is not None, "policy needs a coded question"
        for content in reversed(evidence):
            for family, found_value in self._FACT.findall(content):
                if family == asked:
                    return agent_turn("The evidence states the fact.", "answer", found_value)
        if evidence:
            return agent_turn(
                "The retrieved passages do not state the fact.", "answer", "not stated"
            )
        return agent_turn(
            f"The fact about {asked} must be looked up.",
            "text_search",
            f"special fact of {asked}",
        )


# --- engineered report fixtures --------------------------------------------
#
# Two separate record sets: per-type proportions/recalls/accuracies and the
# retrieval-vs-answer contingency are published from different analyses, and
# their rates are not jointly satisfiable by one record population.

TYPE_TABLE_SPEC = [
    # (type, records, retrieval hits, correct answers, tool calls)
    ("A", 1080, None, 753, 0),
    ("I→A", 5140, 3387, 2878, 1),
    ("T→A", 7220, 5892, 3574, 1),
    ("I→T→A", 3140, 1733, 1366, 2),
    ("T→T→A", 3420, 2404, 1406, 2),
]


def type_table_records() -> list[EvalRecord]:
    """20,000 records whose per-type shares, recalls and accuracies land
    exactly on the published one-decimal rates."""
    records = []
    for label, n, hits, correct, tools in TYPE_TABLE_SPEC:
        for j in range(n):
            records.append(
                EvalRecord(
                    sample_id=f"r{len(records):05d}",
                    trajectory_type=label,
                    answer_correct=j < correct,
                    retrieval_hit=None if hits is None else j < hits,
                    n_tool_calls=tools,
                    split_tags=("test",),
                )
            )
    return records


def contingency_records() -> list[EvalRecord]:
    """1,000 retrieval-correct rows at 70.4% answer accuracy plus 1,000
    retrieval-incorrect rows at 11.4%."""
    records = []
    for hit, correct in ((True, 704), (False, 114)):
        for j in range(1000):
            records.append(
                EvalRecord(
                    sample_id=f"c{len(records):04d}",
                    trajectory_type="T→A",
                    answer_correct=j < correct,
                    retrieval_hit=hit,
                    n_tool_calls=1,
                    split_tags=("test",),
                )
            )
    return records


# --- HTTP stub ------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError:
            payload = {"_raw": body.decode("utf-8", "replace")}
        record = {
            "path": self.path,
            "payload": payload,
            "headers": {k: v for k, v in self.headers.items()},
        }
        self.server.requests.append(record)
        status, response = self.server.script(record)
        data = (
            response.encode("utf-8")
            if isinstance(response, str)
            else json.dumps(response).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class HttpStub:
    """Local HTTP server driven by a callable; records every request.

    ``script(record) -> (status, response)`` where response is a dict
    (JSON-encoded) or a raw string body.
    """

    def __init__(self, script):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = script
        self.server.requests = []
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        host, port = self.server.server_address
        self.url = f"http://{host}:{port}"
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)

    @property
    def requests(self):
        return self.server.requests


def traced(fn):
    """``fn()``, the memory it left allocated and the most it had allocated
    at once, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return result, current - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_peak(fn):
    """``fn()`` and the most memory it had allocated at once, in bytes."""
    result, _, peak = traced(fn)
    return result, peak
