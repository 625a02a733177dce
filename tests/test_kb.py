from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbagent.kb import CorpusError, load_corpus, parse_corpus_lines, subsample_corpus
from helpers import article_obj, corpus_lines, make_corpus


def test_load_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(corpus_lines(4)) + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert corpus.n_articles == 4
    assert corpus.n_sections == 8
    assert corpus.n_images == 4
    article = corpus.articles["a002"]
    assert article.title.endswith("topic002qq")
    assert article.lead_section.heading == "Lead"


def test_order_insensitive():
    lines = corpus_lines(8)
    shuffled = list(lines)
    random.Random(7).shuffle(shuffled)
    assert parse_corpus_lines(lines) == parse_corpus_lines(shuffled)


def test_blank_lines_skipped():
    lines = corpus_lines(2)
    corpus = parse_corpus_lines([lines[0], "", "   ", lines[1]])
    assert corpus.n_articles == 2


def test_errors_are_collected_with_line_numbers():
    bad = [
        "not json at all",
        json.dumps({"article_id": "a1", "title": "T"}),  # no sections
        json.dumps(article_obj(0)),
    ]
    with pytest.raises(CorpusError) as err:
        parse_corpus_lines(bad)
    message = str(err.value)
    assert "2 error(s)" in message
    assert "line 1" in message and "line 2" in message


def test_duplicate_article_id_names_both_lines():
    obj = article_obj(0)
    with pytest.raises(CorpusError) as err:
        parse_corpus_lines([json.dumps(obj), json.dumps(obj)])
    assert "duplicate article_id" in str(err.value)
    assert "line 2" in str(err.value) and "line 1" in str(err.value)


def test_duplicate_image_id_across_articles():
    first = article_obj(0)
    second = article_obj(1)
    second["images"] = [{"image_id": "img-000", "uri": "elsewhere.jpg"}]
    with pytest.raises(CorpusError, match="duplicate image_id"):
        parse_corpus_lines([json.dumps(first), json.dumps(second)])


def test_duplicate_section_id_within_article():
    obj = article_obj(0)
    obj["sections"].append(dict(obj["sections"][0]))
    with pytest.raises(CorpusError, match="duplicate section_id"):
        parse_corpus_lines([json.dumps(obj)])


def test_empty_field_rejected():
    obj = article_obj(0)
    obj["sections"][0]["text"] = "   "
    with pytest.raises(CorpusError, match="'text'"):
        parse_corpus_lines([json.dumps(obj)])


# --- subsampling ----------------------------------------------------------


def test_subsample_deterministic_and_pinned():
    corpus = make_corpus(20)
    a = subsample_corpus(corpus, 7, seed=3, must_include=["a015"])
    b = subsample_corpus(corpus, 7, seed=3, must_include=["a015"])
    assert set(a.articles) == set(b.articles)
    assert "a015" in a.articles
    assert a.n_articles == 7
    c = subsample_corpus(corpus, 7, seed=4, must_include=["a015"])
    assert set(c.articles) != set(a.articles)  # overwhelmingly likely


def test_subsample_full_size_is_identity():
    corpus = make_corpus(5)
    assert subsample_corpus(corpus, 5, seed=99) is corpus


def test_subsample_errors():
    corpus = make_corpus(4)
    with pytest.raises(ValueError, match="not in corpus"):
        subsample_corpus(corpus, 2, seed=0, must_include=["nope"])
    with pytest.raises(ValueError, match="exceeds corpus size"):
        subsample_corpus(corpus, 5, seed=0)
    with pytest.raises(ValueError, match="smaller than"):
        subsample_corpus(corpus, 1, seed=0, must_include=["a000", "a001"])


@given(
    n_total=st.integers(min_value=2, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_subsample_superset_property(n_total, seed, data):
    corpus = make_corpus(n_total)
    pinned = data.draw(
        st.lists(st.sampled_from(sorted(corpus.articles)), unique=True, max_size=n_total)
    )
    n = data.draw(st.integers(min_value=len(pinned), max_value=n_total))
    sub = subsample_corpus(corpus, n, seed, must_include=pinned)
    assert set(pinned) <= set(sub.articles)
    assert sub.n_articles == n
