"""Article corpus: JSONL loading, validation, seeded subsampling."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import DataError
from .wire import decode, parse_jsonl

__all__ = [
    "CorpusError",
    "SectionChunk",
    "ImageAttachment",
    "KbArticle",
    "Corpus",
    "load_corpus",
    "parse_corpus_lines",
    "subsample_corpus",
]


class CorpusError(DataError):
    """Corpus file failed schema validation; message lists line numbers."""


@dataclass(frozen=True, slots=True)
class SectionChunk:
    section_id: str
    heading: str
    text: str


@dataclass(frozen=True, slots=True)
class ImageAttachment:
    image_id: str
    uri: str
    caption: str | None = None


@dataclass(frozen=True, slots=True)
class KbArticle:
    article_id: str
    title: str
    sections: tuple[SectionChunk, ...]
    images: tuple[ImageAttachment, ...] = ()
    url: str | None = None

    @property
    def lead_section(self) -> SectionChunk:
        return self.sections[0]


@dataclass(frozen=True, slots=True)
class Corpus:
    """Immutable article collection keyed by id.

    Equality is by value and insensitive to article order in the source file
    (dict equality ignores insertion order).
    """

    articles: dict[str, KbArticle]

    @property
    def n_articles(self) -> int:
        return len(self.articles)

    @property
    def n_sections(self) -> int:
        return sum(len(a.sections) for a in self.articles.values())

    @property
    def n_images(self) -> int:
        return sum(len(a.images) for a in self.articles.values())


# Each record's name in errors, and its string fields that may not be blank.
_TEXT_FIELDS = {
    KbArticle: ("article", ("article_id", "title")),
    SectionChunk: ("section", ("section_id", "heading", "text")),
    ImageAttachment: ("image", ("image_id", "uri")),
}


def _parse_article(obj: object) -> KbArticle:
    """Decode one article, then check what its field types cannot say."""
    article = decode(KbArticle, obj)
    for record in (article, *article.sections, *article.images):
        where, names = _TEXT_FIELDS[type(record)]
        for name in names:
            if not getattr(record, name).strip():
                raise CorpusError(f"{where} field {name!r} must be a non-empty string")
    if not article.sections:
        raise CorpusError(f"article {article.article_id!r} needs a non-empty 'sections' list")
    section_ids: set[str] = set()
    for section in article.sections:
        if section.section_id in section_ids:
            raise CorpusError(f"duplicate section_id {section.section_id!r} in article {article.article_id!r}")
        section_ids.add(section.section_id)
    return article


def parse_corpus_lines(lines: Iterable[str], source: str = "<corpus>") -> Corpus:
    """Parse JSONL article lines; collect every line error before failing."""
    article_lines: dict[str, int] = {}
    image_lines: dict[str, int] = {}

    def parse(obj: object, line_no: int) -> KbArticle:
        article = _parse_article(obj)
        if article.article_id in article_lines:
            raise CorpusError(
                f"duplicate article_id {article.article_id!r} "
                f"(first seen on line {article_lines[article.article_id]})"
            )
        dup_image = next((img.image_id for img in article.images if img.image_id in image_lines), None)
        if dup_image is not None:
            raise CorpusError(f"duplicate image_id {dup_image!r} (first seen on line {image_lines[dup_image]})")
        article_lines[article.article_id] = line_no
        for img in article.images:
            image_lines[img.image_id] = line_no
        return article

    return Corpus(articles={a.article_id: a for a in parse_jsonl(lines, source, parse, CorpusError)})


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return parse_corpus_lines(fh, source=str(path))


def subsample_corpus(
    corpus: Corpus,
    n: int,
    seed: int,
    must_include: Iterable[str] = (),
) -> Corpus:
    """Deterministic n-article subsample that always keeps ``must_include``.

    ``n == corpus.n_articles`` returns the corpus unchanged regardless of
    seed. Selection outside the pinned set is a seeded draw without
    replacement over article ids in sorted order, so equal inputs give equal
    outputs on any platform.
    """
    pinned = set(must_include)
    unknown = pinned - corpus.articles.keys()
    if unknown:
        raise ValueError(f"must_include ids not in corpus: {sorted(unknown)}")
    if n < len(pinned):
        raise ValueError(f"n={n} is smaller than len(must_include)={len(pinned)}")
    if n > corpus.n_articles:
        raise ValueError(f"n={n} exceeds corpus size {corpus.n_articles}")
    if n == corpus.n_articles:
        return corpus

    pool = sorted(corpus.articles.keys() - pinned)
    rng = random.Random(seed)
    chosen = pinned | set(rng.sample(pool, n - len(pinned)))
    return Corpus(articles={aid: corpus.articles[aid] for aid in sorted(chosen)})
