"""Dense retrieval over section chunks and article images.

Similarity is cosine over unit-normalized vectors, computed as a dot
product. Search is exact, as in FAISS ``IndexFlatIP``, and runs in two
passes, as its ``IndexRefineFlat`` does: a float32 copy of the matrix
screens every row with one matrix-vector product, and only the few rows
that a proven bound on the screen's error cannot rule out are re-scored in
float64 and sorted (``_screen``, ``_ranked_order``). A reported score is
the float64 dot product of its row and the query alone, whatever other rows
were re-scored with it, so neither the BLAS build nor its thread count can
change a result. Every row tied with the m-th best score is kept, so the
sorted set is always an exact prefix of the full ranking. Rows are stored
sorted by (article_id, section_id) (or image_id for images), so a stable
sort on descending score breaks ties by ascending id without a second key.
A tie is an equal float64 score: two cosines that are exactly equal as real
numbers can still round to scores one ulp apart, and those two rows then
come in the order of their rounded scores, whichever their ids.

Two embedding providers share one duck-typed interface
(``embed(list[str]) -> ndarray``):

* ``DeterministicEmbedder`` hashes character trigrams into ``dimension``
  signed buckets (seeded, collision-style feature hashing) and returns the
  counts; ``embed_batch``, the one place rows are normalized, makes them
  unit. Same (seed, dimension, text) gives the same vector on any platform. A
  batch is decoded to code points in one numpy array, and each trigram is
  packed into one int64 key of three 21-bit code points. A batch reads each
  key's code from a direct-mapped cache; only the distinct keys it misses
  are looked up in a per-instance memo keyed by that int, and only a memo
  miss unpacks its key to the gram string and hashes it.
* ``RemoteEmbedder`` POSTs ``{"modality", "inputs"}`` to an HTTP endpoint
  and expects ``{"vectors": [[float]]}`` back: one row of ``dimension``
  finite numbers per input, or the call raises ``EmbeddingError``. Input
  strings are refs the server resolves (image ids/uris for the image
  modality).

On disk an index is two files side by side (format version 4):

* ``<name>.json``: a one-line JSON header with ``format_version``,
  ``dimension``, ``count``, ``modality``, ``provider``, ``texts_sha256`` and
  ``vectors_sha256``, the sha256 of the sidecar.
* ``<name>.npy``: the ``(count, dimension)`` float64 matrix of unit rows,
  as written by ``np.save`` without pickling.

``provider`` names what embedded the rows: ``{"kind": "trigram", "seed",
"dimension"}`` for ``DeterministicEmbedder``, ``{"kind": "remote", "url"}``
for ``RemoteEmbedder`` with the URL's userinfo, query and fragment left out
(they may carry credentials), and null for any other provider.
``texts_sha256`` is the sha256 of the strings the rows embed, in row order
(section texts for a text index, image ids for an image index), each
preceded by the 8-byte big-endian length of its UTF-8 bytes; null when the
index was not built from texts. ``build_text_index`` and
``build_image_index`` compute both once.

The header holds no row keys; as in a FAISS flat index, ids live outside
the vectors. An index's rows are its corpus's entries in sorted order, and
an index holds the corpus records behind them: ``articles[i]`` is row i's
``KbArticle`` and ``entries[i]`` its ``SectionChunk`` (text) or
``ImageAttachment`` (image), two tuples of references. ``load_index``
returns an index with neither, and ``bind`` gives it a corpus's records
once the provider and ``texts_sha256`` equal what a build from that corpus
would record: the digest frames every embedded string in row order, so the
matrix is then exactly what a rebuild would give. A corpus whose article or
section ids change but keep the row order is served, and its hits name its
own ids. ``TextRetriever`` and ``ImageRetriever`` bind an index that has no
records.

``save_index`` writes the matrix straight into the sidecar and then hashes
the file in blocks, so it holds no second copy of the matrix. Both files
are written under temp names and replace the old pair only when both are
complete, the header last (``wire.atomic_write``). ``load_index`` checks
the header, then reads the sidecar once into one buffer the size of the
file, hashes that buffer, parses the ``.npy`` header in it and makes the
matrix a writable float64 view of the bytes after the header: the bytes the
checksum covers are the bytes searched. A loaded index holds its matrix and
little more. Row norms are checked with ``einsum``, which makes no
matrix-sized temporary.

The header does not name its sidecar, so saving one index under two names
writes byte-identical headers. Headers of versions 1 (vectors inline as JSON
text), 2 (one key pair per row, no provider or texts digest) and 3 (the row
keys stored as columns) are rejected on load; rebuild them with
``dbagent index build``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import threading
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from .errors import BackendError, DataError
from .kb import Corpus, ImageAttachment, KbArticle, SectionChunk
from .wire import atomic_write, post_json

__all__ = [
    "EmbeddingError",
    "DeterministicEmbedder",
    "RemoteEmbedder",
    "RetrievalHit",
    "Index",
    "embed_batch",
    "build_text_index",
    "build_image_index",
    "bind",
    "text_search",
    "image_search",
    "save_index",
    "load_index",
]

INDEX_FORMAT_VERSION = 4
_REBUILD = "rebuild with `dbagent index build`"
_NORM_TOLERANCE = 1e-6
# The part of a sidecar its .npy header is parsed from; numpy refuses a
# header longer than 10,000 bytes, far inside it.
_NPY_HEAD = 1 << 16
# Unit roundoff of float32 and of float64 (round to nearest).
_U32 = 2.0**-24
_U64 = 2.0**-53
# The screen is trusted only while row and query norms stay below this: its
# products and partial sums then stay far from float32's overflow at 2**128.
_SCREEN_LIMIT = 2.0**60
# Trigram memo entries a DeterministicEmbedder keeps before it starts over;
# bounds its memory on an open-ended stream of texts.
_MEMO_CAP = 1 << 16
# Slots of the direct-mapped code cache in front of the memo, as a power of
# two, and the Fibonacci-hashing multiplier (2**64 / golden ratio) that picks
# a key's slot from the top bits of its wrapped product: the low bits of a
# packed key are its last code point's, so a plain mask would cluster.
_CACHE_BITS = 15
_CACHE_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# Fills out a text shorter than a trigram; above every code point, so a
# padded key never equals a real trigram's. Also the 21-bit unpack mask.
_PAD = 0x1FFFFF


class EmbeddingError(BackendError):
    """Embedding provider failed."""


@dataclass
class DeterministicEmbedder:
    """Seeded character-trigram feature hashing.

    ``embed`` returns each text's signed bucket counts, not normalized:
    ``embed_batch`` normalizes them (a text whose features cancel to zero
    becomes the first basis vector there). Shared substrings share
    trigrams, so near-identical strings land close in cosine; an identical
    string reproduces the stored vector exactly. Strings shorter than three
    characters hash as a single feature.

    A batch is decoded to code points once, and each trigram is packed
    into one int64 key, ``c0 << 42 | c1 << 21 | c2`` (a code point fits in
    21 bits). A text shorter than three characters is one key filled out
    with ``0x1FFFFF``, which is not a code point. Each gram's signed bucket
    (``+(bucket + 1)`` or ``-(bucket + 1)``) comes from a blake2b hash of
    ``f"{seed}:{gram}"`` and is memoized per instance under the packed key,
    so ``seed`` and ``dimension`` must not change after the first
    ``embed``. A ``dimension`` below 1 raises ``ValueError``.

    A batch of several texts reads its codes from a direct-mapped cache of
    ``2**_CACHE_BITS`` slots (``_slots``): two arrays, of packed keys (-1
    when empty; no key is negative) and of their codes. A hit costs two
    gathers and a compare. Only the misses take the memo path, ``np.unique``
    over them, a memo lookup each and a hash per memo miss; their codes then
    go into the cache, evicting the keys whose slots they take. An evicted
    key stays in the memo, and a code depends only on (seed, dimension, key),
    so a cached code never goes stale. A single text skips the cache: its
    few dozen grams cost less as dict lookups than as numpy calls. One lock
    covers the cache's lookup and fill, so no reader pairs a slot's key with
    another key's code: an instance is shared safely across threads, and a
    memo miss racing another stores the same value twice.
    """

    dimension: int = 64
    seed: int = 0
    modality: str = "text"
    _memo: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    # The code cache's (keys, codes) arrays, made by the first batch.
    _cache: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dimension}")

    def _code(self, key: int) -> int:
        gram = "".join(chr(c) for c in (key >> 42, key >> 21 & _PAD, key & _PAD) if c != _PAD)
        digest = hashlib.blake2b(f"{self.seed}:{gram}".encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "big")
        code = value % self.dimension + 1
        if not (value >> 62) & 1:
            code = -code
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[key] = code
        return code

    def _codes(self, keys: np.ndarray) -> np.ndarray:
        """The signed codes of ``keys`` from the memo; a miss is hashed."""
        listed = keys.tolist()
        codes = list(map(self._memo.get, listed))
        if None in codes:  # a code is never 0, so `or` picks out the misses
            codes = [code or self._code(key) for code, key in zip(codes, listed)]
        return np.fromiter(codes, dtype=np.int64, count=len(codes))

    def embed(self, inputs: Sequence[str]) -> np.ndarray:
        keys, counts = _trigram_keys(inputs)
        # Column of each gram in the flattened (text, bucket) grid.
        if len(counts) == 1:  # a query's few dozen grams cost less as dict lookups than as numpy calls
            signed = self._codes(keys)
            flat = np.abs(signed) - 1
        else:
            signed = self._cached_codes(keys)
            flat = np.abs(signed) - 1 + np.repeat(np.arange(len(counts)) * self.dimension, counts)
        # Every sum is a small integer, so the summation order cannot change
        # a bit of the result: a batch embeds each text exactly as embedding
        # it alone does, and so does the norm ``embed_batch`` divides by.
        sums = np.bincount(
            flat,
            weights=np.sign(signed),
            minlength=len(counts) * self.dimension,
        ).reshape(len(counts), self.dimension)
        return sums

    def _cached_codes(self, keys: np.ndarray) -> np.ndarray:
        """The signed codes of a batch's ``keys``, read from the code cache;
        only the distinct keys it misses go to the memo, and their codes are
        written into the cache."""
        slots = _slots(keys)
        with self._lock:
            if self._cache is None:
                # The dtype holds every code, -dimension to +dimension.
                dtype = np.min_scalar_type(-self.dimension - 1)
                self._cache = (np.full(1 << _CACHE_BITS, -1, dtype=np.int64), np.zeros(1 << _CACHE_BITS, dtype))
            cached_keys, cached_codes = self._cache
            signed = cached_codes[slots].astype(np.int64)
            miss = cached_keys[slots] != keys
            if miss.any():  # a batch repeats grams; hash each distinct one once
                missed, inverse = np.unique(keys[miss], return_inverse=True)
                filled = self._codes(missed)
                signed[miss] = filled[inverse]
                # Keys that share a slot overwrite each other, in an order
                # numpy does not promise; a code goes in only beside the key
                # that won its slot.
                slots = _slots(missed)
                cached_keys[slots] = missed
                won = cached_keys[slots] == missed
                cached_codes[slots[won]] = filled[won]
        return signed


def _slots(keys: np.ndarray) -> np.ndarray:
    """The code-cache slot of each packed key: the top ``_CACHE_BITS`` bits
    of its product with ``_CACHE_MULTIPLIER``, wrapped to 64 bits. Signed,
    as numpy indexes with int64 without a converting copy."""
    return ((keys.view(np.uint64) * _CACHE_MULTIPLIER) >> np.uint64(64 - _CACHE_BITS)).view(np.int64)


def _trigram_keys(texts: Sequence[str]) -> tuple[np.ndarray, Sequence[int]]:
    """Packed trigram keys of every text in order, and the count per text.

    A text of n >= 3 characters has n - 2 keys, a shorter one the single
    key its characters fill out with pads. Lone surrogates pass through as
    code points, to fail when their gram is hashed.
    """
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    if len(texts) == 1 and len(points) >= 3:  # a query: no pads, no text boundaries
        return points[:-2] << 42 | points[1:-1] << 21 | points[2:], [len(points) - 2]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    padded = np.insert(points, np.repeat(np.cumsum(lengths), 3), _PAD)
    first, last = padded[:-2], padded[2:]
    keys = first << 42 | padded[1:-1] << 21 | last
    # Three pads follow every text, so a key whose first and last code
    # points are real lies inside one text. A short text keeps instead the
    # padded key at its start.
    keep = (first != _PAD) & (last != _PAD)
    starts = np.cumsum(lengths + 3) - (lengths + 3)
    keep[starts[lengths < 3]] = True
    return keys[keep], np.maximum(lengths - 2, 1)


@dataclass
class RemoteEmbedder:
    """HTTP embedding client; see module docstring for the wire shape.

    Args:
        url: endpoint accepting POST with the embed payload.
        modality: "text" or "image"; sent verbatim.
        dimension: expected vector width, at least 1 (else ``ValueError``);
            mismatches are fatal.
        timeout: per-request timeout, seconds.
        retries: extra attempts after the first on transport failure.
    """

    url: str
    modality: str
    dimension: int
    api_key: str | None = None
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {self.dimension}")

    def embed(self, inputs: Sequence[str]) -> np.ndarray:
        payload = {"modality": self.modality, "inputs": list(inputs)}
        vectors, attempts = post_json(
            self.url, payload, api_key=self.api_key, timeout=self.timeout, retries=self.retries,
            name="embed", key="vectors", error=EmbeddingError,
        )
        if not isinstance(vectors, list):
            raise EmbeddingError(f"embed endpoint returned {type(vectors).__name__} vectors, not a list", attempts)
        if len(vectors) != len(inputs):
            raise EmbeddingError(
                f"embed endpoint returned {len(vectors)} vectors for {len(inputs)} inputs", attempts
            )
        try:
            matrix = np.asarray(vectors)
        except ValueError as exc:  # rows of different lengths
            raise EmbeddingError(f"embed endpoint returned ragged vectors: {exc}", attempts) from exc
        if matrix.dtype.kind not in "iuf":
            raise EmbeddingError(f"embed endpoint returned non-numeric vectors ({matrix.dtype})", attempts)
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise EmbeddingError(f"expected dimension {self.dimension}, got shape {matrix.shape}", attempts)
        if not np.isfinite(matrix).all():
            raise EmbeddingError("embed endpoint returned a non-finite vector value", attempts)
        return np.asarray(matrix, dtype=np.float64)


def embed_batch(provider, inputs: Sequence[str]) -> np.ndarray:
    """Embed a batch, preserving order; rows come back unit-normalized."""
    if not inputs:
        raise ValueError("embed_batch requires at least one input")
    for i, text in enumerate(inputs):
        if not text:
            raise ValueError(f"embed_batch input {i} is empty")
    matrix = np.asarray(provider.embed(list(inputs)), dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    # Zero rows cannot be normalized; pin them to the first basis vector so
    # downstream math stays finite and deterministic.
    zero = norms[:, 0] == 0.0
    if zero.any():
        matrix[zero] = 0.0
        matrix[zero, 0] = 1.0
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / norms


@dataclass(frozen=True)
class RetrievalHit:
    """One search result: ``row`` is the index row it was read off, so
    ``index.articles[row]`` and ``index.entries[row]`` are its records."""

    article_id: str
    score: float
    rank: int
    row: int
    section_id: str | None = None
    image_id: str | None = None


@dataclass(eq=False)
class Index:
    """Exact-search index of one modality; ``articles[i]`` and ``entries[i]``
    are the corpus records behind ``matrix[i]``. Two indexes are equal only
    when they are the same object.

    Text rows are sections, sorted by (article_id, section_id); image rows
    are images, sorted by image_id. Both record tuples are None, and the
    index cannot be searched, until ``bind`` gives a loaded index a corpus.
    ``provider`` and ``texts_sha256`` record what the rows were embedded
    with and from (see the module docstring); None when unknown. The length
    and ``dimension`` are the matrix's.
    """

    matrix: np.ndarray
    modality: str
    provider: dict | None = None
    texts_sha256: str | None = None
    articles: tuple[KbArticle, ...] | None = field(default=None, repr=False)
    entries: tuple[SectionChunk | ImageAttachment, ...] | None = field(default=None, repr=False)
    # The float32 screen of ``matrix`` (None when no error bound can hold)
    # and its largest row norm, built by the first search and never saved;
    # ``matrix`` must not change after.
    _screened: tuple[np.ndarray | None, float] | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


def _provider_spec(provider) -> dict | None:
    """What an index header records of ``provider``; None for a provider of
    a type it cannot describe."""
    if isinstance(provider, DeterministicEmbedder):
        return {"kind": "trigram", "seed": provider.seed, "dimension": provider.dimension}
    if isinstance(provider, RemoteEmbedder):
        parts = urlsplit(provider.url)
        host = parts.netloc.rpartition("@")[2]
        return {"kind": "remote", "url": urlunsplit((parts.scheme, host, parts.path, "", ""))}
    return None


def _texts_sha256(texts: Iterable[str]) -> str:
    """sha256 over ``texts`` in order, each framed by the length of its
    UTF-8 bytes (lone surrogates pass through), so no regrouping of the
    same characters gives the same digest."""
    digest = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8", "surrogatepass")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def _entries(corpus: Corpus, modality: str) -> tuple[tuple, tuple, list[str]]:
    """The records behind the rows of ``corpus``'s index of ``modality`` in
    row order, as its ``articles`` and ``entries``, and the string each row
    embeds."""
    if modality == "text":  # article ids are distinct, so this is a stable sort by (article_id, section_id)
        articles, entries = [], []
        for a in sorted(corpus.articles.values(), key=attrgetter("article_id")):
            sections = sorted(a.sections, key=attrgetter("section_id"))
            articles += [a] * len(sections)
            entries += sections
        return tuple(articles), tuple(entries), [s.text for s in entries]
    rows = sorted(((img.image_id, a, img) for a in corpus.articles.values() for img in a.images), key=lambda r: r[0])
    return tuple(a for _, a, _ in rows), tuple(img for _, _, img in rows), [iid for iid, _, _ in rows]


def bind(index: Index, corpus: Corpus, provider) -> Index:
    """``index`` with the records of ``corpus``, when its provider and
    ``texts_sha256`` are those a build from ``corpus`` with ``provider``
    would record; else ``DataError``, ending in the advice to rebuild. The
    vectors are the sidecar's, which ``load_index`` checks against the
    header."""
    spec = _provider_spec(provider)
    if index.provider != spec:
        built, now = (json.dumps(x, sort_keys=True) for x in (index.provider, spec))
        raise DataError(f"{index.modality} index built with provider {built}, this run embeds with {now}; {_REBUILD}")
    articles, entries, texts = _entries(corpus, index.modality)
    if index.texts_sha256 != _texts_sha256(texts):
        what = "section texts" if index.modality == "text" else "image ids"
        raise DataError(
            f"the corpus's {what} are not those the {index.modality} index was built from (texts_sha256); {_REBUILD}"
        )
    return replace(index, articles=articles, entries=entries)


def _build_index(corpus: Corpus, provider, modality: str) -> Index:
    """Embed the rows of ``corpus``'s index of ``modality`` in chunks; on a
    failing chunk, retry singly to name the entry."""
    articles, entries, texts = _entries(corpus, modality)
    chunk = 128
    matrix = np.empty((len(texts), provider.dimension))
    for start in range(0, len(texts), chunk):
        batch = texts[start : start + chunk]
        try:
            matrix[start : start + len(batch)] = embed_batch(provider, batch)
        except (EmbeddingError, ValueError):
            for row in range(start, start + len(batch)):
                try:
                    matrix[row] = embed_batch(provider, [texts[row]])[0]
                except (EmbeddingError, ValueError) as exc:
                    aid, entry = articles[row].article_id, entries[row]
                    where = (
                        f"(article {aid!r}, section {entry.section_id!r})"
                        if modality == "text"
                        else f"(image {entry.image_id!r}, article {aid!r})"
                    )
                    raise EmbeddingError(f"embedding failed for {where}: {exc}", getattr(exc, "attempts", 1)) from exc
    return Index(
        matrix=matrix,
        modality=modality,
        provider=_provider_spec(provider),
        texts_sha256=_texts_sha256(texts),
        articles=articles,
        entries=entries,
    )


def build_text_index(corpus: Corpus, provider) -> Index:
    return _build_index(corpus, provider, "text")


def build_image_index(corpus: Corpus, provider) -> Index:
    """Index KB images by embedding their id strings (the provider resolves
    refs; the test embedder hashes the string itself)."""
    return _build_index(corpus, provider, "image")


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n*u / (1 - n*u): a dot product of n terms, summed
    in any order with unit roundoff u, is off by at most gamma_n * sum|x*y|."""
    return n * u / (1.0 - n * u)


def _screen(index: Index, vec: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Float32 scores of every row, and a bound ``delta`` on how far each
    lies from the score ``_ranked_order`` reports for it; None when no
    finite bound holds (a NaN or huge row, a huge query, or d + 1 >= 2**23).

    Take row a (float64), query q, exact dot s = a.q, and the reported
    score s' = fl64(a.q). Rounding a and q to float32 changes each product
    a_j q_j by at most (2u + u^2)|a_j q_j|, with u = 2**-24. The float32
    dot product of the rounded vectors, summed in any order (BLAS may
    block, thread or fuse it), is off by at most
    gamma_d (1 + u)^2 sum_j |a_j q_j| more (``_gamma``); the float64 dot
    product s' is off from s by at most gamma_d(2**-53) sum_j |a_j q_j|.
    By Cauchy-Schwarz sum_j |a_j q_j| <= |a| |q| <= M |q|, with M the
    largest row norm, so every row's screen score t satisfies

        |t - s'| <= delta = ((2u + u^2) + gamma_d(u) (1 + u)^2
                             + gamma_d(2**-53)) M |q| + tiny,

    where tiny = d * 2**-147 * (1 + M + |q|) covers the absolute error
    when a value or product underflows to a subnormal. Float32 overflow
    cannot occur while M and |q| stay below ``_SCREEN_LIMIT``. The float32
    term is evaluated with gamma_{d+1}: the extra u M |q| exceeds the few
    float64 roundings made in computing M, |q|, delta and the threshold
    ``_ranked_order`` draws with it.
    """
    if index._screened is None:
        # Racing threads build the same pair; either assignment is fine.
        # No screen is kept when no bound can hold (NaN compares false).
        row_norm = math.sqrt(np.einsum("ij,ij->i", index.matrix, index.matrix).max())
        index._screened = (index.matrix.astype(np.float32) if row_norm < _SCREEN_LIMIT else None, row_norm)
    screen, row_norm = index._screened
    d = index.matrix.shape[1]
    query_norm = float(np.linalg.norm(vec))
    if screen is None or not (query_norm < _SCREEN_LIMIT and (d + 1) * _U32 < 0.5):
        return None
    rate = 2 * _U32 + _U32**2 + _gamma(d + 1, _U32) * (1 + _U32) ** 2 + _gamma(d, _U64)
    delta = rate * row_norm * query_norm + d * 2.0**-147 * (1.0 + row_norm + query_norm)
    return screen @ vec.astype(np.float32), delta


def _ranked_order(
    index: Index, vec: np.ndarray, screened: tuple[np.ndarray, float] | None, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the first ``m`` places in descending order of their exact
    score ``(matrix[row] * vec).sum()``, extended to every row that ties
    the m-th score (all rows when ``m >= len(index)``), and those scores.

    The result is an exact prefix of a full stable argsort of the exact
    scores. With T the m-th best screen score and ``delta`` the bound from
    ``_screen``, the m rows screened at T or above re-score at least
    T - delta, and a row screened below T - 2 delta re-scores below
    T - delta: so it is beaten by m rows and is neither in the first m
    places nor tied with the m-th. Only the rows screened at T - 2 delta
    or above are re-scored. Each is re-scored as numpy's pairwise sum
    along its own contiguous row, so its score depends only on that row
    and ``vec``. The candidates come out of ``flatnonzero`` in ascending
    row order, so a stable sort breaks ties by ascending id, as the full
    sort does. Without a screen (``screened`` is None) every row is
    re-scored, and a NaN score sorts last, as in the full sort.
    """
    if screened is not None and m < len(index):
        scores, delta = screened
        boundary = float(np.partition(scores, len(scores) - m)[len(scores) - m])
        threshold = boundary - 2.0 * delta
        # Compared in float32, rounded down so no row at the threshold is lost.
        limit = np.float32(threshold)
        if float(limit) > threshold:
            limit = np.nextafter(limit, np.float32(-np.inf))
        rows = np.flatnonzero(scores >= limit)
    else:
        rows = np.arange(len(index))
    neg = -(index.matrix[rows] * vec).sum(axis=1)
    order = np.argsort(neg, kind="stable")
    neg = neg[order]
    if m < len(order):
        order = order[: np.searchsorted(neg, neg[m - 1], side="right")]
    return rows[order], -neg[: len(order)]


def _check_searchable(index: Index, k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if index.articles is None:
        raise ValueError(f"the {index.modality} index has no corpus records; bind it to its corpus with retrieval.bind")


def text_search(index: Index, provider, query: str, k: int = 3) -> list[RetrievalHit]:
    """Top-k sections by cosine; equal float64 scores break by ascending
    (article_id, section_id). Cosines equal as real numbers may round one
    ulp apart and then follow their rounded scores (see the module docstring)."""
    _check_searchable(index, k)
    if not query or not query.strip():
        raise ValueError("text_search query is empty")
    if len(index) == 0:
        return []
    vec = embed_batch(provider, [query])[0]
    rows, scores = _ranked_order(index, vec, _screen(index, vec), k)
    articles, sections = index.articles, index.entries
    return [
        RetrievalHit(
            article_id=articles[row].article_id, section_id=sections[row].section_id, score=score, rank=rank, row=row
        )
        for rank, (row, score) in enumerate(zip(rows[:k].tolist(), scores[:k].tolist()), start=1)
    ]


def image_search(index: Index, provider, image_ref: str, k: int = 1) -> list[RetrievalHit]:
    """Top-k *articles* by best-scoring attached image.

    Articles are deduplicated: each keeps its best image (stable order means
    the first occurrence in rank order is the best; image-id ascending on
    equal float64 scores). Returns fewer than k hits when fewer distinct
    articles exist. The ranked window starts at k images and doubles until
    it holds k distinct articles or covers the whole index; each window is a
    prefix of the full ranking, so the hits are those of a full sort. The
    screen is computed once for all windows.
    """
    _check_searchable(index, k)
    if not image_ref or not image_ref.strip():
        raise ValueError(f"image_search ref is empty: {image_ref!r}")
    if len(index) == 0:
        return []
    try:
        vec = embed_batch(provider, [image_ref])[0]
    except EmbeddingError as exc:
        raise EmbeddingError(f"could not resolve image ref {image_ref!r}: {exc}", exc.attempts) from exc
    screened = _screen(index, vec)
    m = k
    while True:
        rows, scores = _ranked_order(index, vec, screened, m)
        hits: list[RetrievalHit] = []
        seen: set[str] = set()
        for row, score in zip(rows.tolist(), scores.tolist()):
            aid = index.articles[row].article_id
            if aid in seen:
                continue
            seen.add(aid)
            hits.append(
                RetrievalHit(
                    article_id=aid,
                    image_id=index.entries[row].image_id,
                    score=score,
                    rank=len(hits) + 1,
                    row=row,
                )
            )
            if len(hits) == k:
                return hits
        if len(rows) == len(index):
            return hits
        m *= 2


def save_index(index: Index, path: str | Path) -> None:
    """Persist as a JSON header at ``path`` and the vectors as ``.npy``
    beside it (see the module docstring). Rebuilding the same corpus with
    the same provider writes byte-identical files."""
    path = Path(path)
    if path.suffix == ".npy":
        raise ValueError(f"{path}: an index header may not end in .npy; that name is its sidecar")
    sidecar = path.with_suffix(".npy")
    # Both files are written in full under temp names before either is
    # replaced. The sidecar is replaced first, so a header left from an
    # earlier save fails its checksum instead of describing vectors it
    # never saw.
    with atomic_write(path) as header, atomic_write(sidecar, binary=True) as vectors:
        np.save(vectors, np.ascontiguousarray(index.matrix, dtype=np.float64), allow_pickle=False)
        vectors.flush()
        digest = hashlib.sha256()
        with open(vectors.name, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
        doc = {
            "format_version": INDEX_FORMAT_VERSION,
            "dimension": index.dimension,
            "count": len(index),
            "modality": index.modality,
            "provider": index.provider,
            "texts_sha256": index.texts_sha256,
            "vectors_sha256": digest.hexdigest(),
        }
        header.write(json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n")


def load_index(
    path: str | Path,
    expect_dimension: int | None = None,
    expect_modality: str | None = None,
) -> Index:
    """Read an index written by ``save_index``, checking the header against
    the sidecar and every row for a finite unit norm. Its ``articles`` and
    ``entries`` are None until ``bind`` gives it a corpus."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable index file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: index header is not a JSON object")
    if "format_version" not in doc:
        raise ValueError(f"{path}: index header missing 'format_version'")
    if doc["format_version"] != INDEX_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported index format_version {doc['format_version']}; {_REBUILD}")
    for field_name in ("dimension", "count", "modality", "provider", "texts_sha256", "vectors_sha256"):
        if field_name not in doc:
            raise ValueError(f"{path}: index header missing {field_name!r}")
    if doc["modality"] not in ("text", "image"):
        raise ValueError(f"{path}: index modality {doc['modality']!r} is not 'text' or 'image'")
    if expect_modality is not None and doc["modality"] != expect_modality:
        raise ValueError(f"{path}: index modality {doc['modality']!r}, expected {expect_modality!r}")
    dimension = doc["dimension"]
    if type(dimension) is not int or dimension < 1:
        raise ValueError(f"{path}: header dimension {dimension!r} is not an embedding dimension")
    if expect_dimension is not None and dimension != expect_dimension:
        raise ValueError(f"{path}: index dimension {dimension}, expected {expect_dimension}")
    count = doc["count"]
    if type(count) is not int or count < 0:
        raise ValueError(f"{path}: header count {count!r} is not a row count")
    if not (doc["provider"] is None or isinstance(doc["provider"], dict)):
        raise ValueError(f"{path}: index provider must be an object or null")
    if not (doc["texts_sha256"] is None or isinstance(doc["texts_sha256"], str)):
        raise ValueError(f"{path}: index texts_sha256 must be a string or null")
    sidecar = path.with_suffix(".npy")
    # One read into one buffer: it is hashed, and the matrix is a view of it.
    try:
        with sidecar.open("rb") as fh:
            data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
            data = data[: fh.readinto(data)]
    except OSError as exc:
        raise ValueError(f"{path}: unreadable index vectors: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != doc["vectors_sha256"]:
        raise ValueError(f"{path}: {sidecar.name} does not match the header's vectors_sha256")
    head = io.BytesIO(data[:_NPY_HEAD].tobytes())
    try:
        version = np.lib.format.read_magic(head)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(head)
        else:
            raise ValueError(f".npy format version {version[0]}.{version[1]} is not supported")
        body = data[head.tell() :]
        size = math.prod(shape) * dtype.itemsize
        if len(body) != size:
            raise ValueError(f"{len(body)} bytes of data, expected {size}")
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable index vectors: {exc}") from exc
    if dtype != np.float64:
        raise ValueError(f"{path}: index vectors are {dtype}, expected float64")
    if len(shape) != 2 or shape[0] != count:
        raise ValueError(f"{path}: index vectors have shape {shape}, header count is {count}")
    if shape[1] != dimension:
        raise ValueError(f"{path}: vectors are {shape[1]}-dimensional, header says {dimension}")
    if fortran_order:  # never written by save_index; copied to C order
        matrix = np.ascontiguousarray(body.view(dtype).reshape(shape[::-1]).T)
    else:
        matrix = body.view(dtype).reshape(shape)
    # Written so that a NaN norm fails too: NaN compares false.
    if not (np.abs(np.sqrt(np.einsum("ij,ij->i", matrix, matrix)) - 1.0) <= _NORM_TOLERANCE).all():
        raise ValueError(f"{path}: stored vectors are not unit-normalized")
    return Index(
        matrix=matrix,
        modality=doc["modality"],
        provider=doc["provider"],
        texts_sha256=doc["texts_sha256"],
    )
