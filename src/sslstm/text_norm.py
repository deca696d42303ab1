"""Tokenization and emoticon normalization for short conversational text.

Raw utterances go through two steps: :func:`tokenize` splits text into word,
emoticon, and punctuation tokens (dropping @-handles and URLs), and
:func:`normalize_emoticons` rewrites every recognized emoticon variant to a
single canonical form, e.g. ``:(((`` and the frowning-face emoji both become
``:(``.  The combined pipeline is :func:`normalize_utterance`.

Every function that scans or classifies emoticons takes the lexicon as an
argument; nothing falls back to one.  The lexicon shipped with the package
(``data/emoticons.tsv``) is :func:`default_lexicon`, and a command-line run
loads it or the ``--lexicon`` file once and passes it down.
"""

from __future__ import annotations

import hashlib
import re
import sys
import unicodedata
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from sslstm.textfile import DataFormatError, _read, _split_lines

EMOTICON_CLASSES = ("happy", "sad", "angry", "neutral")

TOKEN_KINDS = ("word", "emoticon", "punctuation")


class LexiconFormatError(DataFormatError):
    """Raised for malformed lexicon files or inconsistent lexicon entries."""


@dataclass(frozen=True)
class Token:
    """One normalized token.  ``kind`` is "emoticon" only for canonical forms."""

    surface: str
    kind: str

    def __post_init__(self):
        if self.surface.split() != [self.surface]:
            raise ValueError(f"token surface must be non-empty and whitespace-free: {self.surface!r}")
        if self.kind not in TOKEN_KINDS:
            raise ValueError(f"unknown token kind: {self.kind!r}")


def _is_word_char(ch: str) -> bool:
    return bool(re.match(r"[^\W_]", ch))


class EmoticonLexicon:
    """Immutable emoticon table mapping raw variants to canonical forms.

    Each entry is ``(raw, canonical, class)``.  Invariants enforced here:
    raw forms are unique, every canonical form maps to itself, and a raw
    form's class always agrees with its canonical form's class.  ``sha256``
    is the hash of the file the entries were read from, None if built in code.
    The only state that changes is :func:`normalize_utterance`'s private
    memo, which holds at most ``_CHUNK_MEMO`` chunks.
    """

    def __init__(self, entries, sha256: str | None = None):
        entries = [tuple(e) for e in entries]
        if not entries:
            raise LexiconFormatError("lexicon has no entries")
        raw_to_canonical: dict[str, str] = {}
        raw_class: dict[str, str] = {}
        for raw, canonical, cls in entries:
            for form in (raw, canonical):
                # tokenize strips variation selectors, so no text could match them.
                if not form or any(c.isspace() or ord(c) in _VARIATION_SELECTORS for c in form):
                    raise LexiconFormatError(
                        f"emoticon form must be non-empty, without whitespace or variation selectors: {form!r}"
                    )
            if cls not in EMOTICON_CLASSES:
                raise LexiconFormatError(f"unknown emoticon class {cls!r} for {raw!r}")
            if raw in raw_to_canonical:
                raise LexiconFormatError(f"duplicate raw form {raw!r}")
            raw_to_canonical[raw] = canonical
            raw_class[raw] = cls
        for raw, canonical, cls in entries:
            if raw_to_canonical.get(canonical) != canonical:
                raise LexiconFormatError(f"canonical form {canonical!r} does not map to itself")
            if raw_class[canonical] != cls:
                raise LexiconFormatError(
                    f"class of {raw!r} ({cls}) disagrees with its canonical form {canonical!r}"
                )
        self.entries = entries
        self.sha256 = sha256
        self.raw_to_canonical = raw_to_canonical
        # Class lookup is by canonical form; raw forms were checked consistent.
        self.canonical_class = {c: raw_class[c] for c in raw_to_canonical.values()}
        self._scanner = self._compile_scanner()
        # normalize_utterance's memo: whitespace chunk -> its normalized tokens.
        self._chunk_tokens: dict[str, tuple[Token, ...]] = {}

    def _compile_scanner(self, marks: str = "") -> re.Pattern:
        # One alternation over all raw forms, longest first.  Each form may be
        # extended by a run of its final ("mouth") character, so ":(((" is
        # captured as a single token.  Forms ending in a letter or digit (like
        # "xD") must not bleed into a following word, nor part a following
        # combining mark from its letter when ``marks`` lists them.
        order = {raw: i for i, raw in enumerate(self.raw_to_canonical)}
        parts = []
        for raw in sorted(self.raw_to_canonical, key=lambda r: (-len(r), order[r])):
            pat = re.escape(raw) + re.escape(raw[-1]) + "*"
            if _is_word_char(raw[-1]):
                pat += rf"(?![^\W_]{marks})"
            parts.append(pat)
        return re.compile("|".join(parts))

    @cached_property
    def _mark_scanner(self) -> re.Pattern:
        """The scanner whose guard also rejects a combining mark."""
        return self._compile_scanner(f"|[{_combining_marks()}]")

    def match_emoticon(self, text: str, pos: int = 0):
        """Match an emoticon candidate (raw form plus mouth run) at ``pos``."""
        m = self._scanner.match(text, pos)
        # Marks in the guard change only a letter-final match a mark follows,
        # which is rare: the marks are listed (all of Unicode scanned) on first need.
        if m and m.end() < len(text) and _is_mark(text[m.end()]) and _is_word_char(m[0][-1]):
            m = self._mark_scanner.match(text, pos)
        return m


def load_lexicon(source) -> EmoticonLexicon:
    """Read a lexicon from a path, bytes, or a text/byte stream.

    Format: UTF-8, one ``raw<TAB>canonical<TAB>class`` entry per line; lines
    starting with '#' and blank lines are ignored.  The lexicon's ``sha256``
    is the hash of the bytes read.
    """
    data, name = _read(source)
    lines = _split_lines(data, name)
    entries = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconFormatError(f"{name}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        entries.append(tuple(fields))
    try:
        return EmoticonLexicon(entries, hashlib.sha256(data).hexdigest())
    except LexiconFormatError as exc:
        raise LexiconFormatError(f"{name}: {exc}") from None


_PACKAGED_LEXICON = resources.files("sslstm").joinpath("data/emoticons.tsv")


@lru_cache(maxsize=1)
def default_lexicon() -> EmoticonLexicon:
    """The lexicon shipped with the package."""
    with resources.as_file(_PACKAGED_LEXICON) as path:
        return load_lexicon(path)


def default_lexicon_sha256() -> str:
    """SHA-256 of the packaged lexicon file."""
    return default_lexicon().sha256


_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")
_WORD_TAIL_RE = re.compile(r"[^\W_]*(?:['’][^\W_]+)*")


def _is_mark(ch: str) -> bool:
    # Combining marks start at U+0300; the comparison spares ASCII text the lookup.
    return ch >= "\u0300" and unicodedata.category(ch).startswith("M")


@lru_cache(maxsize=1)
def _combining_marks() -> str:
    """Every combining mark, in code point order."""
    return "".join(filter(_is_mark, map(chr, range(sys.maxunicode + 1))))


def _word_end(chunk: str, pos: int) -> int | None:
    """End of the word at ``pos``, None if none starts there.  A word is
    letters and digits, with internal apostrophes, and keeps the combining
    marks that follow its letters ("नमस्ते", a decomposed "café")."""
    m = _WORD_RE.match(chunk, pos)
    if not m:
        return None
    end = m.end()
    while end < len(chunk) and _is_mark(chunk[end]):
        end = _WORD_TAIL_RE.match(chunk, end + 1).end()
    return end


# Emoji variation selectors change rendering only; drop them before scanning.
_VARIATION_SELECTORS = dict.fromkeys((0xFE0E, 0xFE0F), None)

def _drop_chunk(chunk: str) -> bool:
    # Twitter handles and URLs.  The prefixes are chosen so that no word or
    # punctuation token ("@" alone, the bare word "http") matches, and
    # tokenize keeps a chunk that is one emoticon candidate (like "@_@"),
    # which keeps tokenize -> serialize -> tokenize a fixed point.
    low = chunk.lower()
    if low.startswith("@"):
        return len(chunk) > 1
    return low.startswith(("http://", "https://", "www."))


def tokenize(raw: str, lex: EmoticonLexicon) -> list[Token]:
    """Split raw text into tokens.

    Word tokens are lowercased and keep internal apostrophes ("don't")
    and combining marks; a word that changes case is scanned again
    lowercased, as it will be written.  @-handles and URLs are dropped
    unless the chunk is one emoticon candidate; emoticon candidates
    (lexicon raw forms, including repeated-mouth runs) survive as single
    tokens; everything else becomes one punctuation token per character.
    """
    text = raw.translate(_VARIATION_SELECTORS)
    tokens: list[Token] = []
    for chunk in text.split():
        if _drop_chunk(chunk):
            whole = lex.match_emoticon(chunk)
            if not whole or whole.end() < len(chunk):
                continue
        pos = 0
        while pos < len(chunk):
            m = lex.match_emoticon(chunk, pos)
            if m:
                surface = m.group(0)
                kind = "emoticon" if surface in lex.canonical_class else "punctuation"
                tokens.append(Token(surface, kind))
                pos = m.end()
                continue
            end = _word_end(chunk, pos)
            if end is not None:
                word = chunk[pos:end]
                if word != word.lower():
                    # Lowercased, it may start with an emoticon or split.
                    chunk = chunk[:pos] + word.lower() + chunk[end:]
                    continue
                tokens.append(Token(word, "word"))
                pos = end
                continue
            tokens.append(Token(chunk[pos], "punctuation"))
            pos += 1
    return tokens


_TRAILING_RUN_RE = re.compile(r"(.)\1+\Z")


def normalize_emoticons(tokens, lex: EmoticonLexicon) -> list[Token]:
    """Replace every recognized emoticon variant by its canonical form.

    A token matches either directly or after collapsing a trailing repeated-
    character run (":(((" -> ":(").  Unrecognized tokens pass through
    unchanged; the operation is idempotent.
    """
    out: list[Token] = []
    for tok in tokens:
        surface = tok.surface
        canonical = lex.raw_to_canonical.get(surface)
        if canonical is None:
            collapsed = _TRAILING_RUN_RE.sub(r"\1", surface)
            if collapsed != surface:
                canonical = lex.raw_to_canonical.get(collapsed)
        if canonical is None:
            out.append(tok)
        else:
            out.append(Token(canonical, "emoticon"))
    return out


# Most entries a lexicon's chunk memo holds before it is cleared (~5 MB).
_CHUNK_MEMO = 1 << 14


def normalize_utterance(raw: str, lex: EmoticonLexicon) -> list[Token]:
    """Tokenize and emoticon-normalize one utterance.

    Equal to ``normalize_emoticons(tokenize(raw, lex), lex)``: both steps
    read one whitespace chunk at a time, so each distinct chunk is
    normalized once per lexicon and then looked up in its memo.
    """
    memo = lex._chunk_tokens
    out: list[Token] = []
    for chunk in raw.translate(_VARIATION_SELECTORS).split():
        tokens = memo.get(chunk)
        if tokens is None:
            if len(memo) >= _CHUNK_MEMO:
                memo.clear()
            tokens = memo[chunk] = tuple(normalize_emoticons(tokenize(chunk, lex), lex))
        out.extend(tokens)
    return out


def surface(token) -> str:
    """The text of a token; every function taking tokens accepts either
    :class:`Token` objects or their plain-string surfaces."""
    return token.surface if isinstance(token, Token) else token


def surfaces(tokens) -> list[str]:
    """Token surfaces as plain strings."""
    return list(map(surface, tokens))


def emoticon_class(token, lex: EmoticonLexicon) -> str | None:
    """Class of a canonical emoticon token; None for anything else."""
    return lex.canonical_class.get(surface(token))


def serialize_tokens(tokens) -> str:
    """Join tokens back into a space-separated string."""
    return " ".join(surfaces(tokens))
