import hashlib
import io
import random
import string
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslstm
import sslstm.text_norm as text_norm
from conftest import LEX
from sslstm.embeddings import EmbeddingTable
from sslstm.text_norm import (
    EMOTICON_CLASSES,
    EmoticonLexicon,
    LexiconFormatError,
    Token,
    default_lexicon,
    default_lexicon_sha256,
    emoticon_class,
    load_lexicon,
    normalize_emoticons,
    normalize_utterance,
    serialize_tokens,
    tokenize,
)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("", LEX) == []
        assert tokenize("   \t \n", LEX) == []

    def test_words_and_trailing_punctuation(self):
        # Hand application of the rules: lowercase, split "!", keep "don't".
        assert tokenize("Why don't you ever text me!", LEX) == [
            "why", "don't", "you", "ever", "text", "me", "!",
        ]

    def test_handles_and_urls_dropped(self):
        assert tokenize("@bob :) ok", LEX) == [":)", "ok"]
        text = "see http://t.co/abc and www.example.com now"
        assert tokenize(text, LEX) == ["see", "and", "now"]

    def test_emoticon_survives_as_single_token(self):
        toks = tokenize("gone :(((", LEX)
        assert toks == ["gone", ":((("]

    def test_emoticon_glued_to_word(self):
        assert tokenize("ok:)fine", LEX) == ["ok", ":)", "fine"]

    def test_letter_final_emoticon_does_not_eat_words(self):
        # "xD" is an emoticon alone but not inside a word.
        assert tokenize("xD", LEX) == ["xD"]
        assert tokenize("xDude", LEX) == ["xdude"]

    def test_only_the_emoticon_has_a_class(self):
        toks = tokenize("hi :) !", LEX)
        assert toks == ["hi", ":)", "!"]
        assert [emoticon_class(t, LEX) for t in toks] == [None, "happy", None]

    def test_non_canonical_emoticon_has_no_class(self):
        (tok,) = tokenize(":(((", LEX)
        assert tok == ":((("
        assert emoticon_class(tok, LEX) is None

    def test_unknown_punctuation_split_per_character(self):
        assert tokenize("wow?!*", LEX) == ["wow", "?", "!", "*"]

    def test_no_whitespace_and_lowercase_words(self):
        toks = tokenize("Some MIXED case,text :) 12Three", LEX)
        assert toks == ["some", "mixed", "case", ",", "text", ":)", "12three"]
        for tok in toks:
            assert not any(c.isspace() for c in tok)
            if emoticon_class(tok, LEX) is None:
                assert tok == tok.lower()

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("नमस्ते", ["नमस्ते"]),
            ("Cafe\u0301's OK!", ["cafe\u0301's", "ok", "!"]),  # a decomposed "café"
            ("e\u0301\u0327t\u0301", ["e\u0301\u0327t\u0301"]),
            ("\u0301e", ["\u0301", "e"]),  # no letter before the mark
        ],
    )
    def test_combining_marks_stay_in_the_word(self, text, expected):
        toks = normalize_utterance(text, LEX)
        assert toks == expected
        assert [emoticon_class(t, LEX) for t in toks] == [None] * len(expected)

    def test_determinism(self):
        text = "Some :))) input!! with @stuff and don't"
        assert tokenize(text, LEX) == tokenize(text, LEX)


class TestNormalizeEmoticons:
    def test_mouth_run_collapse(self):
        assert normalize_emoticons(tokenize(":(((", LEX), LEX) == [":("]

    def test_already_canonical_is_fixed_point(self):
        assert normalize_emoticons(tokenize(":)", LEX), LEX) == [":)"]

    def test_emoji_to_ascii(self):
        toks = tokenize("\N{UNAMUSED FACE} \N{WHITE FROWNING FACE}", LEX)
        assert normalize_emoticons(toks, LEX) == [":|", ":("]

    def test_variants_collapse_to_singular_form(self):
        toks = normalize_emoticons(tokenize(":-) =) (: ^_^", LEX), LEX)
        assert toks == [":)"] * 4
        assert [emoticon_class(t, LEX) for t in toks] == ["happy"] * 4

    def test_unrecognized_pass_through(self):
        toks = tokenize("soooo *", LEX)
        assert normalize_emoticons(toks, LEX) == ["soooo", "*"]

    def test_idempotent(self):
        toks = normalize_emoticons(tokenize("wow :((( \N{UNAMUSED FACE} fine", LEX), LEX)
        assert normalize_emoticons(toks, LEX) == toks

    def test_mouth_run_any_length(self, lexicon):
        # Every lexicon emoticon extended by k repeats of its mouth character
        # normalizes to the same canonical token.
        for raw, canonical, _cls in lexicon.entries:
            for k in (1, 2, 5):
                extended = raw + raw[-1] * (k - 1)
                out = normalize_emoticons(tokenize(f"x {extended} y", LEX), LEX)
                assert canonical in out, (raw, extended)


# Emoticon forms mix punctuation, both letter cases and digits (so a form
# may end in a word character, like "xD"), an apostrophe, "@" (the handle
# prefix), a combining mark and emoji.  Texts add words, spaces, a
# variation selector and a letter whose lowercase is two characters.
FORM_CHARS = ":;=()[]<>^_-*'@./\\|38xXdDpPoO\N{COMBINING ACUTE ACCENT}\N{WHITE SMILING FACE}\N{UNAMUSED FACE}"
TEXT_CHARS = FORM_CHARS + "abcABC '’!?\N{VARIATION SELECTOR-16}\N{LATIN CAPITAL LETTER I WITH DOT ABOVE}"
forms = st.text(st.sampled_from(FORM_CHARS), min_size=1, max_size=4)


@st.composite
def lexicon_entries(draw):
    """Entries of a valid lexicon: canonical forms that map to themselves,
    plus raw variants that share their canonical form's class."""
    canonicals = draw(st.lists(forms, min_size=1, max_size=5, unique=True))
    classes = {c: draw(st.sampled_from(EMOTICON_CLASSES)) for c in canonicals}
    entries = [(c, c, cls) for c, cls in classes.items()]
    for raw, c in draw(st.lists(st.tuples(forms, st.sampled_from(canonicals)), max_size=8)):
        if raw not in {e[0] for e in entries}:
            entries.append((raw, c, classes[c]))
    return entries


class TestNormalizeUtterance:
    def test_worked_example(self):
        got = normalize_utterance(
            "Yeah! :((( My plan is cancelled \N{UNAMUSED FACE}\N{WHITE FROWNING FACE}", LEX
        )
        assert got == ["yeah", "!", ":(", "my", "plan", "is", "cancelled", ":|", ":("]

    def test_empty(self):
        assert normalize_utterance("", LEX) == []

    def test_lowercasing(self):
        assert normalize_utterance("HELLO", LEX) == ["hello"]

    def test_reserialization_idempotence_fuzz(self):
        rng = random.Random(20240817)
        pieces = (
            list(string.ascii_letters)
            + list(".,!?;:()[]<>@#'\"/\\|-_*&%$")
            + [":)", ":(((", ":-D", "xD", "<3", "don't", "@user", "http://x.co",
               "\N{UNAMUSED FACE}", "\N{WHITE FROWNING FACE}", "\N{FACE WITH TEARS OF JOY}",
               "soooo", "HELLO", "yeah!", "=делo"]
        )
        for _ in range(1000):
            text = " ".join(
                "".join(rng.choices(pieces, k=rng.randint(1, 4)))
                for _ in range(rng.randint(0, 6))
            )
            once = normalize_utterance(text, LEX)
            again = normalize_utterance(serialize_tokens(once), LEX)
            assert again == once, text

    @pytest.mark.parametrize("text", ["Xd'c", "XDd’s", "\N{LATIN CAPITAL LETTER I WITH DOT ABOVE}x"])
    def test_words_are_scanned_as_written(self, text):
        # Lowercasing may turn the start of a word into an emoticon ("xd")
        # or split it (a combining dot), so the word is scanned lowercased.
        once = normalize_utterance(text, LEX)
        assert normalize_utterance(serialize_tokens(once), LEX) == once

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reserialization_idempotence_any_lexicon(self, data):
        lex = EmoticonLexicon(data.draw(lexicon_entries()))
        raws = [raw for raw, _, _ in lex.entries]
        piece = (
            st.sampled_from(raws)
            | st.sampled_from(raws).map(lambda form: form + form[-1] * 2)
            | st.sampled_from(raws).map(str.swapcase)
            | st.text(st.sampled_from(TEXT_CHARS), max_size=4)
            | st.sampled_from([" ", "@user", "http://x.co", "don't", "HELLO"])
        )
        text = "".join(data.draw(st.lists(piece, max_size=8)))
        once = normalize_utterance(text, lex)
        assert normalize_utterance(serialize_tokens(once), lex) == once

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_scanner_matches_as_if_every_guard_saw_marks(self, data):
        # match_emoticon takes the mark-guarded scanner only when a mark
        # follows a letter-final match; everywhere it must match as that one.
        lex = EmoticonLexicon(data.draw(lexicon_entries()))
        raws = [raw for raw, _, _ in lex.entries]
        piece = (
            st.sampled_from(raws)
            | st.sampled_from(raws).map(lambda form: form + form[-1])
            | st.text(st.sampled_from(TEXT_CHARS + "\N{DEVANAGARI VOWEL SIGN AA}"), max_size=3)
        )
        text = "".join(data.draw(st.lists(piece, max_size=6)))
        for pos in range(len(text)):
            fast, guarded = lex.match_emoticon(text, pos), lex._mark_scanner.match(text, pos)
            assert (fast and fast.span()) == (guarded and guarded.span()), (text, pos)


def reference_normalize(raw, lex):
    """What normalize_utterance computes, without its chunk memo."""
    return normalize_emoticons(tokenize(raw, lex), lex)


# Chunks that repeat across texts, so the memo is both filled and read:
# capitals that rescan lowercased, combining marks, variation selectors
# inside chunks, handles, URLs and emoticon mouth runs.  Separators put
# whitespace and lone variation selectors between chunks.
CHUNKS = [
    "Hello", "hello", "HELLO!", "Xd'c", "XDd’s", "\N{LATIN CAPITAL LETTER I WITH DOT ABOVE}x",
    "Cafe\u0301's", "xD\u0301", "\u0301e", "नमस्ते",
    "\N{WHITE SMILING FACE}\N{VARIATION SELECTOR-16}", ":\N{VARIATION SELECTOR-15})", "ok\N{VARIATION SELECTOR-16}!",
    "@user", "@", "http://x.co", "www.x.org", "@_@",
    ":(((", ":-DDD", "xDDD", "<3", "wow:))", "?!*", "don't",
]
SEPARATORS = [" ", "  ", "\t", "\n", " \N{VARIATION SELECTOR-16} ", "\N{VARIATION SELECTOR-16}"]


def texts_from(pieces):
    piece = st.sampled_from(pieces) | st.sampled_from(SEPARATORS)
    return st.lists(st.lists(piece, max_size=8).map("".join), min_size=1, max_size=6)


class TestChunkMemo:
    def assert_matches_reference(self, texts, lex):
        for text in texts + texts:  # the second round reads the memo only
            assert normalize_utterance(text, lex) == reference_normalize(text, lex), text

    @settings(max_examples=300, deadline=None)
    @given(texts=texts_from(CHUNKS))
    def test_matches_the_reference_with_the_packaged_lexicon(self, texts):
        self.assert_matches_reference(texts, LEX)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_with_any_lexicon(self, data):
        lex = EmoticonLexicon(data.draw(lexicon_entries()))
        raws = [raw for raw, _, _ in lex.entries]
        pieces = CHUNKS + raws + [r + r[-1] * 2 for r in raws] + [r.swapcase() for r in raws]
        self.assert_matches_reference(data.draw(texts_from(pieces)), lex)

    def test_memo_is_cleared_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(text_norm, "_CHUNK_MEMO", 2)
        lex = EmoticonLexicon(LEX.entries)
        assert normalize_utterance("a b c", lex) == ["a", "b", "c"]
        assert list(lex._chunk_tokens) == ["c"]  # full at "c": cleared, then "c" stored
        rng = random.Random(15)
        for _ in range(200):
            text = " ".join(rng.choices(CHUNKS, k=rng.randint(0, 5)))
            assert normalize_utterance(text, lex) == reference_normalize(text, lex), text
            assert len(lex._chunk_tokens) <= 2

    def test_each_call_returns_a_fresh_list(self):
        lex = EmoticonLexicon(LEX.entries)
        first = normalize_utterance("hi :) hi", lex)
        first[0] = "bye"
        first.append("!")
        assert normalize_utterance("hi :) hi", lex) == ["hi", ":)", "hi"]


# Whitespace a token must never hold: ASCII, a no-break space, a line
# separator and an ideographic space.
WHITESPACE = [" ", "\t", "\n", "\u00a0", "\u2028", "\u3000"]


class TestToken:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_no_token_is_empty_or_holds_whitespace(self, data):
        lex = data.draw(st.just(LEX) | lexicon_entries().map(EmoticonLexicon))
        raws = [raw for raw, _, _ in lex.entries]
        piece = (
            st.text()
            | st.sampled_from(raws)
            | st.text(st.sampled_from(TEXT_CHARS), max_size=4)
            | st.sampled_from(WHITESPACE)
        )
        text = "".join(data.draw(st.lists(piece, max_size=8)))
        for tok in normalize_utterance(text, lex):
            assert tok.split() == [tok], (text, tok)

    def test_split_finds_exactly_the_whitespace_characters(self):
        # The property above checks t.split() == [t]; str.split splits at
        # exactly the str.isspace characters.
        chars = map(chr, range(sys.maxunicode + 1))
        assert all((c.split() != [c]) == c.isspace() for c in chars)

    def test_a_token_is_its_text(self):
        (tok,) = normalize_utterance("Good", LEX)
        assert isinstance(tok, Token)
        assert tok == "good" and hash(tok) == hash("good")
        assert type(tok.surface) is str and tok.surface == "good"
        table = EmbeddingTable(dim=1, vectors={"good": [1.0]})
        assert table.ids([tok, "bad"]).tolist() == table.ids(["good", "bad"]).tolist() == [0, -1]


class TestEmoticonClass:
    @pytest.mark.parametrize(
        "surface,expected",
        [(":)", "happy"), (":'(", "sad"), (">:(", "angry"), (":|", "neutral"), ("hello", None)],
    )
    def test_lookup(self, surface, expected):
        assert emoticon_class(surface, LEX) == expected

    def test_token_object(self):
        assert emoticon_class(Token(":)"), LEX) == "happy"

    def test_raw_non_canonical_form_has_no_class(self):
        # Classes are assigned to canonical forms; variants normalize first.
        assert emoticon_class(":-)", LEX) is None


class TestLexicon:
    def test_shipped_lexicon_invariants(self, lexicon):
        raws = [raw for raw, _, _ in lexicon.entries]
        assert len(raws) == len(set(raws))
        for raw, canonical, cls in lexicon.entries:
            assert lexicon.raw_to_canonical[canonical] == canonical
            assert lexicon.canonical_class[canonical] == cls

    def test_load_rejects_bad_column_count(self):
        with pytest.raises(LexiconFormatError, match="3 tab-separated"):
            load_lexicon(io.StringIO(":)\thappy\n"))

    def test_load_rejects_duplicate_raw(self):
        data = ":)\t:)\thappy\n:)\t:)\thappy\n"
        with pytest.raises(LexiconFormatError, match="duplicate"):
            load_lexicon(io.StringIO(data))

    def test_load_rejects_dangling_canonical(self):
        data = ":-)\t:)\thappy\n"
        with pytest.raises(LexiconFormatError, match="does not map to itself"):
            load_lexicon(io.StringIO(data))

    def test_load_rejects_class_mismatch(self):
        data = ":)\t:)\thappy\n:-)\t:)\tsad\n"
        with pytest.raises(LexiconFormatError, match="disagrees"):
            load_lexicon(io.StringIO(data))

    def test_rejects_variation_selector(self):
        # tokenize strips variation selectors, so such a form could never match.
        with pytest.raises(LexiconFormatError, match="variation selectors"):
            EmoticonLexicon([("\N{WHITE SMILING FACE}\N{VARIATION SELECTOR-16}",) * 2 + ("happy",)])

    def test_whole_chunk_emoticon_is_not_a_handle(self):
        lex = EmoticonLexicon([("@_@", "@_@", "neutral")])
        assert normalize_utterance("wow@_@ @_@ @_@x @bob", lex) == ["wow", "@_@", "@_@"]

    def test_comments_and_blanks_skipped(self):
        data = "# comment\n\n:)\t:)\thappy\n"
        lex = load_lexicon(io.StringIO(data))
        assert lex.raw_to_canonical == {":)": ":)"}

    def test_default_lexicon_is_cached(self):
        assert default_lexicon() is default_lexicon()

    def test_a_loaded_lexicon_carries_the_hash_of_its_bytes(self):
        data = "# comment\n:)\t:)\thappy\n"
        expected = hashlib.sha256(data.encode("utf-8")).hexdigest()
        assert load_lexicon(data.encode("utf-8")).sha256 == expected
        assert load_lexicon(io.StringIO(data)).sha256 == expected
        assert load_lexicon(data.replace("#", "##").encode("utf-8")).sha256 != expected
        assert EmoticonLexicon([(":)", ":)", "happy")]).sha256 is None

    def test_default_lexicon_hash_is_the_packaged_file_hash(self):
        packaged = Path(sslstm.__file__).parent / "data" / "emoticons.tsv"
        digest = hashlib.sha256(packaged.read_bytes()).hexdigest()
        assert default_lexicon().sha256 == default_lexicon_sha256() == digest
