"""
Utterance normalization walkthrough
===================================

Social-media text arrives messy: mixed case, stretched emoticons,
emoji, handles, URLs.  The normalizer lowercases, splits punctuation,
collapses emoticon variants onto canonical lexicon forms, maps emoji
onto the same forms, and drops handles and URLs entirely.
"""

from sslstm.text_norm import (
    default_lexicon,
    emoticon_class,
    normalize_utterance,
    serialize_tokens,
)

messages = [
    "Yeah! :((( My plan is cancelled \N{UNAMUSED FACE}\N{WHITE FROWNING FACE}",
    "SOOO happy today :-)))",
    "@coach we LOST the game >:(",
    "check this out http://t.co/abc123 <3",
    "Don't be sad... it's fine :'(",
]

lex = default_lexicon()

print("raw -> normalized")
print("-" * 60)
for raw in messages:
    tokens = normalize_utterance(raw, lex)
    print(f"{raw!r}")
    print(f"  -> {serialize_tokens(tokens)!r}")
print()

# ---------------------------------------------------------------------------
# Normalization is idempotent: feeding the output back in changes nothing.

once = normalize_utterance(messages[0], lex)
twice = normalize_utterance(serialize_tokens(once), lex)
print("idempotent:", once == twice)
print()

# ---------------------------------------------------------------------------
# Canonical emoticons carry an emotion class from the packaged lexicon;
# the mining heuristics use these to veto implausible candidates.

for surface in (":)", ":(", ":'(", ">:(", ":|", "word"):
    print(f"emoticon_class({surface!r}) = {emoticon_class(surface, lex)!r}")
