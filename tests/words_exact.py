"""Check text._words and text.tokenize against the token regex over every Unicode code point.

The reference is the regex [^\\s.,;:!?"]+: a token is each of its matches,
lowered on its own, and its span is the match's span. _words and tokenize find
words with str.replace, str.split and str.lower, and so rely on the
interpreter's Unicode database agreeing with the regex: each code point c is
put into several contexts, chosen around the context-dependent lowering of
capital sigma and the two-character lowering of "İ", and the words of the
text, and tokenize's tokens and spans, must equal the reference. Stdlib only,
so it runs under any Python that the package supports:

    PYTHONPATH=src python tests/words_exact.py
"""

import re
import sys
import time
import unicodedata

from naveval.text import _words, tokenize

TOKEN_RE = re.compile(r'[^\s.,;:!?"]+')

# "{}" is where the code point goes.
CONTEXTS = ("{}", "ΑΣ{}Β", "Α{}Σ", "Σ{}Α", "ΑΣ{}", "{}Σ", "İ{}x", "x{}İ", "a{}b.c")
BLOCK = 1 << 12  # code points per text


def reference_words(raw):
    """The regex tokens of raw, each lowered on its own."""
    return tuple(token.lower() for token in TOKEN_RE.findall(raw))


def reference_tokens_and_spans(raw):
    """reference_words(raw), and the span of each regex match."""
    matches = list(TOKEN_RE.finditer(raw))
    return tuple(m.group().lower() for m in matches), tuple(m.span() for m in matches)


def tokens_and_spans(raw):
    instruction = tokenize(raw)
    return instruction.tokens, instruction.spans


# Each checked function, and the reference it must equal.
CHECKS = {
    "_words": (_words, reference_words),
    "tokenize": (tokens_and_spans, reference_tokens_and_spans),
}


def mismatched_blocks(context, name="_words"):
    """The code point ranges, as "U+XXXX..U+YYYY", in which CHECKS[name]
    differs from the reference on the context filled with each code point."""
    checked, expected = CHECKS[name]
    bad = []
    for start in range(0, sys.maxunicode + 1, BLOCK):
        stop = min(start + BLOCK, sys.maxunicode + 1)
        raw = " ".join(context.format(chr(c)) for c in range(start, stop))
        if checked(raw) != expected(raw):
            bad.append(f"U+{start:04X}..U+{stop - 1:04X}")
    return bad


if __name__ == "__main__":
    failed = False
    for name in CHECKS:
        for context in CONTEXTS:
            began = time.perf_counter()
            bad = mismatched_blocks(context, name)
            failed = failed or bool(bad)
            print(f"{name} {context!r}: {len(bad)} mismatched blocks {bad} ({time.perf_counter() - began:.2f} s)")
    verdict = "MISMATCH" if failed else "exact"
    print(f"Python {sys.version.split()[0]}, Unicode {unicodedata.unidata_version}: {verdict}")
    sys.exit(1 if failed else 0)
