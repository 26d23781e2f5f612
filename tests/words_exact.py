"""Check text._words against the token regex over every Unicode code point.

_words finds words with str.replace, str.lower and str.split, and so relies
on the interpreter's Unicode database agreeing with the regex: each code point
c is put into several contexts, chosen around the context-dependent lowering of
capital sigma and the two-character lowering of "İ", and the words of the text
must equal the regex tokens, each lowered on its own. Stdlib only, so it runs
under any Python that the package supports:

    PYTHONPATH=src python tests/words_exact.py
"""

import sys
import time
import unicodedata

from naveval.text import _TOKEN_RE, _words

# "{}" is where the code point goes.
CONTEXTS = ("{}", "ΑΣ{}Β", "Α{}Σ", "Σ{}Α", "ΑΣ{}", "{}Σ", "İ{}x", "x{}İ")
BLOCK = 1 << 12  # code points per text


def reference(raw):
    """tokenize(raw).tokens as the regex gives them, each token lowered on its own."""
    return tuple(token.lower() for token in _TOKEN_RE.findall(raw))


def mismatched_blocks(context):
    """The code point ranges, as "U+XXXX..U+YYYY", in which _words differs from
    reference on the context filled with each code point, joined with spaces."""
    bad = []
    for start in range(0, sys.maxunicode + 1, BLOCK):
        stop = min(start + BLOCK, sys.maxunicode + 1)
        raw = " ".join(context.format(chr(c)) for c in range(start, stop))
        if _words(raw) != reference(raw):
            bad.append(f"U+{start:04X}..U+{stop - 1:04X}")
    return bad


if __name__ == "__main__":
    failed = False
    for context in CONTEXTS:
        began = time.perf_counter()
        bad = mismatched_blocks(context)
        failed = failed or bool(bad)
        print(f"{context!r}: {len(bad)} mismatched blocks {bad} ({time.perf_counter() - began:.2f} s)")
    verdict = "MISMATCH" if failed else "exact"
    print(f"Python {sys.version.split()[0]}, Unicode {unicodedata.unidata_version}: {verdict}")
    sys.exit(1 if failed else 0)
