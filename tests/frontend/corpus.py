"""Sources for the frontend differential tests.

The paper's eight proxies, genprog seeds 0-199, and a seeded mutation
corpus built from them.  Mutations splice in the characters a character
classifier can get wrong (non-ASCII letters and digits, form feed,
vertical tab, NUL, superscript digits), unterminated block comments and
40-digit literals, and delete or duplicate slices of the text.
"""

import functools
import random

from repro.bench.workloads import ORDER, WORKLOADS

from tests.property.genprog import random_program

# fmt: off
#: Fragments a mutation inserts: each probes one character class.
SPLICES = [
    "é", "ß", "Ω", "_é", "xé1",  # letters: identifier start and continuation
    "٣", "𝟘", "1٣", "٣x",  # decimal digits of other scripts
    "Ⅻ", "xⅫ",  # a letter-number: not alpha, but alnum
    "²", "5²", "²1", "x²",  # digits that are not decimal
    "\f", "\v", "\0", "\r", "\t", "\n",
    "/*", "*/", "//", "/* x\n y */",
    "1234567890123456789012345678901234567890",
    "<<=", ">>=", "&&", "||", "++", "--", "->", "$", "@", "#", "`", "\\",
]
# fmt: on


def _mutate(source: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(source) + 1)
        choice = rng.random()
        if choice < 0.6:
            source = source[:i] + rng.choice(SPLICES) + source[i:]
        elif choice < 0.8:
            source = source[:i] + source[i + rng.randint(1, 8) :]
        else:
            j = min(len(source), i + rng.randint(1, 40))
            source = source[:j] + source[i:j] + source[j:]
    return source


@functools.lru_cache(maxsize=None)
def sources():
    """(label, source) pairs: every base source, then its mutations."""
    base = [(name, WORKLOADS[name].source) for name in ORDER]
    base += [(f"genprog-{seed}", random_program(seed)) for seed in range(200)]
    rng = random.Random(20261017)
    mutated = [
        (f"{label}~{k}", _mutate(text, rng))
        for label, text in base
        for k in range(3)
    ]
    return tuple(base + mutated)
