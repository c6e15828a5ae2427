"""Loading ASAP-format essays: tokenization, score scaling, vocabularies.

Run:  python demos/01_corpus_basics.py
"""
import tempfile
from pathlib import Path

from delaes import (
    DEFAULT_RANGES,
    build_vocabulary,
    denormalize_score,
    load_dataset,
    normalize_score,
    tokenize,
)

# ---------------------------------------------------------------------------
# Tokenization is deterministic and rule-based: lowercase, punctuation split
# off, ASAP anonymization markers like "@caps1" kept whole.
# ---------------------------------------------------------------------------
text = "Dear editor, @CAPS1 says students shouldn't rely on @NUM1 computers."
print("text:   ", text)
print("tokens: ", tokenize(text))
print()

# ---------------------------------------------------------------------------
# Gold scores are normalized into [0, 1] per prompt and rescaled back with
# round-half-away-from-zero.  Every integer in a range round-trips exactly.
# ---------------------------------------------------------------------------
prompt7 = DEFAULT_RANGES[7]
print(f"prompt 7 range: {prompt7.min_score}..{prompt7.max_score}")
print("normalize(9)  =", normalize_score(9, prompt7))
print("denormalize(0.3) =", denormalize_score(0.3, prompt7))
round_trip = all(
    denormalize_score(normalize_score(s, prompt7), prompt7) == s
    for s in range(prompt7.min_score, prompt7.max_score + 1)
)
print("all 31 scores round-trip:", round_trip)
print()

# ---------------------------------------------------------------------------
# The loader reads the tab-separated ASAP layout: a header row, then one
# essay per line.  Columns beyond the required four are ignored.
# ---------------------------------------------------------------------------
rows = [
    "essay_id\tessay_set\tessay\tdomain1_score",
    "1\t1\tDear newspaper, computers are not all bad.\t3",
    "2\t1\tI think @CAPS1 disagrees with the premise.\t2",
    "3\t2\tThis one belongs to another prompt.\t4",
    "4\t1\tComputers help people talk to friends and family!\t4",
]
with tempfile.TemporaryDirectory() as tmp:
    data = Path(tmp) / "essays.tsv"
    data.write_text("\n".join(rows) + "\n", encoding="latin-1")
    essays = load_dataset(data, prompt_id=1, score_range=DEFAULT_RANGES[1])

print(f"loaded {len(essays)} essays for prompt 1 (the prompt-2 row is skipped)")
for essay in essays:
    print(f"  id={essay.essay_id} raw={essay.raw_score} "
          f"normalized={normalize_score(essay.raw_score, essays.score_range):.2f} "
          f"first tokens={list(essay.tokens[:4])}")
print()

# ---------------------------------------------------------------------------
# Vocabulary indices are deterministic: PAD=0 and UNK=1 are reserved, then
# tokens by descending frequency with lexicographic tie-breaks.
# ---------------------------------------------------------------------------
vocab = build_vocabulary([essays])
print("vocabulary size:", vocab.size)
print("most frequent tokens:", vocab.corpus_tokens()[:6])
print("unknown words map to UNK:", vocab.index("zeppelin"))
