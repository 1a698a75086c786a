"""
Constructive word decomposition
================================

Any member of gamma_1p factors as a word over M1..M4, j1(SL(2,Z)) and
j2(gamma1_of_p).  The decomposition is fully constructive -- a gcd
ladder on the first row, one block clearing step, one residue letter --
and replay is checked exactly.
"""

import json

from sp4cert import GroupLabel, SampleSpec, decompose, sample

p = 3

# A reproducible pseudo-random member: a word of length 12 over the
# generating set, re-validated against the membership predicate.
k = sample(SampleSpec(group=GroupLabel.GAMMA_1P, p=p, seed=2024, word_length=12))
print("input entries, row-major:")
for row in k.rows:
    print("  ", [str(x) for x in row])

word = decompose(k, p, tilde=False)
print(f"\ndecomposed into {len(word.letters)} letters, each written by itself:")
for letter in word.letters:
    print("  ", json.dumps(letter.to_json_obj()))

# Replay is the oracle: multiplying the letters back gives the input,
# with exact equality, not approximation.
print("\nreplay equals input:", word.replay() == k)

# Words serialise to JSON and travel losslessly.
text = json.dumps(word.to_json_obj(), indent=1)
print(f"serialised word: {len(text)} bytes")
