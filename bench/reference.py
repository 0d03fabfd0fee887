"""A fixed pure-Python task that gauges how fast the host runs Python right now.

Usage: python reference.py > /dev/null

It does not touch morfo and its work never changes: it starts an
interpreter, imports a few standard modules, builds a prefix table over
generated words, looks words up in it and writes one formatted line per
lookup, the same kinds of work the CLI does. The benchmark runs it between
CLI children and divides their times by its time, so that the host's speed,
which other tenants move by up to 1.6x for minutes at a time, cancels out
and only the program's own speed is left.
"""

import random
import sys


def work(words: int = 8_000, passes: int = 4) -> int:
    rng = random.Random(7)
    vocab = ["".join(rng.choice("abcdefghilmnoprstu") for _ in range(rng.randint(3, 10)))
             for _ in range(words)]
    table = {}
    for word in vocab:
        for k in range(1, len(word)):
            table.setdefault(word[:k], []).append(word[k:])
    out = []
    for _ in range(passes):
        for word in vocab:
            hits = table.get(word[:3], ())
            out.append(f"{word}\t{len(hits)}\t{word.upper()}\n")
    sys.stdout.write("".join(out))
    return len(out)


if __name__ == "__main__":
    work()
