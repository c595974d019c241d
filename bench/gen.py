"""Seeded inputs for the term batch of the `serial` workload.

The generator knows the KO7 surface syntax but imports nothing from
`ko7`: the program under test receives only the generated text.  Sizes
and chain lengths are stratified over their ranges and only jittered by
the seed, so every seed gives the same mix of work and percentiles stay
comparable across seeds; the term shapes themselves are random.
"""

from __future__ import annotations

import hashlib
import random

ARITY = {"void": 0, "delta": 1, "integrate": 1, "merge": 2, "app": 2, "rec": 3, "eqw": 2}
_NON_NULLARY = [k for k, a in ARITY.items() if a]

# Today's recursive walkers raise RecursionError near depth 330; inputs
# stay below this depth until the library walks terms without recursion.
DEPTH_LIMIT = 310


def random_term(rng: random.Random, n: int) -> str:
    """A uniformly shaped random term with exactly n constructor nodes."""
    if n == 1:
        return "void"
    kind = rng.choice([k for k in _NON_NULLARY if ARITY[k] <= n - 1])
    arity = ARITY[kind]
    cuts = sorted(rng.sample(range(1, n - 1), arity - 1)) if arity > 1 else []
    bounds = [0] + cuts + [n - 1]
    kids = [random_term(rng, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    return "(" + kind + " " + " ".join(kids) + ")"


def delta_chain(n: int) -> str:
    """rec void void (delta^n void): n rec_succ steps, depth n + 2."""
    return "(rec void void " + "(delta " * n + "void" + ")" * n + ")"


def depth(text: str) -> int:
    """Nesting depth in constructor nodes (void at the root has depth 1)."""
    deepest = level = 0
    for ch in text:
        if ch == "(":
            level += 1
            deepest = max(deepest, level)
        elif ch == ")":
            level -= 1
    return deepest + 1


def _stratified(rng: random.Random, lo: int, hi: int, count: int, jitter: int) -> list[int]:
    if count == 1:
        return [lo]
    return [
        min(hi, max(lo, lo + (hi - lo) * i // (count - 1) + rng.randint(-jitter, jitter)))
        for i in range(count)
    ]


def term_batch(
    seed: int,
    count: int = 1000,
    sizes: tuple[int, int] = (20, 60),
    chain_share: float = 0.03,
    chains: tuple[int, int] = (50, 300),
) -> list[str]:
    """`count` terms in seeded order: random terms with sizes spread over
    `sizes`, plus `chain_share` of them delta-chains with lengths spread
    over `chains`."""
    rng = random.Random(seed)
    n_chains = max(1, round(count * chain_share))
    lengths = _stratified(rng, chains[0], chains[1], n_chains, 3)
    if max(lengths) + 2 >= DEPTH_LIMIT or sizes[1] >= DEPTH_LIMIT:
        raise ValueError(f"inputs would reach depth {DEPTH_LIMIT}")
    node_counts = _stratified(rng, sizes[0], sizes[1], count - n_chains, 1)
    batch = [delta_chain(n) for n in lengths] + [random_term(rng, n) for n in node_counts]
    rng.shuffle(batch)
    return batch


def describe(batch: list[str]) -> dict:
    """What a result records about its inputs."""
    text = "\n".join(batch)
    return {
        "terms": len(batch),
        "inputs_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "max_depth": max(depth(t) for t in batch),
    }
