"""Named sub-seed derivation so every stochastic component gets its own
deterministic stream from the single run seed."""

import numpy as np

# Fixed domain codes: changing these re-keys every stream, so they are
# part of the reproducibility contract.
_DOMAINS = {
    "data": 1,
    "tokenizer": 2,
    "backbone": 3,
    "pet": 4,
    "shuffle": 5,
    "sampling": 6,
}


def sub_seed(run_seed: int, domain: str) -> np.random.SeedSequence:
    if domain not in _DOMAINS:
        raise ValueError(f"unknown rng domain {domain!r}; known: {sorted(_DOMAINS)}")
    return np.random.SeedSequence(entropy=run_seed, spawn_key=(_DOMAINS[domain],))


def generator(run_seed: int, domain: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(sub_seed(run_seed, domain)))
