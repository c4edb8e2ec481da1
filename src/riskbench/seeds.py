"""Every seed and random stream, derived from the run's seed by `np.random.SeedSequence`."""

import numpy as np


def child_seed(*parts: int) -> int:
    """Deterministic 63-bit seed from a tuple of indices."""
    ss = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def rng_stream(seed: int, label: int) -> np.random.Generator:
    """The generator of stream `label` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), label)))
