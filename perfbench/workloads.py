"""Workloads: fixed cycles of `ampmech` CLI invocations.

Each workload is a cycle of invocations, each with a multiplicity, repeated
whole on every run so that every run has the same composition. The
multiplicities place the 50th and 90th latency percentiles inside one
invocation class rather than on the step between two classes (see
NOTES.md). `VERIFY_SEED` stands for the `verify --seed` value that the
benchmark seed picks; the six reference invocations pinned by
`tests/goldens/` keep their exact argv.
"""

import random

VERIFY_SEED = object()

# argv of each golden file, as in scripts/regenerate_goldens.py
GOLDENS = {
    ("solve",): "solve.json",
    ("solve", "--format", "csv"): "solve.csv",
    ("verify",): "verify.json",
    ("classical", "--a1", "1.0", "--lam", "0.01", "--level", "40"): "classical.json",
    ("oracle",): "oracle.json",
    ("sho",): "sho.json",
}

WORKLOADS = {
    # The commands users type: the golden reference invocations plus the
    # quartic solve/verify/oracle. Per-call Python overhead in perturb and
    # core.multiply (inside verify) dominate; eigensolves stay small.
    "defaults": [
        (("solve",), 1),
        (("solve", "--format", "csv"), 1),
        (("verify",), 1),
        (("classical", "--a1", "1.0", "--lam", "0.01", "--level", "40"), 1),
        (("oracle",), 1),
        (("sho",), 2),
        (("solve", "--force", "3"), 1),
        (("verify", "--force", "3", "--seed", VERIFY_SEED), 2),
        (("oracle", "--force", "3"), 1),
    ],
    # Dense oracle data (band_max = N - 1): the per-entry get loop in
    # core.quantum_condition_residual and the LAPACK eigensolves dominate;
    # perturb and rendering are nearly absent.
    "dense-oracle": [
        (("oracle", "--basis-size", "200", "--force", "2"), 3),
        (("oracle", "--basis-size", "200", "--force", "3"), 3),
        (("oracle", "--basis-size", "300", "--force", "2"), 1),
        (("oracle", "--basis-size", "300", "--force", "3"), 1),
    ],
    # Few bands over thousands of rows: perturb used differently from
    # `defaults`, and rendering of large outputs dominates. Carries the
    # known absolute-tolerance failures (exit 1 at n_max >= 60, ROADMAP item 4).
    "high-levels": [
        (("solve", "--n-max", "200"), 1),
        (("solve", "--n-max", "1000"), 1),
        (("solve", "--n-max", "3000", "--format", "csv"), 2),
        (("verify", "--n-max", "60", "--seed", VERIFY_SEED), 1),
        (("verify", "--n-max", "200", "--seed", VERIFY_SEED), 1),
        (("sho", "--n-max", "1000"), 1),
        (("classical", "--a1", "1.0", "--level", "1000", "--force", "3"), 1),
        (("classical", "--a1", "1.0", "--level", "3000", "--force", "3"), 1),
    ],
}


class Schedule:
    """The invocations of one workload under one benchmark seed.

    The seed fixes the `verify --seed` value and the job order within each
    cycle; it changes neither the invocations nor their multiplicities.
    """

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(seed)
        # nine digits for every seed, so output sizes do not depend on it
        self.verify_seed = self._rng.randrange(10**8, 10**9)
        self.distinct = []
        self.cycle = []
        for argv, count in WORKLOADS[workload]:
            argv = tuple(
                str(self.verify_seed) if a is VERIFY_SEED else a for a in argv
            )
            self.distinct.append(argv)
            self.cycle.extend([argv] * count)

    def next_cycle(self) -> list:
        order = list(self.cycle)
        self._rng.shuffle(order)
        return order
