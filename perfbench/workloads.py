"""The benchmark's workloads and how --seed turns them into instances.

Each member of a workload is a k-XOR instance drawn once by ``gen_kxor``
from a fixed base seed.  Round r of a run with seed s presents it afresh:
a generator keyed by (s, r, member index) shuffles the clause order and
draws a gauge, flipping each variable x[v] -> g[v] * x[v], which multiplies
every clause sign by prod_{v in c} g[v].  A gauge maps assignments one to
one, so the value of the instance and the spectrum of every matrix the
prover builds stay the same, while the bytes the program receives, its
digests and its certificates are new in every round.

Fresh draws per seed were tried first: the light side's power iteration
stops after anywhere from about 200 to 6242 matvecs (the 1500-iteration cap
on both starts) depending on each draw's spectral gap, so over 12 seeds the
refute time of one instance had an interquartile range of 95% to 336% of its
median, and no run length this benchmark can afford averages that out.
Under a gauge the start vectors still change, and with them the iteration
count (by about 10% on light4, and now and then by half); each round draws a
new gauge so that the median over rounds averages that out.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from xorcert import GenSpec, KXorInstance, gen_kxor


@dataclass(frozen=True)
class Member:
    """One instance of a workload: a gen_kxor family, its size, and eps."""

    kind: str
    n: int
    m: int
    k: int
    eps: float
    base_seed: int
    params: dict = field(default_factory=dict)
    planted: bool = False  # re-sign the draw so a hidden assignment satisfies it

    @property
    def label(self) -> str:
        tag = "planted" if self.planted else self.kind
        return f"{tag}-{self.k}xor-n{self.n}-m{self.m}"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Member, ...]] = {
    "heavy3": (
        Member("random", n=20, m=6000, k=3, eps=0.4, base_seed=1),
        Member("random", n=20, m=6000, k=3, eps=0.4, base_seed=2, planted=True),
        Member("star", n=30, m=4000, k=3, eps=0.4, base_seed=1),
        Member("clustered", n=30, m=4000, k=3, eps=0.4, base_seed=1),
    ),
    "light3": (
        Member("random", n=20, m=1200, k=3, eps=0.3, base_seed=1),
        Member("random", n=20, m=1200, k=3, eps=0.3, base_seed=2),
        Member("heavy-group", n=20, m=1000, k=3, eps=0.3, base_seed=1,
               params={"group_size": 350}),
    ),
    "light4": (
        Member("random", n=14, m=300, k=4, eps=0.4, base_seed=1),
    ),
}


@dataclass(frozen=True)
class Generated:
    member: Member
    inst: KXorInstance
    planted_x: np.ndarray | None  # a satisfying assignment, for planted members


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def generate(member: Member, index: int, seed: int, round_: int) -> Generated:
    """Draw the member's base instance with gen_kxor and present it for (seed, round)."""
    base = gen_kxor(GenSpec(kind=member.kind, n=member.n, m=member.m, seed=member.base_seed,
                            k=member.k, params=member.params))
    clauses = np.asarray(base.clauses, dtype=np.int64)
    signs = np.asarray(base.signs, dtype=np.int64)
    hidden = None
    if member.planted:
        hidden = _rng(member.base_seed).choice(np.array([-1, 1]), size=member.n)
        signs = hidden[clauses].prod(axis=1)
    rng = _rng(seed, round_, index)
    gauge = rng.choice(np.array([-1, 1]), size=member.n)
    signs = signs * gauge[clauses].prod(axis=1)
    order = rng.permutation(member.m)
    inst = KXorInstance(n=member.n, k=member.k,
                        clauses=tuple(tuple(int(v) for v in clauses[i]) for i in order),
                        signs=tuple(int(s) for s in signs[order]))
    return Generated(member, inst, None if hidden is None else hidden * gauge)
