"""The benchmark's workloads: which CLI commands run, in what order, and how
each output is checked.

`verify_3_23` and `sweep_20` are fixed by the project's roadmap and the
program is deterministic, so the seed changes nothing there.  In
`short_cmds` the seed orders the commands and relabels the group table
given to `double-rank`.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("verify_3_23", "sweep_20", "short_cmds")

AFFINE_PRIME = 13  # double-rank runs on AGL(1, F_13), a group of order 156


@dataclass(frozen=True)
class Op:
    """One CLI process: `python -m anisogauge.cli *argv`, or a bare
    `import anisogauge` when argv is None."""

    label: str
    argv: tuple | None
    check: Callable[[int, bytes, bytes], None]
    env: dict = field(default_factory=dict)


def _cli(args: str, check, env=None) -> Op:
    env = env or {}
    label = " ".join([f"{k}={v}" for k, v in env.items()] + [args])
    return Op(label, tuple(args.split()), check, env)


def census_pairs(qmax: int) -> list[tuple[int, int]]:
    """Odd primes p < q <= qmax with p | q + 1."""
    primes = checks.odd_primes(qmax)
    return [(p, q) for q in primes for p in primes if p < q and (q + 1) % p == 0]


def affine_group_table(m: int) -> np.ndarray:
    """Multiplication table of the maps x -> a x + b over Z/m, a a unit mod
    prime m; element (a, b) has index (a - 1) * m + b."""
    a, b = np.divmod(np.arange((m - 1) * m), m)
    a = a + 1
    # (a, b) * (c, d) = x -> a (c x + d) + b = (a c, a d + b)
    prod_a = (a[:, None] * a[None, :]) % m
    prod_b = (a[:, None] * b[None, :] + b[:, None]) % m
    return (prod_a - 1) * m + prod_b


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same group with element g renamed perm[g]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def double_rank_reference(table: np.ndarray) -> int:
    """Rank of the Drinfeld double of a group, as the number of pairwise
    commuting triples divided by the group order (Burnside's lemma applied
    to the conjugation action on commuting pairs)."""
    n = len(table)
    commute = (table == table.T).astype(np.int64)
    triples = int((commute * (commute @ commute)).sum())
    if triples % n:
        raise ValueError(f"{triples} commuting triples is not a multiple of |G| = {n}")
    return triples // n


def write_table(path: Path, table: np.ndarray) -> None:
    n = len(table)
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    path.write_text(f"{n}\n{rows}\n")


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The command sequence of one workload; may write input files to workdir."""
    if name == "verify_3_23":
        return [_cli("verify 3 23 --format json", checks.verify(3, 23))]
    if name == "sweep_20":
        return [_cli("sweep 20 --format json", checks.sweep(20))]
    if name != "short_cmds":
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    table = affine_group_table(AFFINE_PRIME)
    table = relabel(table, np.array(rng.sample(range(len(table)), len(table))))
    table_path = workdir / "group.txt"
    write_table(table_path, table)
    ops = [Op("import anisogauge", None, checks.bare_import)]
    ops += [_cli(f"census {p} {q} --format json", checks.census(p, q)) for p, q in census_pairs(50)]
    ops += [
        _cli("verify 3 5 --format json", checks.verify(3, 5)),
        _cli("verify 3 2 --format json", checks.verify(3, 2)),
        Op("double-rank", ("double-rank", str(table_path), "--format", "json"),
           checks.double_rank(len(table), double_rank_reference(table))),
        _cli("verify 3 7 --format json", checks.error_exit(2)),
        _cli("verify 3 29 --format json", checks.error_exit(3)),
        _cli("verify 3 11 --format json", checks.error_exit(3), {"ANISOGAUGE_BOUND": "100"}),
    ]
    rng.shuffle(ops)
    return ops
