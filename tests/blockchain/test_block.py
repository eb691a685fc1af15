"""Blocks of the engines' chain model: :class:`ForkChain` hashes.

The grid and graph engines keep the block tree as labelled forks; a
block is its fork's hash at one height, linked to the previous hash by
a 64-bit MD5 digest of ``previous|label|height``.
"""

import hashlib

import pytest

from repro.errors import SimulationError
from repro.netsim.grid import ForkChain


def chain(label="A", blocks=0, parent=None, branch_height=0, counterfeit=False):
    fork = ForkChain(
        label=label,
        parent=parent,
        branch_height=branch_height,
        counterfeit=counterfeit,
    )
    for _ in range(blocks):
        fork.extend()
    return fork


class TestBlockHeader:
    def test_hash_commits_to_fields(self):
        base = chain(blocks=1)
        digest = hashlib.md5(
            f"{base.hash_at(1)}|A|2".encode("utf-8")
        ).hexdigest()[:16]
        assert base.extend() == digest
        # Changing the parent, the label or the height changes the hash.
        other_parent = chain(label="A", blocks=1, parent=chain(label="C", blocks=1), branch_height=1)
        relabelled = chain(label="C", blocks=2)
        assert len({base.hash_at(2), other_parent.hash_at(2), relabelled.hash_at(2)}) == 3
        assert base.hash_at(1) != base.hash_at(2)

    def test_negative_height_rejected(self):
        with pytest.raises(SimulationError):
            chain(blocks=2).hash_at(-1)


class TestBlock:
    def test_genesis(self):
        genesis = chain()
        assert genesis.tip_height == 0
        assert genesis.tip_hash() == "genesis"

    def test_extends(self):
        root = chain(blocks=1)
        child = root.extend()
        assert root.hash_at(2) == child
        assert root.tip_height == 2
        # A block links to its predecessor, not the other way round.
        assert root.hash_at(1) != child

    def test_counterfeit_flag_changes_identity(self):
        honest = chain(label="A", blocks=3)
        forged = chain(
            label="B", blocks=1, parent=honest, branch_height=2, counterfeit=True
        )
        assert forged.counterfeit
        assert forged.hash_at(2) == honest.hash_at(2)  # shared history
        assert forged.hash_at(3) != honest.hash_at(3)

    def test_deterministic_hash(self):
        assert chain(blocks=5).hashes == chain(blocks=5).hashes
