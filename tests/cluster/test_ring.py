"""HashRing determinism, balance and minimal-disruption properties."""

from __future__ import annotations

import pytest

from repro.cluster.ring import HashRing, stable_hash

POOLS = ["pool-0", "pool-1", "pool-2", "pool-3"]
KEYS_10K = [f"obj-{i}" for i in range(10_000)]


def build_ring(names, vnodes=128):
    ring = HashRing(vnodes=vnodes)
    for name in names:
        ring.add_node(name)
    return ring


class TestDeterminism:
    def test_same_members_same_placement_regardless_of_insertion_order(self):
        forward = build_ring(POOLS)
        backward = build_ring(list(reversed(POOLS)))
        for key in KEYS_10K[:500]:
            assert forward.node_for(key) == backward.node_for(key)

    def test_placement_is_stable_across_instances(self):
        first = build_ring(POOLS)
        second = build_ring(POOLS)
        assert [first.node_for(k) for k in KEYS_10K[:200]] == \
               [second.node_for(k) for k in KEYS_10K[:200]]

    def test_stable_hash_is_process_independent(self):
        # BLAKE2b, not the salted builtin hash(): fixed expectation values.
        assert stable_hash("obj-0") == stable_hash("obj-0")
        assert stable_hash("obj-0") != stable_hash("obj-1")

    def test_stable_hash_values_are_pinned(self):
        # Placement, shard seeds and every fingerprint derive from these
        # bytes, whichever module provides BLAKE2b.
        assert stable_hash("obj-0") == 4808307383336620854
        assert stable_hash("pool-1#7") == 10866785219301939909

    def test_nodes_for_returns_distinct_members(self):
        ring = build_ring(POOLS)
        replicas = ring.nodes_for("obj-42", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert replicas[0] == ring.node_for("obj-42")


class TestBalance:
    def test_stddev_of_shard_sizes_under_10k_keys(self):
        ring = build_ring(POOLS)
        balance = ring.balance(KEYS_10K)
        assert balance.mean == pytest.approx(2500.0)
        # Virtual nodes keep the spread tight: stddev well under 15% of mean.
        assert balance.coefficient_of_variation < 0.15
        assert all(count > 0 for count in balance.counts.values())

    def test_more_vnodes_tighten_the_spread(self):
        coarse = build_ring(POOLS, vnodes=8)
        fine = build_ring(POOLS, vnodes=256)
        assert (fine.balance(KEYS_10K).coefficient_of_variation
                <= coarse.balance(KEYS_10K).coefficient_of_variation)

    def test_weighted_node_attracts_proportional_share(self):
        ring = HashRing(vnodes=128)
        ring.add_node("small", weight=1.0)
        ring.add_node("big", weight=3.0)
        counts = ring.key_counts(KEYS_10K)
        assert counts["big"] > 2 * counts["small"]


class TestMinimalDisruption:
    def test_removal_only_remaps_keys_of_the_removed_node(self):
        ring = build_ring(POOLS)
        before = {key: ring.node_for(key) for key in KEYS_10K[:2000]}
        ring.remove_node("pool-2")
        for key, owner in before.items():
            if owner != "pool-2":
                assert ring.node_for(key) == owner

    def test_addition_moves_roughly_one_over_n_of_the_keys(self):
        ring = build_ring(POOLS)
        before = {key: ring.node_for(key) for key in KEYS_10K}
        ring.add_node("pool-4")
        moved = sum(1 for key, owner in before.items()
                    if ring.node_for(key) != owner)
        # Expected move fraction is 1/5; allow generous slack.
        assert 0.10 < moved / len(KEYS_10K) < 0.30


class TestEdgeCases:
    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.node_for("obj-0")

    def test_unknown_member_removal_raises(self):
        ring = build_ring(POOLS)
        with pytest.raises(KeyError):
            ring.remove_node("nope")

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        ring = build_ring(POOLS)
        before = [ring.node_for(key) for key in KEYS_10K[:200]]
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                ring.add_node("pool-9", weight=weight)
        # A rejected weight leaves the ring as it was, and usable.
        assert "pool-9" not in ring
        ring.add_node("pool-4")
        ring.remove_node("pool-4")
        assert [ring.node_for(key) for key in KEYS_10K[:200]] == before

    def test_membership_queries(self):
        ring = build_ring(POOLS)
        assert "pool-0" in ring
        assert len(ring) == 4
        assert ring.nodes == sorted(POOLS)


class TestReweight:
    def test_reweight_leaves_no_stale_or_duplicate_vnodes(self):
        ring = build_ring(["a", "b"], vnodes=32)
        baseline = list(ring._ring)
        ring.add_node("a", weight=2.0)
        entries = ring._ring
        assert len(entries) == len(set(entries)), "duplicate vnodes after re-weight"
        counts: dict = {}
        for _, name in entries:
            counts[name] = counts.get(name, 0) + 1
        assert counts == {"a": 64, "b": 32}
        # Re-weighting back restores the exact original ring (no leftovers).
        ring.add_node("a", weight=1.0)
        assert ring._ring == baseline

    def test_reweight_only_shifts_keys_toward_the_heavier_node(self):
        ring = build_ring(POOLS, vnodes=64)
        before = {key: ring.node_for(key) for key in KEYS_10K[:2000]}
        ring.add_node("pool-0", weight=2.0)
        moved = {key for key, owner in before.items()
                 if ring.node_for(key) != owner}
        # Every remapped key lands on the up-weighted node; nothing shuffles
        # between the untouched nodes.
        assert moved
        assert all(ring.node_for(key) == "pool-0" for key in moved)


class TestDeriveSeed:
    """derive_seed defines cross-process reproducibility: its outputs are a
    documented contract, so the scheme must not drift silently."""

    def test_stable_and_pinned(self):
        from repro.cluster.ring import derive_seed

        assert derive_seed(17, "latency", "pool-0", "k") == 1206802350
        assert derive_seed(17, "latency", "pool-0", "k") == \
            derive_seed(17, "latency", "pool-0", "k")

    def test_position_and_boundary_sensitivity(self):
        from repro.cluster.ring import derive_seed

        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_output_is_a_valid_31_bit_seed(self):
        from repro.cluster.ring import derive_seed

        for parts in [(0,), (1, "x"), (999, "a", "b", "c"), ("root", 3.5)]:
            seed = derive_seed(*parts)
            assert 0 <= seed < 2 ** 31


class TestNodesForReplicaSets:
    """Edge cases of the replica-placement primitive ``nodes_for``."""

    def test_distinct_under_vnode_wraparound(self):
        # With few members and many vnodes, walks starting near the end of
        # the ring must wrap and still return distinct members for *every*
        # key, including keys hashing past the last virtual node.
        ring = build_ring(["a", "b", "c"], vnodes=4)
        for i in range(500):
            replicas = ring.nodes_for(f"key-{i}", 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_count_exceeding_membership_returns_every_member(self):
        ring = build_ring(["a", "b"])
        assert sorted(ring.nodes_for("k", 5)) == ["a", "b"]
        assert sorted(ring.nodes_for("k", 2)) == ["a", "b"]

    def test_count_one_matches_node_for(self):
        ring = build_ring(["a", "b", "c", "d"])
        for i in range(100):
            key = f"key-{i}"
            assert ring.nodes_for(key, 1) == [ring.node_for(key)]

    def test_zero_or_negative_weight_nodes_are_rejected(self):
        ring = build_ring(["a"])
        import pytest
        with pytest.raises(ValueError):
            ring.add_node("zero", weight=0.0)
        with pytest.raises(ValueError):
            ring.add_node("negative", weight=-2.0)
        assert "zero" not in ring and "negative" not in ring

    def test_replica_sets_are_stable_under_unrelated_add_node(self):
        # Consistent hashing: adding a member may only *insert* itself into
        # a key's preference walk -- it never reorders the existing members.
        # So the new replica set is the old one with at most the new node
        # spliced in (and the tail pushed out), order preserved.
        ring = build_ring(["a", "b", "c", "d"])
        before = {f"key-{i}": ring.nodes_for(f"key-{i}", 3)
                  for i in range(300)}
        ring.add_node("e")
        unchanged = 0
        for key, old in before.items():
            new = ring.nodes_for(key, 3)
            assert set(new) <= set(old) | {"e"}
            survivors = [node for node in new if node != "e"]
            assert survivors == [node for node in old
                                 if node in survivors], (
                f"{key}: relative order changed: {old} -> {new}"
            )
            if new == old:
                unchanged += 1
        # A key's set is untouched iff the new node does not enter its
        # first-3 walk -- roughly (P - r) / P of the keyspace for r=3 of
        # P=5 members.  Assert a conservative floor on that fraction.
        assert unchanged >= 0.2 * len(before)
