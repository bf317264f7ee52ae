"""Tests for the KV store and pub/sub."""

import threading

import pytest
from repro.kvstore import KeyValueStore, PubSub, WrongTypeError


class TestHashes:
    def test_hmset_hgetall(self):
        kv = KeyValueStore()
        kv.hmset("v", {"a": 1, "b": 2})
        assert kv.hgetall("v") == {"a": 1, "b": 2}

    def test_hgetall_returns_copy(self):
        kv = KeyValueStore()
        kv.hmset("v", {"a": 1})
        snapshot = kv.hgetall("v")
        snapshot["a"] = 999
        assert kv.hgetall("v") == {"a": 1}

    def test_hget_missing(self):
        assert KeyValueStore().hgetall("nope") == {}


class TestLists:
    def test_rpush_lrange(self):
        kv = KeyValueStore()
        kv.rpush("l", 1, 2, 3)
        assert kv.lrange("l", 0, -1) == [1, 2, 3]

    def test_negative_indices(self):
        kv = KeyValueStore()
        kv.rpush("l", *range(5))
        assert kv.lrange("l", -2, -1) == [3, 4]

    def test_ltrim(self):
        kv = KeyValueStore()
        kv.rpush("l", *range(10))
        kv.ltrim("l", -3, -1)
        assert kv.lrange("l", 0, -1) == [7, 8, 9]

    def test_llen(self):
        kv = KeyValueStore()
        assert kv.llen("l") == 0
        kv.rpush("l", 1)
        assert kv.llen("l") == 1

    def test_type_confusion_raises(self):
        kv = KeyValueStore()
        kv.rpush("a", 1)
        with pytest.raises(WrongTypeError):
            kv.hmset("a", {"f": 1})
        with pytest.raises(WrongTypeError):
            kv.zadd("a", 1.0, "m")
        kv.hmset("h", {"f": 1})
        with pytest.raises(WrongTypeError):
            kv.rpush("h", 1)
        with pytest.raises(WrongTypeError):
            kv.lrange("h", 0, -1)


class TestSortedSets:
    def test_zrange_ordering(self):
        """Members come back ordered by (score, member)."""
        kv = KeyValueStore()
        kv.zadd("z", 3.0, "c")
        kv.zadd("z", 1.0, "b")
        kv.zadd("z", 1.0, "a")
        everything = kv.zrangebyscore("z", float("-inf"), float("inf"))
        assert [m for m, _ in everything] == ["a", "b", "c"]

    def test_zrangebyscore(self):
        kv = KeyValueStore()
        for i, m in enumerate("abcde"):
            kv.zadd("z", float(i), m)
        hits = kv.zrangebyscore("z", 1.0, 3.0)
        assert [m for m, _ in hits] == ["b", "c", "d"]

    def test_zadd_updates_score(self):
        kv = KeyValueStore()
        kv.zadd("z", 1.0, "a")
        kv.zadd("z", 9.0, "a")
        assert kv.zrangebyscore("z", float("-inf"), float("inf")) == [("a", 9.0)]
        assert kv.zcard("z") == 1


class TestKeyspace:
    def test_thread_safety_counter(self):
        kv = KeyValueStore()

        def bump():
            for _ in range(500):
                kv.rpush("n", 1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert kv.llen("n") == 2000


class TestMergeState:
    """Scale-in absorption semantics: a surviving node folds a retired
    peer's snapshot into its own store without clobbering newer rows."""

    def test_lists_append(self):
        target, source = KeyValueStore(), KeyValueStore()
        target.rpush("events:proximity", "a")
        source.rpush("events:proximity", "b", "c")
        source.rpush("events:collision", "x")
        merged = target.merge_state(source.snapshot_state())
        assert merged == 2
        assert target.lrange("events:proximity", 0, -1) == ["a", "b", "c"]
        assert target.lrange("events:collision", 0, -1) == ["x"]

    def test_existing_hash_fields_win(self):
        target, source = KeyValueStore(), KeyValueStore()
        target.hmset("vessel:1", {"t": 200.0, "lat": 44.0})
        source.hmset("vessel:1", {"t": 100.0, "lat": 43.0, "sog": 2.0})
        source.hmset("vessel:2", {"t": 50.0})
        target.merge_state(source.snapshot_state())
        # The absorber's newer row keeps its fields; missing ones fill in.
        assert target.hgetall("vessel:1") == {
            "t": 200.0, "lat": 44.0, "sog": 2.0}
        assert target.hgetall("vessel:2") == {"t": 50.0}

    def test_zset_members_fill_in_only_where_absent(self):
        target, source = KeyValueStore(), KeyValueStore()
        target.zadd("vessels:last_seen", 300.0, "1")
        source.zadd("vessels:last_seen", 100.0, "1")
        source.zadd("vessels:last_seen", 150.0, "2")
        target.merge_state(source.snapshot_state())
        assert target.zrangebyscore("vessels:last_seen", 0.0, 1e9) == [
            ("2", 150.0), ("1", 300.0)]

    def test_merge_into_empty_equals_restore_data(self):
        source = KeyValueStore()
        source.rpush("l", "a", "b")
        source.hmset("h", {"f": 1})
        source.zadd("z", 2.0, "m")
        target = KeyValueStore()
        target.merge_state(source.snapshot_state())
        assert target.snapshot_state() == source.snapshot_state()

    def test_merge_is_journaled(self, tmp_path):
        from repro.kvstore.persistence import StorePersistence
        source = KeyValueStore()
        source.rpush("events:proximity", "e1")
        source.hmset("vessel:1", {"t": 5.0})
        target = KeyValueStore(
            persistence=StorePersistence(str(tmp_path / "kv")))
        target.merge_state(source.snapshot_state())
        reborn = KeyValueStore(
            persistence=StorePersistence(str(tmp_path / "kv")))
        assert reborn.lrange("events:proximity", 0, -1) == ["e1"]
        assert reborn.hgetall("vessel:1") == {"t": 5.0}


class TestPubSub:
    def test_publish_to_matching_subscriber(self):
        ps = PubSub()
        sub = ps.subscribe("events:*")
        assert ps.publish("events:collision", {"id": 1}) == 1
        assert sub.get() == ("events:collision", {"id": 1})

    def test_no_match_no_delivery(self):
        ps = PubSub()
        sub = ps.subscribe("events:collision")
        assert ps.publish("events:proximity", "x") == 0
        assert sub.pending() == 0

    def test_fanout(self):
        ps = PubSub()
        s1, s2 = ps.subscribe("e:*"), ps.subscribe("e:a")
        assert ps.publish("e:a", 1) == 2
        assert s1.pending() == 1 and s2.pending() == 1

    def test_get_all_drains(self):
        ps = PubSub()
        sub = ps.subscribe("*")
        ps.publish("a", 1)
        ps.publish("b", 2)
        assert sub.get_all() == [("a", 1), ("b", 2)]
        assert sub.pending() == 0

    def test_unsubscribe(self):
        ps = PubSub()
        sub = ps.subscribe("*")
        sub.close()
        assert ps.publish("a", 1) == 0
        assert ps.subscriber_count() == 0

    def test_get_empty_returns_none(self):
        ps = PubSub()
        assert ps.subscribe("*").get() is None
