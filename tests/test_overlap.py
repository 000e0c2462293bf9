import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddoscope import overlap
from ddoscope.model import (
    TargetTuple,
    US_PER_S,
    format_prefix,
    int_to_ip,
    ip_to_int,
    keys_to_tuples,
    prefix_mask,
    tuples_to_keys as keys,
)
from ddoscope.overlap import (
    as_attribution,
    federated_confirm,
    new_vs_recurring,
    overlap_timeseries,
    target_digest,
    upset_exclusive,
)

from conftest import prefix_table
from oracles import (
    AttackEvent,
    date_to_ts,
    events_to_batch,
    hash_targets,
    oracle_build_targets,
    oracle_confirm_share,
    oracle_overlap_timeseries,
    oracle_upset_exclusive,
)

D0 = date(2022, 3, 7)  # a Monday


def build_targets(events, mode="start_date"):
    """build_targets over AttackEvent rows."""
    return overlap.build_targets(events_to_batch(events), mode)


def tt(day_offset, ip):
    return TargetTuple(D0 + timedelta(days=day_offset), ip)


def rows(target_keys):
    return set(keys_to_tuples(target_keys))


def ev(start_day, ip="203.0.113.5", span_days=0):
    start = date_to_ts(D0 + timedelta(days=start_day)) + 7200 * US_PER_S
    end = start + span_days * 86_400 * US_PER_S + US_PER_S
    return AttackEvent(observatory="o", attack_type="RA", target=f"{ip}/32",
                       start_ts=start, end_ts=end, packets=10)


class TestBuildTargets:
    def test_single_day_modes_agree(self):
        e = ev(0)
        assert np.array_equal(build_targets([e], "start_date"), build_targets([e], "per_day"))

    def test_multi_day_event(self):
        e = ev(0, span_days=2)  # touches 3 calendar days
        assert rows(build_targets([e], "start_date")) == {tt(0, "203.0.113.5")}
        assert rows(build_targets([e], "per_day")) == {
            tt(0, "203.0.113.5"), tt(1, "203.0.113.5"), tt(2, "203.0.113.5")
        }

    def test_dedup(self):
        events = [ev(0), ev(0)]
        assert len(build_targets(events, "start_date")) == 1

    def test_prefix_event_expands_members(self):
        e = AttackEvent(observatory="o", attack_type="RA", target="203.0.113.0/24",
                        start_ts=date_to_ts(D0), end_ts=date_to_ts(D0) + US_PER_S,
                        packets=5, member_targets=("203.0.113.5", "203.0.113.9"))
        assert rows(build_targets([e])) == {tt(0, "203.0.113.5"), tt(0, "203.0.113.9")}


HOSTS = st.integers(0, 7).map(lambda i: 0xCB007100 + 3 * i) | st.integers(0, 2 ** 32 - 1)


@st.composite
def target_events(draw):
    """A host or prefix event of up to a week, near 2022-03-07 or the epoch."""
    base = draw(st.sampled_from([date_to_ts(D0), 0]))
    start = base + draw(st.integers(-3 * 86_400, 30 * 86_400)) * US_PER_S + draw(st.integers(0, US_PER_S))
    end = start + draw(st.integers(0, 7 * 86_400 * US_PER_S))
    host = draw(HOSTS)
    plen = draw(st.sampled_from([32, 24, 16]))
    if plen == 32:
        return AttackEvent(observatory="o", attack_type="RA", target=f"{int_to_ip(host)}/32",
                           start_ts=start, end_ts=end, packets=1)
    net = host & prefix_mask(plen)
    members = draw(st.sets(st.integers(0, 255).map(lambda i: net | i), min_size=1, max_size=4))
    return AttackEvent(observatory="o", attack_type="RA", target=format_prefix(net, plen),
                       start_ts=start, end_ts=end, packets=1,
                       member_targets=tuple(sorted(map(int_to_ip, members | {host}))))


class TestKeysMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(target_events(), max_size=10), b=st.lists(target_events(), max_size=10),
           mode=st.sampled_from(["start_date", "per_day"]))
    def test_targets_and_series(self, a, b, mode):
        ka, kb = build_targets(a, mode), build_targets(b, mode)
        ta, tb = oracle_build_targets(a, mode), oracle_build_targets(b, mode)
        # keys decode to the oracle's tuples, in (date, numeric IP) order
        assert keys_to_tuples(ka) == sorted(ta, key=lambda t: (t.date, ip_to_int(t.ip)))
        assert rows(kb) == tb
        if ta or tb:
            assert overlap_timeseries(ka, kb, ("x", "y")) == oracle_overlap_timeseries(ta, tb, ("x", "y"))


class TestUpsetExclusive:
    def system(self, **sets):
        return {k: keys({tt(0, f"10.0.0.{i}") for i in v}) for k, v in sets.items()}

    def test_disjoint_sets(self):
        sys_ = self.system(a={1, 2}, b={3, 4, 5})
        counts = upset_exclusive(sys_)
        assert counts[frozenset(["a"])] == 2
        assert counts[frozenset(["b"])] == 3
        assert counts[frozenset(["a", "b"])] == 0

    def test_worked_abc_example(self):
        sys_ = self.system(A={1, 2, 3}, B={2, 3, 4}, C={3, 4, 5})
        counts = upset_exclusive(sys_)
        want = {
            frozenset(["A"]): 1,
            frozenset(["A", "B"]): 1,
            frozenset(["A", "B", "C"]): 1,
            frozenset(["B", "C"]): 1,
            frozenset(["C"]): 1,
            frozenset(["B"]): 0,
            frozenset(["A", "C"]): 0,
        }
        assert counts == want
        assert sum(counts.values()) == 5

    def test_identical_sets(self):
        sys_ = self.system(a={1, 2, 3}, b={1, 2, 3})
        counts = upset_exclusive(sys_)
        assert counts[frozenset(["a", "b"])] == 3
        assert counts[frozenset(["a"])] == 0

    def test_partition_law_randomized(self):
        rng = random.Random(55)
        for _ in range(100):
            n = rng.randint(1, 6)
            pool = [tt(rng.randint(0, 60), f"10.{rng.randint(0, 3)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}")
                    for _ in range(rng.randint(1, 400))]
            sets = {
                f"obs{i}": {t for t in pool if rng.random() < rng.uniform(0.1, 0.9)}
                for i in range(n)
            }
            counts = upset_exclusive({label: keys(s) for label, s in sets.items()})
            union = set().union(*sets.values())
            assert sum(counts.values()) == len(union)
            assert counts == oracle_upset_exclusive(sets)

    def test_ten_set_limit(self):
        sets = {f"o{i}": keys({tt(0, "10.0.0.1")}) for i in range(11)}
        with pytest.raises(ValueError, match="10-set limit"):
            upset_exclusive(sets)


class TestOverlapTimeseries:
    def test_identical_sets(self):
        a = keys({tt(0, "10.0.0.1"), tt(1, "10.0.0.1"), tt(8, "10.0.0.2")})
        sa, sb, si = overlap_timeseries(a, a)
        assert sa.values == (2.0, 1.0)
        assert si.values == sa.values == sb.values

    def test_disjoint_sets(self):
        a = keys({tt(0, "10.0.0.1")})
        b = keys({tt(0, "10.0.0.2"), tt(14, "10.0.0.3")})
        sa, sb, si = overlap_timeseries(a, b)
        assert sa.values == (1.0, 0.0, 0.0)
        assert sb.values == (1.0, 0.0, 1.0)
        assert si.values == (0.0, 0.0, 0.0)

    def test_two_week_fixture_vs_daily_oracle(self):
        rng = random.Random(4)
        a = {tt(rng.randint(0, 13), f"10.0.0.{rng.randint(1, 30)}") for _ in range(60)}
        b = {tt(rng.randint(0, 13), f"10.0.0.{rng.randint(1, 30)}") for _ in range(60)}
        sa, sb, si = overlap_timeseries(keys(a), keys(b))
        for week in range(2):
            days = [D0 + timedelta(days=7 * week + i) for i in range(7)]
            assert sa.values[week] == sum(1 for t in a if t.date in days)
            assert sb.values[week] == sum(1 for t in b if t.date in days)
            assert si.values[week] == sum(1 for t in a & b if t.date in days)


class TestNewVsRecurring:
    def test_all_distinct(self):
        tuples = {tt(i, f"10.0.0.{i}") for i in range(5)}
        new, rec, cum = new_vs_recurring(keys(tuples))
        assert sum(new.values) == 5 and sum(rec.values) == 0
        assert cum.values[-1] == 5

    def test_same_ip_three_dates(self):
        tuples = {tt(0, "10.0.0.1"), tt(3, "10.0.0.1"), tt(9, "10.0.0.1")}
        new, rec, cum = new_vs_recurring(keys(tuples))
        assert sum(new.values) == 1 and sum(rec.values) == 2
        assert cum.values[-1] == 1.0

    def test_replay_oracle(self):
        rng = random.Random(66)
        tuples = {tt(rng.randint(0, 40), f"10.0.{rng.randint(0, 2)}.{rng.randint(1, 40)}")
                  for _ in range(300)}
        new, rec, cum = new_vs_recurring(keys(tuples))
        # replay day by day, tracking first-seen IPs
        seen = set()
        by_week = {}
        for t in sorted(tuples, key=lambda t: t.date):
            week = (t.date - new.start_week).days // 7
            counts = by_week.setdefault(week, [0, 0])
            first_date = min(x.date for x in tuples if x.ip == t.ip)
            if t.date == first_date:
                counts[0] += 1
            else:
                counts[1] += 1
        for week, (n_new, n_rec) in by_week.items():
            assert new.values[week] == n_new
            assert rec.values[week] == n_rec
        # cumulative is monotone and ends at the distinct-IP count
        assert list(cum.values) == sorted(cum.values)
        assert cum.values[-1] == len({t.ip for t in tuples})


class TestAsAttribution:
    TABLE = prefix_table([
        ("203.0.113.0/24", 64500),
        ("198.51.100.0/24", 64501),
        ("198.51.100.128/25", 64502),
    ])

    def test_single_as(self):
        tuples = {tt(i, f"203.0.113.{i + 1}") for i in range(5)}
        rows = as_attribution(keys(tuples), self.TABLE)
        assert rows == [("AS64500", 5, 1.0)]

    def test_eighty_twenty_split(self):
        tuples = {tt(i, f"203.0.113.{i + 1}") for i in range(8)}
        tuples |= {tt(i, f"198.51.100.{i + 1}") for i in range(2)}
        rows = as_attribution(keys(tuples), self.TABLE)
        assert rows[0] == ("AS64500", 8, 0.8)
        assert rows[1] == ("AS64501", 2, 0.2)

    def test_nested_prefix_and_unrouted(self):
        tuples = {
            tt(0, "198.51.100.5"),     # /24 -> AS64501
            tt(0, "198.51.100.200"),   # /25 wins -> AS64502
            tt(0, "192.0.2.1"),        # unrouted
        }
        rows = dict((asn, (c, s)) for asn, c, s in as_attribution(keys(tuples), self.TABLE))
        assert rows["AS64501"][0] == 1
        assert rows["AS64502"][0] == 1
        assert rows["unrouted"][0] == 1

    def test_shares_sum_to_one(self):
        rng = random.Random(13)
        tuples = {tt(rng.randint(0, 10), f"{rng.choice(['203.0.113', '198.51.100', '192.0.2'])}.{rng.randint(1, 254)}")
                  for _ in range(500)}
        rows = as_attribution(keys(tuples), self.TABLE)
        assert abs(sum(share for _, _, share in rows) - 1.0) <= 1e-12

    def test_top_n(self):
        tuples = {tt(0, "203.0.113.1"), tt(0, "198.51.100.1"), tt(0, "192.0.2.1")}
        assert len(as_attribution(keys(tuples), self.TABLE, top_n=2)) == 2


class TestFederatedConfirm:
    def test_digest_is_pinned(self):
        t = TargetTuple(date(2022, 3, 7), "203.0.113.5")
        import hashlib
        want = hashlib.sha256(b"s3cr3t|2022-03-07|203.0.113.5").hexdigest()
        assert target_digest(t, "s3cr3t") == want

    def test_empty_external(self):
        shares = federated_confirm({"a": keys({tt(0, "10.0.0.1")})}, set(), "salt")
        assert shares == {frozenset(["a"]): 0.0}

    def test_set_count_limits(self):
        with pytest.raises(ValueError, match="at least one observatory"):
            federated_confirm({}, set(), "salt")
        sets = {f"o{i}": keys({tt(0, "10.0.0.1")}) for i in range(11)}
        with pytest.raises(ValueError, match="10-set limit"):
            federated_confirm(sets, set(), "salt")

    def test_three_of_ten(self):
        tuples = [tt(i, "10.0.0.1") for i in range(10)]
        system = {"local": keys(tuples)}
        external = hash_targets(keys(tuples[:3]), "pepper")
        shares = federated_confirm(system, external, "pepper")
        assert shares[frozenset(["local"])] == 0.3

    def test_exact_four_way_intersection(self):
        common = {tt(i, "10.9.9.9") for i in range(4)}
        sets = {
            name: common | {tt(i, f"10.0.{j}.1") for i in range(3)}
            for j, name in enumerate(["a", "b", "c", "d"])
        }
        system = {label: keys(s) for label, s in sets.items()}
        external = hash_targets(keys(common), "x")
        shares = federated_confirm(system, external, "x")
        for subset, share in shares.items():
            if subset == frozenset(["a", "b", "c", "d"]):
                assert share == 1.0
            else:
                assert share == 0.0

    def test_equals_plaintext_join_any_salt(self):
        rng = random.Random(31337)
        for _ in range(60):
            salt = "%08x" % rng.getrandbits(32)
            pool = [tt(rng.randint(0, 30), f"10.0.{rng.randint(0, 3)}.{rng.randint(1, 99)}")
                    for _ in range(rng.randint(5, 80))]
            n = rng.randint(1, 4)
            sets = {f"s{i}": {t for t in pool if rng.random() < 0.5} for i in range(n)}
            if not any(sets.values()):
                continue
            external_plain = {t for t in pool if rng.random() < 0.4}
            system = {label: keys(s) for label, s in sets.items()}
            got = federated_confirm(system, hash_targets(keys(external_plain), salt), salt)
            exclusive = oracle_upset_exclusive(sets)
            union = set().union(*sets.values())
            for subset, share in got.items():
                members = {
                    t for t in union
                    if all(t in sets[l] for l in subset)
                    and not any(t in sets[l] for l in set(sets) - subset)
                }
                assert len(members) == exclusive[subset]
                want = oracle_confirm_share(members, external_plain)
                assert share == want

    def test_salt_mismatch_confirms_nothing(self):
        tuples = [tt(i, "10.0.0.1") for i in range(10)]
        system = {"local": keys(tuples)}
        external = hash_targets(keys(tuples), "saltA")
        shares = federated_confirm(system, external, "saltB")
        assert shares[frozenset(["local"])] == 0.0
